// Ablation — pluggable network-stack backends (the StackBackend seam).
//
// Two questions, one bench:
//
//  1. Backend sweep: the full stack versus the compact fast-path stack on
//     an identical two-endpoint scenario, across message sizes.  The
//     interesting outputs are events per packet (the fast path fuses the
//     per-packet pipeline into one softirq item) and the simulated RR
//     latency delta (fixed fastpath_rx/tx charges versus the full stack's
//     itemized route + hook + L4 bill).
//
//  2. Consolidation: N guests-per-worker on one StackService versus N
//     dedicated softirq cores (the NetKernel argument).  For idle-ish
//     tenants the service finishes the same workload on 1/N of the
//     provisioned softirq capacity; `consolidation_win_gN` is the ratio of
//     packets per provisioned core-second, and the per-guest CPU
//     attribution must exactly cover the shared worker's busy time.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "json_report.hpp"
#include "net/bridge.hpp"
#include "net/faststack.hpp"
#include "net/stack.hpp"
#include "net/stack_backend.hpp"
#include "net/stack_service.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace {

using namespace nestv;
using net::Ipv4Address;
using net::Ipv4Cidr;
using net::MacAddress;
using net::StackBackend;
using net::StackMode;

const Ipv4Cidr kSubnet(Ipv4Address(10, 0, 0, 0), 24);

struct Point {
  double rr_lat_us = 0.0;
  double stream_mbps = 0.0;
  std::uint64_t events = 0;
  std::uint64_t rr_events = 0;  ///< events of the RR phase alone
  std::uint64_t rr_packets = 0;
  std::uint64_t packets = 0;  ///< app-level: 2/transaction + stream chunks
};

double rr_events_per_packet(const Point& p) {
  return p.rr_packets ? static_cast<double>(p.rr_events) /
                            static_cast<double>(p.rr_packets)
                      : 0.0;
}

double events_per_packet(const Point& p) {
  return p.packets ? static_cast<double>(p.events) /
                         static_cast<double>(p.packets)
                   : 0.0;
}

/// One two-endpoint scenario on a bridge: a bounded UDP RR wave followed by
/// a chunked TCP stream, both ends on `mode` stacks with dedicated softirq
/// resources.
Point run_point(StackMode mode, std::uint32_t msg_bytes) {
  const sim::CostModel costs{};
  sim::Engine engine;
  net::Bridge bridge(engine, "br", costs);
  net::PortBackend pa(engine, "pa", costs), pb(engine, "pb", costs);
  sim::SerialResource soft_a(engine, "cli/softirq");
  sim::SerialResource soft_b(engine, "srv/softirq");

  const auto cli = net::make_stack(mode, engine, "cli", costs, &soft_a);
  const auto srv = net::make_stack(mode, engine, "srv", costs, &soft_b);
  net::Device::connect(pa, 0, bridge, bridge.add_port());
  net::Device::connect(pb, 0, bridge, bridge.add_port());
  const Ipv4Address ip_a(10, 0, 0, 1), ip_b(10, 0, 0, 2);
  cli->add_interface(pa, {"eth0", MacAddress::local_from_id(1), ip_a,
                          kSubnet, 1500, 1448});
  srv->add_interface(pb, {"eth0", MacAddress::local_from_id(2), ip_b,
                          kSubnet, 1500, 1448});

  // ---- UDP RR: kRrCount closed-loop transactions ------------------------
  constexpr int kRrCount = 300;
  srv->udp_bind(7, nullptr, [&](const StackBackend::UdpDelivery& d) {
    srv->udp_send(ip_b, 7, d.src_ip, d.src_port, d.bytes, nullptr);
  });
  std::uint64_t transactions = 0;
  int remaining = kRrCount - 1;
  cli->udp_bind(8, nullptr, [&](const StackBackend::UdpDelivery&) {
    ++transactions;
    if (remaining == 0) return;
    --remaining;
    cli->udp_send(ip_a, 8, ip_b, 7, msg_bytes, nullptr);
  });
  cli->udp_send(ip_a, 8, ip_b, 7, msg_bytes, nullptr);
  engine.run();
  const std::uint64_t rr_elapsed = engine.now();
  const std::uint64_t rr_events = engine.events_executed();

  // ---- TCP stream: kStreamBytes in msg-sized application writes --------
  constexpr std::uint64_t kStreamBytes = 1 << 20;
  std::uint64_t stream_delivered = 0;
  srv->tcp_listen(5001, nullptr, [&](net::TcpSocket sock) {
    sock.set_on_receive(
        [&stream_delivered](std::uint32_t n) { stream_delivered += n; });
  });
  const std::uint64_t stream_t0 = engine.now();
  // With no app core, send() queues its bytes inline, so one loop issues
  // every write as soon as the connection is up.
  net::TcpSocket client = cli->tcp_connect(ip_a, ip_b, 5001, nullptr);
  client.set_on_connected([&client, msg_bytes] {
    for (std::uint64_t left = kStreamBytes; left > 0;) {
      const std::uint32_t chunk =
          left < msg_bytes ? std::uint32_t(left) : msg_bytes;
      left -= chunk;
      client.send(chunk);
    }
  });
  engine.run();

  Point out;
  const std::uint64_t stream_elapsed = engine.now() - stream_t0;
  out.rr_lat_us = transactions
                      ? static_cast<double>(rr_elapsed) /
                            static_cast<double>(transactions) / 1e3
                      : 0.0;
  out.stream_mbps =
      stream_elapsed
          ? static_cast<double>(stream_delivered) * 8.0 * 1e3 /
                static_cast<double>(stream_elapsed)
          : 0.0;
  out.events = engine.events_executed();
  out.rr_events = rr_events;
  out.rr_packets = transactions * 2;
  out.packets =
      transactions * 2 + (stream_delivered + msg_bytes - 1) / msg_bytes;
  return out;
}

// ---- consolidation ---------------------------------------------------------

struct Consolidation {
  double win = 0.0;               ///< packets per provisioned core-second ratio
  double worker_utilization = 0.0;
  double attribution_coverage = 0.0;  ///< sum(per-guest) / worker busy
};

struct VariantResult {
  std::uint64_t wall = 0;
  std::uint64_t packets = 0;
  double provisioned_cores = 0.0;
  sim::Duration worker_busy = 0;
  sim::Duration attributed_sum = 0;
};

/// N idle-ish echo guests served by a host-side client: 200 open-loop
/// requests per guest, spaced 50us — the tenant profile where dedicating a
/// softirq core per guest is provisioning waste.
VariantResult run_guests(int guests, bool use_service) {
  const sim::CostModel costs{};
  sim::Engine engine;
  net::Bridge bridge(engine, "br", costs);
  net::FullStack cli(engine, "cli", costs, nullptr);
  net::PortBackend pc(engine, "pc", costs);
  net::Device::connect(pc, 0, bridge, bridge.add_port());
  const Ipv4Address ipc(10, 0, 0, 254);
  cli.add_interface(pc, {"eth0", MacAddress::local_from_id(99), ipc, kSubnet,
                         1500, 1448});

  std::unique_ptr<net::StackService> service;
  std::vector<std::unique_ptr<sim::SerialResource>> cores;
  std::vector<std::unique_ptr<StackBackend>> owned;
  std::vector<StackBackend*> stacks;
  std::vector<std::unique_ptr<net::PortBackend>> ports;
  if (use_service) {
    service = std::make_unique<net::StackService>(engine, "svc", costs);
  }
  for (int g = 0; g < guests; ++g) {
    const std::string name = "vm/g" + std::to_string(g);
    StackBackend* s = nullptr;
    if (use_service) {
      s = &service->attach_guest(name);
    } else {
      cores.push_back(std::make_unique<sim::SerialResource>(
          engine, name + "/softirq"));
      owned.push_back(std::make_unique<net::FullStack>(engine, name, costs,
                                                       cores.back().get()));
      s = owned.back().get();
    }
    // append(), not `"p" + std::to_string(g)`: GCC 12 reports a false
    // -Wrestrict on the inlined prefix insert of the latter.
    ports.push_back(std::make_unique<net::PortBackend>(
        engine, std::string("p").append(std::to_string(g)), costs));
    net::Device::connect(*ports.back(), 0, bridge, bridge.add_port());
    s->add_interface(*ports.back(),
                     {"eth0", MacAddress::local_from_id(std::uint64_t(g) + 1),
                      Ipv4Address(10, 0, 0, std::uint8_t(10 + g)), kSubnet,
                      1500, 1448});
    s->udp_bind(7, nullptr, [s, g](const StackBackend::UdpDelivery& d) {
      s->udp_send(Ipv4Address(10, 0, 0, std::uint8_t(10 + g)), 7, d.src_ip,
                  d.src_port, d.bytes, nullptr);
    });
    stacks.push_back(s);
  }

  std::uint64_t replies = 0;
  cli.udp_bind(8, nullptr,
               [&replies](const StackBackend::UdpDelivery&) { ++replies; });
  constexpr int kRequests = 200;
  const sim::Duration kSpacing = sim::microseconds(50);
  for (int g = 0; g < guests; ++g) {
    const Ipv4Address dst(10, 0, 0, std::uint8_t(10 + g));
    for (int r = 0; r < kRequests; ++r) {
      engine.schedule_at(sim::Duration(r) * kSpacing +
                             sim::Duration(g) * sim::microseconds(7),
                         [&cli, ipc, dst] {
                           cli.udp_send(ipc, 8, dst, 7, 256, nullptr);
                         });
    }
  }
  engine.run();

  VariantResult out;
  out.wall = engine.now();
  out.packets = replies * 2;
  out.provisioned_cores = use_service ? 1.0 : static_cast<double>(guests);
  if (use_service) {
    out.worker_busy = service->worker().busy_time();
    for (int g = 0; g < guests; ++g) {
      out.attributed_sum +=
          service->attributed_soft_ns("vm/g" + std::to_string(g));
    }
  } else {
    for (const auto& c : cores) out.worker_busy += c->busy_time();
    out.attributed_sum = out.worker_busy;
  }
  return out;
}

Consolidation consolidation_point(int guests) {
  const VariantResult ded = run_guests(guests, false);
  const VariantResult svc = run_guests(guests, true);
  Consolidation out;
  const double eff_ded =
      static_cast<double>(ded.packets) /
      (ded.provisioned_cores * static_cast<double>(ded.wall));
  const double eff_svc =
      static_cast<double>(svc.packets) /
      (svc.provisioned_cores * static_cast<double>(svc.wall));
  out.win = eff_ded > 0.0 ? eff_svc / eff_ded : 0.0;
  out.worker_utilization = svc.wall ? static_cast<double>(svc.worker_busy) /
                                          static_cast<double>(svc.wall)
                                    : 0.0;
  out.attribution_coverage =
      svc.worker_busy ? static_cast<double>(svc.attributed_sum) /
                            static_cast<double>(svc.worker_busy)
                      : 1.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // The scenarios are closed-form; the seed is reported only.
  const auto seed = bench::parse_args(argc, argv).seed;

  const std::uint32_t sizes[] = {64, 256, 512, 1024, 1280, 1408};
  const StackMode backends[] = {StackMode::kFull, StackMode::kFastPath};

  std::printf("ablation: network-stack backends (StackBackend seam)\n");
  std::printf("%-10s %8s | %10s %12s | %10s %10s\n", "backend", "msg(B)",
              "rr lat us", "stream Mbps", "ev/pkt", "rr ev/pkt");

  bench::JsonReport report("abl_stack_backend", seed);
  Point at_1280[2];
  for (std::size_t bi = 0; bi < 2; ++bi) {
    for (const auto size : sizes) {
      const Point p = run_point(backends[bi], size);
      const char* name = net::to_string(backends[bi]);
      std::printf("%-10s %8u | %10.2f %12.0f | %10.2f %10.2f\n", name, size,
                  p.rr_lat_us, p.stream_mbps, events_per_packet(p),
                  rr_events_per_packet(p));
      if (size == 1280) {
        at_1280[bi] = p;
        const std::string prefix = name;
        report.add(prefix + "_rr_lat_us_1280B", p.rr_lat_us);
        report.add(prefix + "_stream_mbps_1280B", p.stream_mbps);
        report.add(prefix + "_events_per_packet_1280B",
                   events_per_packet(p));
        report.add(prefix + "_rr_events_per_packet_1280B",
                   rr_events_per_packet(p));
      }
    }
    std::printf("\n");
  }
  // The fusion claim lives on the per-packet (RR) pipeline; streams trade
  // the missing GRO merge pass for the fixed-cost path, so whole-run
  // events/packet can move either way.
  const double ev_full = rr_events_per_packet(at_1280[0]);
  const double ev_fast = rr_events_per_packet(at_1280[1]);
  const double reduction =
      ev_full > 0.0 ? 100.0 * (1.0 - ev_fast / ev_full) : 0.0;
  const double lat_reduction =
      at_1280[0].rr_lat_us > 0.0
          ? 100.0 * (1.0 - at_1280[1].rr_lat_us / at_1280[0].rr_lat_us)
          : 0.0;
  std::printf("fastpath @1280B: rr events/packet %.2f -> %.2f (-%.1f%%), "
              "rr latency %.2f -> %.2f us (-%.1f%%)\n\n",
              ev_full, ev_fast, reduction, at_1280[0].rr_lat_us,
              at_1280[1].rr_lat_us, lat_reduction);
  report.add("fastpath_rr_event_reduction_pct_1280B", reduction);
  report.add("fastpath_rr_latency_reduction_pct_1280B", lat_reduction);

  // ---- guests-per-worker consolidation ----------------------------------
  std::printf("%-18s | %12s %12s %12s\n", "guests-per-worker", "win",
              "worker util", "attrib cover");
  const int guest_counts[] = {1, 2, 4, 8};
  for (const int n : guest_counts) {
    const Consolidation c = consolidation_point(n);
    std::printf("%-18d | %12.2f %11.1f%% %12.3f\n", n, c.win,
                100.0 * c.worker_utilization, c.attribution_coverage);
    report.add("consolidation_win_g" + std::to_string(n), c.win);
    if (n == 8) {
      report.add("worker_utilization_g8", c.worker_utilization);
      report.add("attribution_coverage_g8", c.attribution_coverage);
    }
  }

  report.add("events_total",
             static_cast<double>(at_1280[0].events + at_1280[1].events));
  report.add("packets_total",
             static_cast<double>(at_1280[0].packets + at_1280[1].packets));
  report.set_execution_info(1, 1, {at_1280[0].events + at_1280[1].events});
  report.write();
  return 0;
}
