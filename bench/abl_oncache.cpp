// Ablation — the ONCache-style overlay fast path (src/net/oncache).
//
// Four datapaths across the fig-4/fig-10 message sizes:
//
//   Overlay          cross-VM VXLAN, cache attached but disabled (today's
//                    itemized encap/decap slow path)
//   Overlay+ONCache  same wiring, caches enabled: established inner flows
//                    pay one fused bridge+encap charge on egress and one
//                    fused decap+bridge charge on ingress
//   BrFusion         the paper's single-server fused bridge (context: what
//                    a fully fused non-overlay path achieves)
//   NAT+FlowCache    the NAT datapath with the per-flow fast-path cache
//                    (the sibling optimisation the oncache design reuses)
//
// Acceptance: >= 1.3x simulated TCP_STREAM throughput at 1280B for
// Overlay+ONCache over Overlay.
#include "bench_util.hpp"

namespace {

using namespace nestv;

struct OncachePoint {
  bench::MicroPoint micro;
  scenario::OverlayNetwork::OncacheTotals totals;
};

OncachePoint overlay_point(bool oncache, std::uint32_t msg_bytes,
                           std::uint64_t seed) {
  scenario::TestbedConfig config;
  config.seed = seed;
  const bench::StatScope scope;
  auto s = scenario::make_cross_vm(scenario::CrossVmMode::kOverlay, 6001,
                                   config);
  if (oncache) s.overlay->set_oncache_enabled(true);
  workload::Netperf np(s.bed->engine(), s.client, s.server, 6001);
  const auto rr = np.run_udp_rr(msg_bytes, sim::milliseconds(150));
  const auto st = np.run_tcp_stream(msg_bytes, sim::milliseconds(200));

  OncachePoint out;
  out.micro = {msg_bytes,
               st.throughput_mbps,
               rr.mean_latency_us,
               rr.stddev_latency_us,
               rr.transactions,
               scope.finish(s.bed->engine(),
                            bench::netperf_packets(rr, st, msg_bytes))};
  out.totals = s.overlay->oncache_totals();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nestv;
  const auto args = bench::parse_args(argc, argv);
  const auto seed = args.seed;
  const auto& sizes = bench::message_sizes();
  bench::JsonReport report("abl_oncache", seed);

  // ---- the four-way sweep ------------------------------------------------
  struct Input {
    int mode;  // 0 Overlay, 1 Overlay+ONCache, 2 BrFusion, 3 NAT+FlowCache
    std::uint32_t size;
  };
  static const char* kNames[] = {"Overlay", "Overlay+ONCache", "BrFusion",
                                 "NAT+FlowCache"};
  std::vector<Input> inputs;
  for (int mode = 0; mode < 4; ++mode) {
    for (const auto size : sizes) inputs.push_back({mode, size});
  }

  struct Row {
    bench::MicroPoint micro;
    scenario::OverlayNetwork::OncacheTotals totals;
  };
  const auto rows =
      bench::parallel_sweep(inputs, args.jobs, [seed](const Input& in) {
        Row r;
        switch (in.mode) {
          case 0:
          case 1: {
            auto p = overlay_point(in.mode == 1, in.size, seed);
            r.micro = p.micro;
            r.totals = p.totals;
            break;
          }
          case 2:
            r.micro = bench::micro_point(scenario::ServerMode::kBrFusion,
                                         in.size, seed);
            break;
          case 3:
            r.micro = bench::micro_point(scenario::ServerMode::kNatFlowCache,
                                         in.size, seed);
            break;
        }
        return r;
      });

  std::printf("ablation: ONCache overlay fast path\n");
  std::printf("%-16s %8s | %12s | %10s %10s | %10s %10s %9s\n", "mode",
              "msg(B)", "stream Mbps", "lat us", "stddev", "eg hits",
              "in hits", "bytes");
  double ovl_1280 = 0, cached_1280 = 0;
  double ovl_lat_1280 = 0, cached_lat_1280 = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& in = inputs[i];
    const auto& r = rows[i];
    std::printf("%-16s %8u | %12.0f | %10.1f %10.1f | %10llu %10llu %9zu\n",
                kNames[in.mode], in.size, r.micro.throughput_mbps,
                r.micro.latency_us, r.micro.latency_stddev_us,
                static_cast<unsigned long long>(r.totals.egress_hits),
                static_cast<unsigned long long>(r.totals.ingress_hits),
                r.totals.state_bytes);
    if (in.size == 1280) {
      if (in.mode == 0) {
        ovl_1280 = r.micro.throughput_mbps;
        ovl_lat_1280 = r.micro.latency_us;
      } else if (in.mode == 1) {
        cached_1280 = r.micro.throughput_mbps;
        cached_lat_1280 = r.micro.latency_us;
        report.add("oncache_egress_hits_1280B",
                   static_cast<double>(r.totals.egress_hits));
        report.add("oncache_ingress_hits_1280B",
                   static_cast<double>(r.totals.ingress_hits));
        report.add("oncache_state_bytes_1280B",
                   static_cast<double>(r.totals.state_bytes));
        report.add("oncache_entries_1280B",
                   static_cast<double>(r.totals.entries));
      }
    }
    if ((i + 1) % sizes.size() == 0) std::printf("\n");
  }

  const double speedup = ovl_1280 > 0.0 ? cached_1280 / ovl_1280 : 0.0;
  std::printf(
      "@1280B: ONCache/vanilla Overlay throughput = %.2fx (target: >= "
      "1.3x), latency %+.1f%%\n\n",
      speedup, 100.0 * (cached_lat_1280 / ovl_lat_1280 - 1.0));
  report.add("overlay_uncached_stream_mbps_1280B", ovl_1280);
  report.add("overlay_oncache_stream_mbps_1280B", cached_1280);
  report.add("overlay_oncache_speedup_1280B", speedup, 1.3);
  report.add("overlay_oncache_latency_delta_pct_1280B",
             100.0 * (cached_lat_1280 / ovl_lat_1280 - 1.0));

  bench::DatapathStats totals;
  for (const auto& r : rows) totals += r.micro.stats;
  bench::add_datapath_stats(report, totals);
  bench::record_execution(report, args, totals);
  report.write();
  return 0;
}
