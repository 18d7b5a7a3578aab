// Ablation — conntrack fast path vs rule-scan slow path.
//
// Replays a fixed packet sequence through our netfilter implementation and
// reports the *simulated* per-packet cost each path charges: a fresh tuple
// (conntrack miss, full NAT rule scan), an established flow (hash hit) and
// a FORWARD chain scan over N standing rules.  This quantifies why the NAT
// baseline depends so heavily on connection reuse: every new flow pays the
// rule scan, established flows pay only the lookup.
#include <cstdio>

#include "bench_args.hpp"
#include "json_report.hpp"
#include "net/netfilter.hpp"

namespace {

using namespace nestv;
using namespace nestv::net;

const sim::CostModel kCosts{};

Packet flow_packet(std::uint32_t i) {
  Packet p;
  p.src_ip = Ipv4Address(172, 17, (i >> 8) & 0xff, i & 0xff);
  p.dst_ip = Ipv4Address(10, 0, 0, 1);
  p.proto = L4Proto::kTcp;
  p.src_port = static_cast<std::uint16_t>(1024 + (i % 60000));
  p.dst_port = 80;
  return p;
}

void setup_rules(Netfilter& nf, int standing_rules) {
  nf.install_standing_rules(standing_rules);
  Rule masq;
  masq.match.src = Ipv4Cidr(Ipv4Address(172, 16, 0, 0), 12);
  masq.target = TargetKind::kMasquerade;
  masq.nat_ip = Ipv4Address(192, 168, 0, 5);
  nf.nat_chain(Hook::kPostrouting).rules.push_back(masq);
}

double sim_ns_miss(int standing_rules, std::uint32_t packets) {
  Netfilter nf(kCosts);
  setup_rules(nf, standing_rules);
  std::uint64_t sim_cost = 0;
  for (std::uint32_t i = 0; i < packets; ++i) {
    Packet p = flow_packet(i);
    sim_cost += nf.run_hook(Hook::kPrerouting, p, "docker0", "", i).cost;
    sim_cost += nf.run_hook(Hook::kPostrouting, p, "docker0", "eth0", i).cost;
  }
  return static_cast<double>(sim_cost) / packets;
}

double sim_ns_forward_scan(int standing_rules, std::uint32_t packets) {
  Netfilter nf(kCosts);
  nf.install_standing_rules(standing_rules);
  std::uint64_t sim_cost = 0;
  for (std::uint32_t i = 0; i < packets; ++i) {
    Packet p = flow_packet(7);
    sim_cost += nf.run_hook(Hook::kForward, p, "eth0", "", 0).cost;
  }
  return static_cast<double>(sim_cost) / packets;
}

double sim_ns_hit(int standing_rules, std::uint32_t packets) {
  Netfilter nf(kCosts);
  setup_rules(nf, standing_rules);
  Packet first = flow_packet(1);
  nf.run_hook(Hook::kPrerouting, first, "docker0", "", 0);
  nf.run_hook(Hook::kPostrouting, first, "docker0", "eth0", 0);
  std::uint64_t sim_cost = 0;
  for (std::uint32_t i = 1; i <= packets; ++i) {
    Packet p = flow_packet(1);
    sim_cost += nf.run_hook(Hook::kPrerouting, p, "docker0", "", i).cost;
    sim_cost += nf.run_hook(Hook::kPostrouting, p, "docker0", "eth0", i).cost;
  }
  return static_cast<double>(sim_cost) / packets;
}

}  // namespace

int main(int argc, char** argv) {
  // The replays are closed-form; the seed is reported only.
  const auto seed = nestv::bench::parse_args(argc, argv).seed;
  // The simulated per-packet charges are deterministic; report them for
  // the standing-rule counts the figures use.
  nestv::bench::JsonReport report("abl_conntrack", seed);
  const double miss6 = sim_ns_miss(6, 4096);
  const double hit6 = sim_ns_hit(6, 4096);
  const double scan6 = sim_ns_forward_scan(6, 4096);
  const double scan128 = sim_ns_forward_scan(128, 4096);
  std::printf("ablation: conntrack hit vs miss (simulated ns/packet)\n");
  std::printf("  NAT miss, 6 standing rules      %8.1f\n", miss6);
  std::printf("  NAT hit, 6 standing rules       %8.1f  (miss/hit %.2fx)\n",
              hit6, miss6 / hit6);
  std::printf("  FORWARD scan, 6 rules           %8.1f\n", scan6);
  std::printf("  FORWARD scan, 128 rules         %8.1f\n", scan128);
  report.add("sim_ns_per_pkt_miss_6rules", miss6);
  report.add("sim_ns_per_pkt_hit_6rules", hit6);
  report.add("miss_over_hit_ratio_6rules", miss6 / hit6);
  report.add("sim_ns_per_pkt_forward_scan_6rules", scan6);
  report.add("sim_ns_per_pkt_forward_scan_128rules", scan128);
  report.write();
  return 0;
}
