// Figs 11-13 — "Hostlo overhead: macro-benchmarks": Memcached throughput
// (fig 11) and latency (fig 12), and NGINX latency (fig 13), for intra-pod
// traffic under SameNode / Hostlo / NAT / Overlay.
// Paper: Hostlo unexpectedly reaches SameNode's Memcached levels (SameNode
// shows extreme latency variability); NGINX: Hostlo +49.4% latency vs
// SameNode but much better than NAT and Overlay.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace nestv;
  const auto seed = bench::parse_args(argc, argv).seed;
  const scenario::CrossVmMode modes[] = {
      scenario::CrossVmMode::kSameNode, scenario::CrossVmMode::kHostlo,
      scenario::CrossVmMode::kNatCrossVm, scenario::CrossVmMode::kOverlay};

  std::printf("figs 11-13: Hostlo macro-benchmarks (intra-pod traffic)\n");

  double nginx_lat[4] = {0, 0, 0, 0};
  double mc_lat[4] = {0, 0, 0, 0};
  for (const auto app :
       {bench::MacroApp::kMemcached, bench::MacroApp::kNginx}) {
    std::printf("%-10s %-9s | %12s | %10s %10s %10s\n", "app", "mode",
                "ops/s", "lat us", "stddev", "p99 us");
    int mi = 0;
    for (const auto mode : modes) {
      scenario::TestbedConfig config;
      config.seed = seed;
      auto s = scenario::make_cross_vm(mode, 7100, config);
      const auto r =
          bench::run_macro(s, app, 7100, seed, sim::milliseconds(250));
      std::printf("%-10s %-9s | %12.0f | %10.1f %10.1f %10.1f\n",
                  to_string(app), to_string(mode), r.load.ops_per_sec,
                  r.load.mean_latency_us, r.load.stddev_latency_us,
                  r.load.p99_latency_us);
      if (app == bench::MacroApp::kNginx) nginx_lat[mi] = r.load.mean_latency_us;
      if (app == bench::MacroApp::kMemcached) mc_lat[mi] = r.load.mean_latency_us;
      ++mi;
    }
    std::printf("\n");
  }
  std::printf("nginx: Hostlo latency vs SameNode %+.1f%% [paper +49.4%%]; "
              "Hostlo vs NAT %+.1f%%, vs Overlay %+.1f%% (paper: much "
              "better than both)\n",
              100.0 * (nginx_lat[1] / nginx_lat[0] - 1.0),
              100.0 * (nginx_lat[1] / nginx_lat[2] - 1.0),
              100.0 * (nginx_lat[1] / nginx_lat[3] - 1.0));
  std::printf("memcached: Hostlo latency vs SameNode %+.1f%% (paper: "
              "reaches SameNode's level)\n",
              100.0 * (mc_lat[1] / mc_lat[0] - 1.0));
  bench::JsonReport report("fig11_13_hostlo_macro", seed);
  report.add("nginx_hostlo_vs_samenode_latency_pct",
             100.0 * (nginx_lat[1] / nginx_lat[0] - 1.0), 49.4);
  report.add("nginx_hostlo_vs_nat_latency_pct",
             100.0 * (nginx_lat[1] / nginx_lat[2] - 1.0));
  report.add("nginx_hostlo_vs_overlay_latency_pct",
             100.0 * (nginx_lat[1] / nginx_lat[3] - 1.0));
  report.add("memcached_hostlo_vs_samenode_latency_pct",
             100.0 * (mc_lat[1] / mc_lat[0] - 1.0));
  report.write();
  return 0;
}
