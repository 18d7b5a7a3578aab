// Fig 5 — "BrFusion performance gain: macro-benchmarks": Memcached
// (responses/s + latency), NGINX (latency) and Kafka (latency) under
// NoCont / NAT / BrFusion, with the table 1 parameters.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace nestv;
  const auto seed = bench::parse_args(argc, argv).seed;
  const scenario::ServerMode modes[] = {scenario::ServerMode::kNoCont,
                                        scenario::ServerMode::kNat,
                                        scenario::ServerMode::kBrFusion};
  const bench::MacroApp apps[] = {bench::MacroApp::kMemcached,
                                  bench::MacroApp::kNginx,
                                  bench::MacroApp::kKafka};

  std::printf("fig 5: BrFusion macro-benchmarks (table 1 parameters)\n");
  std::printf("%-10s %-9s | %12s | %10s %10s %10s\n", "app", "mode", "ops/s",
              "lat us", "stddev", "p99 us");

  double kafka_lat[3] = {0, 0, 0};
  double nginx_lat[3] = {0, 0, 0};
  for (const auto app : apps) {
    int mi = 0;
    for (const auto mode : modes) {
      scenario::TestbedConfig config;
      config.seed = seed;
      auto s = scenario::make_single_server(mode, 7000, config);
      const auto r =
          bench::run_macro(s, app, 7000, seed, sim::milliseconds(250));
      std::printf("%-10s %-9s | %12.0f | %10.1f %10.1f %10.1f\n",
                  to_string(app), to_string(mode), r.load.ops_per_sec,
                  r.load.mean_latency_us, r.load.stddev_latency_us,
                  r.load.p99_latency_us);
      if (app == bench::MacroApp::kKafka) kafka_lat[mi] = r.load.mean_latency_us;
      if (app == bench::MacroApp::kNginx) nginx_lat[mi] = r.load.mean_latency_us;
      ++mi;
    }
    std::printf("\n");
  }
  // Index 0=NoCont, 1=NAT, 2=BrFusion.
  std::printf(
      "kafka: BrFusion latency vs NAT %+.1f%% (paper: -11.8%%), vs NoCont "
      "%+.1f%% (paper: +13.1%%)\n",
      100.0 * (kafka_lat[2] / kafka_lat[1] - 1.0),
      100.0 * (kafka_lat[2] / kafka_lat[0] - 1.0));
  std::printf(
      "nginx: BrFusion latency vs NAT %+.1f%% (paper: -30.1%%); large "
      "stdev expected for both (app-level noise)\n",
      100.0 * (nginx_lat[2] / nginx_lat[1] - 1.0));
  bench::JsonReport report("fig05_brfusion_macro", seed);
  report.add("kafka_brfusion_vs_nat_latency_pct",
             100.0 * (kafka_lat[2] / kafka_lat[1] - 1.0), -11.8);
  report.add("kafka_brfusion_vs_nocont_latency_pct",
             100.0 * (kafka_lat[2] / kafka_lat[0] - 1.0), 13.1);
  report.add("nginx_brfusion_vs_nat_latency_pct",
             100.0 * (nginx_lat[2] / nginx_lat[1] - 1.0), -30.1);
  report.write();
  return 0;
}
