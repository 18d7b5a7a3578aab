// Fig 9 — "Relative cost savings frequency": per-user VM cost under
// vanilla Kubernetes (whole-pod placement) vs Hostlo (cross-VM pods), over
// the 492-user synthetic Google-like trace, priced with the table 2 AWS m5
// catalog.  Paper headline: ~11.4% of users save; 66.7% of those save >5%;
// max relative saving ~40%.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "orch/scheduler.hpp"
#include "sim/stats.hpp"
#include "trace/google_trace.hpp"

int main(int argc, char** argv) {
  using namespace nestv;
  const auto seed = bench::parse_args(argc, argv).seed;

  trace::TraceConfig tc;
  tc.seed = seed == 42 ? 2019 : seed;  // default reproduces EXPERIMENTS.md
  const auto users = trace::generate_google_like_trace(tc);
  const auto stats = trace::summarize(users);
  std::printf(
      "fig 9: Hostlo cost savings over %d users (%llu pods, %llu "
      "containers)\n",
      stats.users, static_cast<unsigned long long>(stats.pods),
      static_cast<unsigned long long>(stats.containers));

  orch::AwsM5Catalog catalog;
  orch::KubernetesScheduler k8s(catalog);
  orch::HostloRescheduler hostlo(catalog);

  std::vector<orch::SavingsRecord> records;
  for (const auto& u : users) {
    const auto base = k8s.schedule(u);
    const auto improved = hostlo.improve(u, base);
    records.push_back(
        {u.user_id, base.cost_per_hour(), improved.cost_per_hour()});
  }

  sim::Histogram hist(0.0, 0.55, 11);
  int savers = 0, savers5 = 0;
  double max_rel = 0.0, max_abs = 0.0, max_abs_rel = 0.0;
  double total_k8s = 0.0, total_hostlo = 0.0;
  for (const auto& r : records) {
    total_k8s += r.k8s_cost;
    total_hostlo += r.hostlo_cost;
    if (r.absolute_saving() > 1e-9) {
      ++savers;
      hist.add(r.relative_saving());
      if (r.relative_saving() > 0.05) ++savers5;
      if (r.relative_saving() > max_rel) max_rel = r.relative_saving();
      if (r.absolute_saving() > max_abs) {
        max_abs = r.absolute_saving();
        max_abs_rel = r.relative_saving();
      }
    }
  }

  std::printf("\nrelative savings histogram (savers only):\n%s\n",
              hist.render(40).c_str());
  std::printf("users saving           : %d / %zu (%.1f%%)  [paper: 11.4%%]\n",
              savers, records.size(),
              100.0 * savers / static_cast<double>(records.size()));
  std::printf("of which saving > 5%%  : %.1f%%            [paper: 66.7%%]\n",
              savers ? 100.0 * savers5 / savers : 0.0);
  std::printf("max relative saving    : %.1f%%            [paper: ~40%%]\n",
              100.0 * max_rel);
  std::printf("max absolute saving    : $%.2f/h (%.1f%% of that user's "
              "bill)  [paper: $237 ~ 35%%]\n",
              max_abs, 100.0 * max_abs_rel);
  std::printf("fleet-wide             : $%.2f/h -> $%.2f/h (-%.1f%%)\n",
              total_k8s, total_hostlo,
              100.0 * (1.0 - total_hostlo / total_k8s));
  bench::JsonReport report("fig09_cost_savings", seed);
  report.add("users_saving_pct",
             100.0 * savers / static_cast<double>(records.size()), 11.4);
  report.add("savers_above_5pct_pct",
             savers ? 100.0 * savers5 / savers : 0.0, 66.7);
  report.add("max_relative_saving_pct", 100.0 * max_rel, 40.0);
  report.add("max_absolute_saving_usd_per_hour", max_abs);
  report.add("fleet_saving_pct",
             100.0 * (1.0 - total_hostlo / total_k8s));
  report.write();
  return 0;
}
