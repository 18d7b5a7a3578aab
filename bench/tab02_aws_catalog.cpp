// Table 2 — "AWS EC2 VM m5 models used to simulate Hostlo money savings":
// prints the catalog and validates the published relative-size columns
// against the vCPU/memory columns.
#include <cmath>
#include <cstdio>

#include "bench_args.hpp"
#include "json_report.hpp"
#include "orch/pricing.hpp"

int main(int argc, char** argv) {
  using namespace nestv::orch;
  const auto seed = nestv::bench::parse_args(argc, argv).seed;
  AwsM5Catalog catalog;

  std::printf("table 2: AWS EC2 m5 on-demand models\n");
  std::printf("%-14s %6s %8s %12s %12s %10s\n", "model", "vCPU", "mem GB",
              "vCPU (rel.)", "mem (rel.)", "$/h");
  bool consistent = true;
  const auto& largest = catalog.largest();
  for (const auto& m : catalog.models()) {
    std::printf("%-14s %6d %8d %12.4f %12.4f %10.3f\n", m.name.c_str(),
                m.vcpus, m.memory_gb, m.cpu_rel, m.mem_rel,
                m.price_per_hour);
    // The relative columns must match vcpus/96 and mem/384 to the table's
    // printed precision (4 decimals).
    const double cpu_expect =
        static_cast<double>(m.vcpus) / largest.vcpus;
    const double mem_expect =
        static_cast<double>(m.memory_gb) / largest.memory_gb;
    if (std::abs(m.cpu_rel - cpu_expect) > 5e-5 ||
        std::abs(m.mem_rel - mem_expect) > 5e-5) {
      consistent = false;
    }
  }
  std::printf("\nrelative columns consistent with absolute specs: %s\n",
              consistent ? "yes" : "NO");
  nestv::bench::JsonReport report("tab02_aws_catalog", seed);
  report.add("catalog_models", static_cast<double>(catalog.models().size()));
  report.add("relative_columns_consistent", consistent ? 1.0 : 0.0, 1.0);
  report.write();
  return consistent ? 0 : 1;
}
