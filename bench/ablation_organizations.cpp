// Organization ablation (extension): how RedCache's mechanisms interact
// with cache organization — direct-mapped (the paper's design) vs 2-/4-way
// set-associative, and against the coarse-grained footprint cache that the
// paper's introduction argues fails for these workloads.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace redcache;
  using namespace redcache::bench;

  std::printf("Organization ablation — RedCache mechanisms across cache\n");
  std::printf("organizations (not a paper figure; extension study)\n\n");

  const std::vector<std::string> workloads = {"FT", "LU"};
  const std::vector<std::string> orgs = {"RedCache", "RedCache-2way",
                                         "RedCache-4way", "Footprint-2KB"};
  RunCellsAhead(GridCells(orgs, workloads), "organizations");
  TextTable table({"workload", "direct-mapped", "2-way", "4-way",
                   "footprint 2KB", "(exec cycles normalized to DM)"});
  for (const std::string& wl : workloads) {
    const double base = static_cast<double>(RunCell(orgs[0], wl).exec_cycles);
    std::vector<std::string> row = {wl};
    for (const std::string& org : orgs) {
      row.push_back(TextTable::Num(
          static_cast<double>(RunCell(org, wl).exec_cycles) / base, 3));
    }
    row.push_back("");
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "expected: modest associativity gains (alpha already removes most\n"
      "conflict pressure); the coarse-grained footprint cache trails on\n"
      "these fine-grained workloads — the paper's premise.\n");
  return 0;
}
