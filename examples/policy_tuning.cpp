// Policy tuning: sweep static alpha / gamma settings against the adaptive
// controller on one workload — the experiment an architect would run before
// taping out threshold registers.
//
//   ./build/examples/policy_tuning [workload] [scale]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/table.hpp"
#include "dramcache/redcache.hpp"
#include "sim/runner.hpp"

namespace {

using namespace redcache;

RunResult RunWithOptions(const std::string& workload, double scale,
                         const RedCacheOptions& opt) {
  const SimPreset preset = EvalPreset();
  WorkloadBuildParams wp;
  wp.num_cores = preset.hierarchy.num_cores;
  wp.scale = EffectiveScale(scale);
  auto trace = MakeWorkload(workload, wp);
  auto ctrl =
      std::make_unique<RedCacheController>(preset.mem, opt, 1, "tuned");
  System system(preset.hierarchy, preset.core, std::move(ctrl),
                std::move(trace));
  return system.Run();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace redcache;

  const std::string workload = argc > 1 ? argv[1] : "LU";
  const double scale = argc > 2 ? std::atof(argv[2]) : 1.0;

  std::printf("Policy tuning on %s (scale %.2f)\n\n", workload.c_str(),
              scale);

  TextTable table({"policy", "exec (Mcycles)", "HBM hit rate",
                   "alpha bypasses", "gamma invalidations", "final a/g"});

  auto report = [&](const char* name, const RedCacheOptions& opt) {
    const RunResult r = RunWithOptions(workload, scale, opt);
    const auto hits = r.stats.GetCounter("ctrl.cache_hits");
    const auto misses = r.stats.GetCounter("ctrl.cache_misses");
    table.AddRow({
        name,
        TextTable::Num(static_cast<double>(r.exec_cycles) / 1e6, 1),
        TextTable::Pct(hits + misses == 0
                           ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(hits + misses)),
        std::to_string(r.stats.GetCounter("ctrl.alpha_bypasses")),
        std::to_string(r.stats.GetCounter("ctrl.gamma_invalidations")),
        std::to_string(r.stats.GetCounter("ctrl.alpha_value")) + "/" +
            std::to_string(r.stats.GetCounter("ctrl.gamma_value")),
    });
  };

  for (std::uint32_t alpha = 1; alpha <= 3; ++alpha) {
    RedCacheOptions opt = RedCacheOptions::Full();
    opt.alpha.initial_alpha = alpha;
    opt.alpha.adaptive = false;
    char name[32];
    std::snprintf(name, sizeof(name), "static alpha=%u", alpha);
    report(name, opt);
  }
  for (std::uint32_t gamma : {4u, 16u, 64u}) {
    RedCacheOptions opt = RedCacheOptions::Full();
    opt.gamma.initial_gamma = gamma;
    opt.gamma.min_gamma = gamma;
    opt.gamma.max_gamma = gamma;
    char name[32];
    std::snprintf(name, sizeof(name), "static gamma=%u", gamma);
    report(name, opt);
  }
  report("adaptive (default)", RedCacheOptions::Full());

  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "The adaptive controller should land near the best static setting\n"
      "without knowing the workload in advance — that is the point of\n"
      "run-time alpha/gamma tuning.\n");
  return 0;
}
