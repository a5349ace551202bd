// Byte-identity pin for the telemetry writers.
//
// The NDJSON, JSON and CSV bytes of a small two-tenant mix, at a fixed
// epoch and at --epoch auto, and of a checkpoint-restored NDJSON run are
// committed under telemetry_pin/. They were written by the map-diff epoch
// path (a string-keyed StatSet per epoch, diffed by name) that the interned
// epochs replaced (DESIGN.md section 14), over the same simulation, so the
// interned writers must reproduce them byte for byte. Every NDJSON stream
// also goes through scripts/check_telemetry.py.
//
// The series carry the run loop's own economics (sys.ticks_executed,
// sys.cycles_skipped, gauge.skip_pct), so a change to the wake hints moves
// them too. Regenerate only for such a change, after checking that no
// other key moved:
//   REDCACHE_UPDATE_TELEMETRY_PIN=1 ./build/tests/obs/obs_tests
//     --gtest_filter='TelemetryPin.*'
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "sim/runner.hpp"

namespace redcache {
namespace {

namespace fs = std::filesystem;

bool Regenerating() {
  const char* env = std::getenv("REDCACHE_UPDATE_TELEMETRY_PIN");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

RunSpec MixCell() {
  RunSpec spec;
  spec.policy = "RedCache";
  spec.mix = tenant::MixSpec::Parse("LU:1,RDX:1");
  spec.scale = 0.01;
  spec.ignore_env_scale = true;
  spec.preset = EvalPreset();
  return spec;
}

class TelemetryPin : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("redcache_telemetry_pin_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs `spec` writing its series to `name` and compares the bytes with
  /// the pinned file of that name (or rewrites the pin when regenerating).
  void RunAndCompare(RunSpec spec, const std::string& name) {
    spec.telemetry_path = (dir_ / name).string();
    const RunResult r = RunOne(spec);
    ASSERT_TRUE(r.completed) << name;
    const std::string produced = ReadFile(spec.telemetry_path);
    ASSERT_FALSE(produced.empty()) << name;
    const fs::path pin = fs::path(REDCACHE_TELEMETRY_PIN_DIR) / name;
    if (Regenerating()) {
      std::ofstream(pin, std::ios::binary) << produced;
      std::printf("wrote %s\n", pin.c_str());
    } else {
      EXPECT_TRUE(produced == ReadFile(pin))
          << name << " differs from its pinned bytes " << pin;
    }
    if (name.size() > 7 && name.compare(name.size() - 7, 7, ".ndjson") == 0) {
      const std::string cmd = "python3 " REDCACHE_CHECK_TELEMETRY " " +
                              spec.telemetry_path + " > /dev/null";
      EXPECT_EQ(std::system(cmd.c_str()), 0)
          << "scripts/check_telemetry.py rejected " << name;
    }
  }

  fs::path dir_;
};

TEST_F(TelemetryPin, FixedEpochMix) {
  RunSpec spec = MixCell();
  spec.epoch.cycles = 100000;
  for (const char* ext : {"ndjson", "json", "csv"}) {
    RunAndCompare(spec, std::string("mix_fixed.") + ext);
  }
}

TEST_F(TelemetryPin, AdaptiveEpochMix) {
  RunSpec spec = MixCell();
  ASSERT_TRUE(obs::ParseEpochSpec("auto", spec.epoch));
  for (const char* ext : {"ndjson", "json", "csv"}) {
    RunAndCompare(spec, std::string("mix_auto.") + ext);
  }
}

TEST_F(TelemetryPin, RestoreSeededNdjson) {
  RunSpec first = MixCell();
  first.checkpoint_path = (dir_ / "mix.ckpt").string();
  first.checkpoint_at = 150000;
  ASSERT_TRUE(RunOne(first).completed);

  RunSpec resumed = MixCell();
  resumed.restore_path = first.checkpoint_path;
  resumed.epoch.cycles = 100000;
  RunAndCompare(resumed, "mix_restored.ndjson");
}

}  // namespace
}  // namespace redcache
