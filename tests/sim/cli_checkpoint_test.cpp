// Tests that drive the real CLI binary.
//
// Fresh-process checkpoint differential: the acceptance-critical variant
// of the round-trip tests runs the real CLI binary twice — one process
// writes the checkpoint, a second process restores it — and requires the
// full --stats dumps to be byte-identical. This proves the blob carries
// everything across a process boundary (no in-process state leaks into
// the result).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace redcache {
namespace {

#ifndef REDCACHE_CLI_PATH
#error "REDCACHE_CLI_PATH must point at the redcache_cli binary"
#endif

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int RunCli(const std::string& args, const std::string& stdout_path) {
  const std::string cmd = std::string(REDCACHE_CLI_PATH) + " " + args + " > " +
                          stdout_path + " 2>&1";
  return std::system(cmd.c_str());
}

TEST(CliCheckpoint, FreshProcessRestoreIsByteIdentical) {
  char tmpl[] = "/tmp/redcache_cli_ckpt_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string blob = dir + "/mid.ckpt";
  const std::string out_a = dir + "/capture.txt";
  const std::string out_b = dir + "/restored.txt";
  const std::string common =
      "--policy RedCache --workload RDX --scale 0.02 --seed 7 --stats";

  ASSERT_EQ(RunCli(common + " --checkpoint " + blob + " --checkpoint-at "
                       "100000",
                   out_a),
            0)
      << ReadAll(out_a);
  {
    std::ifstream in(blob, std::ios::binary);
    ASSERT_TRUE(in.good()) << "checkpoint blob was not written";
  }

  ASSERT_EQ(RunCli(common + " --restore " + blob, out_b), 0)
      << ReadAll(out_b);

  const std::string a = ReadAll(out_a);
  const std::string b = ReadAll(out_b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "restored process output diverged from the "
                     "checkpointing process";

  std::remove(blob.c_str());
  std::remove(out_a.c_str());
  std::remove(out_b.c_str());
  ::rmdir(dir.c_str());
}

TEST(CliCheckpoint, RestoreWithMismatchedSpecFails) {
  char tmpl[] = "/tmp/redcache_cli_ckptbad_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string blob = dir + "/mid.ckpt";
  const std::string out = dir + "/out.txt";

  ASSERT_EQ(RunCli("--policy RedCache --workload RDX --scale 0.02 --seed 7 "
                   "--checkpoint " +
                       blob + " --checkpoint-at 100000",
                   out),
            0)
      << ReadAll(out);
  // Different seed => different spec key: the restore must refuse.
  EXPECT_NE(RunCli("--policy RedCache --workload RDX --scale 0.02 --seed 8 "
                   "--restore " +
                       blob,
                   out),
            0);
  EXPECT_NE(ReadAll(out).find("different run configuration"),
            std::string::npos);

  std::remove(blob.c_str());
  std::remove(out.c_str());
  ::rmdir(dir.c_str());
}

TEST(CliCheckpoint, SampledRunReportsConfidenceInterval) {
  char tmpl[] = "/tmp/redcache_cli_sample_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string out = dir + "/out.txt";
  const std::string report = dir + "/report.json";

  ASSERT_EQ(RunCli("--policy RedCache --workload RDX --scale 0.02 "
                   "--sample 0.1:20000 --report " +
                       report,
                   out),
            0)
      << ReadAll(out);
  const std::string text = ReadAll(out);
  EXPECT_NE(text.find("sampled"), std::string::npos) << text;
  EXPECT_NE(text.find("95% CI"), std::string::npos) << text;
  const std::string rep = ReadAll(report);
  EXPECT_NE(rep.find("\"sampled\":true"), std::string::npos) << rep;
  EXPECT_NE(rep.find("\"sampling_ci_pct\""), std::string::npos) << rep;

  std::remove(out.c_str());
  std::remove(report.c_str());
  ::rmdir(dir.c_str());
}

// The --ways flag and the registered N-way policy build the same
// controller, so their full stats dumps (summary line included) agree.
TEST(CliPolicy, WaysFlagMatchesRegisteredNWayPolicy) {
  char tmpl[] = "/tmp/redcache_cli_ways_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string out_a = dir + "/policy.txt";
  const std::string out_b = dir + "/ways.txt";
  const std::string common = " --workload LU --scale 0.05 --stats";

  ASSERT_EQ(RunCli("--policy RedCache-4way" + common, out_a), 0)
      << ReadAll(out_a);
  ASSERT_EQ(RunCli("--policy RedCache --ways 4" + common, out_b), 0)
      << ReadAll(out_b);
  const std::string a = ReadAll(out_a);
  EXPECT_NE(a.find("ctrl.non_mru_hits"), std::string::npos) << a;
  EXPECT_EQ(a, ReadAll(out_b));

  std::remove(out_a.c_str());
  std::remove(out_b.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace redcache
