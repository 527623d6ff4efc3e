// End-to-end smoke tests of the `fastchgnet` CLI binary: every subcommand
// must run to completion with exit code 0 and produce its expected output
// markers; unknown commands and bad inputs must fail cleanly.
// The binary path is injected by CMake as FASTCHG_CLI_PATH.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <string>

namespace {

#ifndef FASTCHG_CLI_PATH
#define FASTCHG_CLI_PATH "fastchgnet"
#endif

struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult run_cli(const std::string& args) {
  const std::string cmd = std::string(FASTCHG_CLI_PATH) + " " + args + " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  CliResult res;
  if (pipe == nullptr) return res;
  std::array<char, 512> buf{};
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    res.output += buf.data();
  }
  const int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

TEST(Cli, InfoRunsAndReportsParams) {
  CliResult r = run_cli("info");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("FastCHGNet"), std::string::npos);
  EXPECT_NE(r.output.find("params"), std::string::npos);
}

TEST(Cli, GenerateReportsDistribution) {
  CliResult r = run_cli("generate --n 32 --seed 5");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("mean atoms"), std::string::npos);
  EXPECT_NE(r.output.find("long tail"), std::string::npos);
}

TEST(Cli, TrainTinyRunEmitsMetrics) {
  CliResult r = run_cli("train --n 24 --epochs 1 --width 8 --radial 5 "
                        "--layers 1 --batch 8");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("test MAE"), std::string::npos);
  EXPECT_NE(r.output.find("meV/atom"), std::string::npos);
}

TEST(Cli, MdRunsSteps) {
  CliResult r = run_cli("md --crystal LiMnO2 --steps 5 --width 8 --radial 5 "
                        "--layers 1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("E_tot(eV)"), std::string::npos);
  EXPECT_NE(r.output.find("g(r) peak"), std::string::npos);
}

TEST(Cli, ChargesReportNeutrality) {
  CliResult r = run_cli("charges --seed 3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("oxidation"), std::string::npos);
  EXPECT_NE(r.output.find("total charge"), std::string::npos);
}

TEST(Cli, UnknownCommandFailsWithUsage) {
  CliResult r = run_cli("frobnicate");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

// A flag the subcommand does not read is an error, not silently ignored:
// usage text naming the flag, exit code 2.
// An elastic shrink and rejoin print their charged costs in ms: at the
// CLI's model size they are sub-millisecond, which a seconds field would
// round to 0.00.
TEST(Cli, DpElasticTransitionsPrintNonZeroCosts) {
  CliResult r = run_cli("dp --devices 8 --n 192 --batch 16 --epochs 2 "
                        "--width 12 --layers 1 "
                        "--fault-plan \"fail:2@5,join:2@9\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("failed: 2  recovery "), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("joined: 2  join "), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("recovery 0.00"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("join 0.00"), std::string::npos) << r.output;
}

TEST(Cli, UnknownFlagFailsWithUsage) {
  for (const std::string flag : {"--shards 4", "--batch-workers 2"}) {
    CliResult r = run_cli("serve " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << flag;
    const std::string name = flag.substr(0, flag.find(' '));
    EXPECT_NE(r.output.find("unknown flag " + name), std::string::npos)
        << r.output;
  }
}

// The engine has no int8 replica, so serve must reject --quantize and
// --strict loudly: a script passing them would otherwise believe it got one.
TEST(Cli, RemovedServeFlagsAreUnknown) {
  for (const std::string flag : {"--quantize", "--strict"}) {
    CliResult r = run_cli("serve --requests 4 " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown flag " + flag), std::string::npos)
        << r.output;
  }
}

// `trace <target>` checks the target's flags plus its own before running
// anything: an unknown flag exits 2 with usage and writes no trace file.
TEST(Cli, TraceUnknownFlagFailsBeforeRunning) {
  const std::filesystem::path out =
      std::filesystem::temp_directory_path() /
      ("fastchg_cli_trace_reject_" + std::to_string(::getpid()) + ".json");
  std::filesystem::remove(out);
  CliResult r = run_cli("trace dp --devices 2 --bogus 1 --trace-out " +
                        out.string());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("unknown flag --bogus for 'trace dp'"),
            std::string::npos)
      << r.output;
  EXPECT_FALSE(std::filesystem::exists(out));
  std::filesystem::remove(out);
}

TEST(Cli, BadCrystalNameFailsCleanly) {
  CliResult r = run_cli("md --crystal NotACrystal --steps 1");
  EXPECT_EQ(r.exit_code, 2);  // fastchg::Error path
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

}  // namespace
