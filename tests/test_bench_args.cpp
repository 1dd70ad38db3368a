// End-to-end tests for the shared bench flag parser (bench/bench_util.hpp):
// a flag the parser does not know, or a valued flag with no value, must stop
// the bench with exit status 2 and a message naming the argument instead of
// being silently dropped.
//
// The bench binary path is injected by CMake as C4H_BENCH_BIN.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct BenchRun {
  int exit_code;
  std::string output;
};

BenchRun run_bench(const std::string& args) {
  const std::string cmd = std::string(C4H_BENCH_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  BenchRun run{-1, {}};
  if (pipe == nullptr) return run;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    run.output.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

}  // namespace

TEST(BenchArgs, UnknownFlagExitsWithStatus2) {
  // No bench knows --net-model: the network has one flow solver.
  const BenchRun r = run_bench("--net-model global");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--net-model: unknown argument"), std::string::npos) << r.output;
}

TEST(BenchArgs, ValuedFlagWithoutValueExitsWithStatus2) {
  const BenchRun r = run_bench("--quick --seed");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--seed: needs a value"), std::string::npos) << r.output;
}
