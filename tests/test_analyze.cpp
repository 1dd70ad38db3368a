// End-to-end tests for tools/c4h-analyze: every rule (R1–R5 token-level
// bans, A1–A4 coroutine lifetime, D1–D3 determinism taint) has a seeded
// true-positive fixture that must produce exactly the expected findings and a
// near-miss true-negative fixture that must come up clean. On top of the
// per-rule pairs: cross-file symbol-index resolution, suppression comments,
// --rules filtering and validation, the baseline workflow (write, match,
// stale-entry warning, new-finding failure), and the invariant CI enforces —
// the real tree analyzes clean against the checked-in baseline.
//
// The analyzer binary, fixture directory, and analyzed tree are injected by
// CMake as compile definitions (C4H_ANALYZE_BIN, C4H_ANALYZE_FIXDIR,
// C4H_SOURCE_DIR, C4H_ANALYZED_TREE).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

namespace {

struct AnalyzeRun {
  int exit_code;
  std::string output;  // stdout + stderr interleaved

  bool contains(const std::string& needle) const {
    return output.find(needle) != std::string::npos;
  }
  int count(const std::string& needle) const {
    int n = 0;
    for (std::size_t pos = output.find(needle); pos != std::string::npos;
         pos = output.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  }
};

// Runs the analyzer with `args` (fixture names and flags only, so already
// shell-safe) and captures combined output plus exit status.
AnalyzeRun analyze(const std::string& args) {
  const std::string cmd = std::string(C4H_ANALYZE_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  AnalyzeRun run{-1, {}};
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

std::string fixture(const std::string& name) {
  return std::string(C4H_ANALYZE_FIXDIR) + "/" + name;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// The d1_* and d3_* near misses still read a wall clock or walk a hash table,
// which R2/R3 ban outright; tests that need exact dataflow counts on them
// select the A and D families only.
const std::string kDataflowRules = "--rules=A1,A2,A3,A4,D1,D2,D3 ";

// The token-level bans alone, for the `Lint` suite's whole-run checks.
const std::string kBanRules = "--rules=R1,R2,R3,R4,R5 ";

}  // namespace

// ---------------------------------------------------------------- family R
// Suite `Lint`: the token-level bans, run by the same analyzer as the
// dataflow families.

TEST(Lint, R1BadFlagsLoopHeaderAndCompoundAwaits) {
  const AnalyzeRun r = analyze(fixture("r1_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("r1_bad.cpp:8: [R1] co_await of a temporary task inside a loop header"))
      << r.output;
  EXPECT_TRUE(r.contains(
      "r1_bad.cpp:9: [R1] co_await of a temporary task inside a compound subexpression"))
      << r.output;
  EXPECT_EQ(r.count("[R1]"), 2) << r.output;
  EXPECT_TRUE(r.contains("2 finding(s)")) << r.output;
}

TEST(Lint, R1GoodNamedBindingsLintClean) {
  const AnalyzeRun r = analyze(fixture("r1_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.contains("0 finding(s)")) << r.output;
}

TEST(Lint, R2BadFlagsWallClockAndEntropy) {
  const AnalyzeRun r = analyze(fixture("r2_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("r2_bad.cpp:4: [R2] wall-clock/entropy source 'steady_clock'"))
      << r.output;
  EXPECT_TRUE(r.contains("r2_bad.cpp:6: [R2] call to 'time()'")) << r.output;
  EXPECT_TRUE(r.contains("r2_bad.cpp:10: [R2] call to 'rand()'")) << r.output;
  EXPECT_EQ(r.count("[R2]"), 3) << r.output;
}

TEST(Lint, R2GoodVirtualClockAndMemberTimeLintClean) {
  const AnalyzeRun r = analyze(fixture("r2_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Lint, R3BadFlagsRangeForAndIteratorTraversal) {
  const AnalyzeRun r = analyze(fixture("r3_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("r3_bad.cpp:9: [R3] range-for over unordered container 'cells_'"))
      << r.output;
  EXPECT_TRUE(r.contains("r3_bad.cpp:12: [R3] iterator loop over unordered container 'cells_'"))
      << r.output;
  EXPECT_EQ(r.count("[R3]"), 2) << r.output;
}

TEST(Lint, R3GoodSortedSnapshotAndAnnotationLintClean) {
  // Covers both remedies: sorted_keys() wrapping and a comment-only
  // allow(R3) line covering the statement beneath it.
  const AnalyzeRun r = analyze(fixture("r3_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Lint, R4BadFlagsDiscardAndUnannotatedLaunder) {
  const AnalyzeRun r = analyze(fixture("r4_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains(
      "r4_bad.cpp:7: [R4] call to 'flush_metadata' discards its Result/Task return value"))
      << r.output;
  EXPECT_TRUE(r.contains(
      "r4_bad.cpp:8: [R4] (void)-laundered Result/Task call 'replicate_all' lacks an allow"))
      << r.output;
  EXPECT_EQ(r.count("[R4]"), 2) << r.output;
}

TEST(Lint, R4GoodAssignedAwaitedAndAnnotatedLintClean) {
  const AnalyzeRun r = analyze(fixture("r4_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Lint, R3R4SkipNamesDeclaredWithAnotherType) {
  // `d->preload()` calls a void member that shares a coroutine's name, and
  // the range-for walks a std::map member that shares a hash table's name.
  const AnalyzeRun r = analyze(fixture("shadow_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Lint, R3R4StillFlagNamesShadowedOnlyByVariablesOrAuto) {
  const AnalyzeRun r = analyze(fixture("shadow_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("shadow_bad.cpp:12: [R3] range-for over unordered container 'cells_'"))
      << r.output;
  EXPECT_TRUE(
      r.contains("shadow_bad.cpp:23: [R4] call to 'preload' discards its Result/Task return value"))
      << r.output;
  EXPECT_EQ(r.count("[R3]"), 1) << r.output;
  EXPECT_EQ(r.count("[R4]"), 1) << r.output;
}

TEST(Lint, R5BadFlagsMissingPragmaAndNamespace) {
  const AnalyzeRun r = analyze(fixture("r5_bad.hpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("r5_bad.hpp:1: [R5] header is missing #pragma once")) << r.output;
  EXPECT_TRUE(r.contains("r5_bad.hpp:1: [R5] header does not declare anything in namespace c4h"))
      << r.output;
  EXPECT_EQ(r.count("[R5]"), 2) << r.output;
}

TEST(Lint, R5GoodHeaderHygieneLintClean) {
  const AnalyzeRun r = analyze(fixture("r5_good.hpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Lint, RulesFilterRestrictsToSelectedRules) {
  // r1_bad has only R1 violations, so asking for R2 alone must come up empty.
  const AnalyzeRun r = analyze("--rules=R2 " + fixture("r1_bad.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const AnalyzeRun r1 = analyze("--rules=R1 " + fixture("r1_bad.cpp"));
  EXPECT_EQ(r1.exit_code, 1) << r1.output;
  EXPECT_EQ(r1.count("[R1]"), 2) << r1.output;
}

TEST(Lint, UnreadablePathIsAUsageError) {
  // A missing path next to a clean one still fails the run as a usage error
  // rather than linting what it could read and passing.
  const AnalyzeRun r =
      analyze(kBanRules + fixture("r1_good.cpp") + " " + fixture("does_not_exist.cpp"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(Lint, SourceTreeLintsClean) {
  // src/, tests/, and bench/ carry no token-level findings at all, with no
  // baseline to absorb them.
  const std::string root(C4H_SOURCE_DIR);
  const AnalyzeRun r =
      analyze(kBanRules + root + "/src " + root + "/tests " + root + "/bench");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.contains("0 finding(s)")) << r.output;
}

TEST(Analyze, BansStillFlagDataflowNearMisses) {
  // R2/R3 ban a construct; D1/D3 ask where a value flows or what a loop body
  // does. The D1/D3 near misses are clean under D1/D3 but not under the bans.
  const AnalyzeRun r = analyze(fixture("d1_good.cpp") + " " + fixture("d3_good.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("d1_good.cpp:24: [R2] wall-clock/entropy source 'steady_clock'"))
      << r.output;
  EXPECT_TRUE(r.contains("d3_good.cpp:19: [R3] range-for over unordered container 'entries'"))
      << r.output;
  EXPECT_TRUE(r.contains("2 finding(s)")) << r.output;
}

// ---------------------------------------------------------------- family A

TEST(Analyze, A1BadFlagsTemporariesBoundToSpawnedRefParams) {
  const AnalyzeRun r = analyze(fixture("a1_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("a1_bad.cpp:21: [A1] temporary bound to reference parameter 1"))
      << r.output;
  EXPECT_TRUE(r.contains("a1_bad.cpp:22: [A1]")) << r.output;
  EXPECT_TRUE(r.contains("a1_bad.cpp:29: [A1] temporary bound to reference parameter 1 "
                         "of spawned coroutine lambda"))
      << r.output;
  EXPECT_EQ(r.count("[A1]"), 3) << r.output;
}

TEST(Analyze, A1GoodLvaluesMovesAndRunTaskAnalyzeClean) {
  const AnalyzeRun r = analyze(fixture("a1_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.contains("0 finding(s)")) << r.output;
}

TEST(Analyze, A1CrossFileResolvesDeclarationFromHeader) {
  // The spawned callee is only *declared* in a1_decl.hpp; the ref-param shape
  // must come from the symbol index, not the call site's file.
  const AnalyzeRun r = analyze(fixture("a1_decl.hpp") + " " + fixture("a1_cross_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains(
      "a1_cross_bad.cpp:9: [A1] temporary bound to reference parameter 1 of spawned "
      "drain_session"))
      << r.output;
  EXPECT_EQ(r.count("[A1]"), 1) << r.output;
}

TEST(Analyze, A2BadFlagsCapturingCoroutineLambdasInDetachedSpawn) {
  const AnalyzeRun r = analyze(fixture("a2_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("a2_bad.cpp:11: [A2] coroutine lambda with by-reference captures"))
      << r.output;
  EXPECT_TRUE(r.contains("a2_bad.cpp:19: [A2] coroutine lambda with by-value captures"))
      << r.output;
  EXPECT_TRUE(r.contains("a2_bad.cpp:29: [A2] coroutine lambda with `this` captures"))
      << r.output;
  EXPECT_EQ(r.count("[A2]"), 3) << r.output;
}

TEST(Analyze, A2GoodParameterPassingAndSyncDriversAnalyzeClean) {
  // Captures are fine in run_task (synchronous) and in non-coroutine lambdas;
  // the tree's param-passing spawn idiom is the blessed pattern.
  const AnalyzeRun r = analyze(fixture("a2_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Analyze, A3BadFlagsIteratorsHeldAcrossAwait) {
  const AnalyzeRun r = analyze(fixture("a3_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("a3_bad.cpp:18: [A3] iterator 'it' into 'table' used across co_await"))
      << r.output;
  EXPECT_TRUE(
      r.contains("a3_bad.cpp:24: [A3] iterator 'cursor' into 'table' used across co_await"))
      << r.output;
  EXPECT_EQ(r.count("[A3]"), 2) << r.output;
}

TEST(Analyze, A3GoodPreAwaitUseRefindAndEarlyExitBranchAnalyzeClean) {
  // Four near misses: consumed before the await, re-acquired after it, used
  // inside the awaited expression, and an await on an early-co_return branch.
  const AnalyzeRun r = analyze(fixture("a3_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Analyze, A4BadFlagsDetachedTaskOnFunctionLocalObject) {
  const AnalyzeRun r = analyze(fixture("a4_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("a4_bad.cpp:22: [A4] detached task 'p.sample_loop(...)' keeps "
                         "`this` of a function-local object"))
      << r.output;
  EXPECT_EQ(r.count("[A4]"), 1) << r.output;
}

TEST(Analyze, A4GoodMemberLifetimeAndRunTaskAnalyzeClean) {
  const AnalyzeRun r = analyze(fixture("a4_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------- family D

TEST(Analyze, D1BadFlagsWallClockDirectPropagatedAndCrossFunction) {
  const AnalyzeRun r = analyze(fixture("d1_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("d1_bad.cpp:20: [D1]")) << r.output;  // clock -> schedule
  EXPECT_TRUE(r.contains("d1_bad.cpp:26: [D1]")) << r.output;  // via tainted local
  EXPECT_TRUE(r.contains("d1_bad.cpp:30: [D1]")) << r.output;  // via jitter_ms() return
  EXPECT_TRUE(r.contains("d1_bad.cpp:34: [D1] wall-clock/entropy value reaches 'record'"))
      << r.output;
  EXPECT_EQ(r.count("[D1]"), 4) << r.output;
}

TEST(Analyze, D1GoodVirtualClockAndSeededRngAnalyzeClean) {
  const AnalyzeRun r = analyze(kDataflowRules + fixture("d1_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Analyze, D2BadFlagsPointerIdentityIntoStateMetricsAndSchedule) {
  const AnalyzeRun r = analyze(fixture("d2_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("d2_bad.cpp:18: [D2] pointer-identity value reaches 'push_back'"))
      << r.output;
  EXPECT_TRUE(r.contains("d2_bad.cpp:23: [D2] pointer-identity value reaches 'record'"))
      << r.output;
  EXPECT_TRUE(r.contains("d2_bad.cpp:28: [D2] pointer-identity value reaches 'schedule'"))
      << r.output;
  EXPECT_EQ(r.count("[D2]"), 3) << r.output;
}

TEST(Analyze, D2GoodStableIdsAndValueHashesAnalyzeClean) {
  const AnalyzeRun r = analyze(fixture("d2_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Analyze, D3BadFlagsOrderSensitiveBodiesOverUnorderedContainers) {
  const AnalyzeRun r = analyze(fixture("d3_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("d3_bad.cpp:16: [D3]")) << r.output;  // push_back
  EXPECT_TRUE(r.contains("d3_bad.cpp:22: [D3]")) << r.output;  // co_await
  EXPECT_TRUE(r.contains("d3_bad.cpp:28: [D3]")) << r.output;  // record
  EXPECT_EQ(r.count("[D3]"), 3) << r.output;
}

TEST(Analyze, D3GoodCommutativeSortedViewAndOrderedMapAnalyzeClean) {
  const AnalyzeRun r = analyze(kDataflowRules + fixture("d3_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ------------------------------------------------- suppression & filtering

TEST(Analyze, SuppressionCoversInlineAndCommentLineAboveOnly) {
  const AnalyzeRun r = analyze(fixture("suppress.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("suppress.cpp:25: [D1]")) << r.output;
  EXPECT_EQ(r.count("[D1]"), 1) << r.output;  // the two allow()ed sites stay quiet
}

TEST(Analyze, RulesFilterRestrictsToSelectedRules) {
  // d1_bad has only D1 and R2 findings, so asking for A1 alone must come up
  // empty.
  const AnalyzeRun none = analyze("--rules=A1 " + fixture("d1_bad.cpp"));
  EXPECT_EQ(none.exit_code, 0) << none.output;
  const AnalyzeRun d1 = analyze("--rules=D1 " + fixture("d1_bad.cpp"));
  EXPECT_EQ(d1.exit_code, 1) << d1.output;
  EXPECT_EQ(d1.count("[D1]"), 4) << d1.output;
  EXPECT_EQ(d1.count("[R2]"), 0) << d1.output;
}

TEST(Analyze, UnknownOrEmptyRuleIdIsAUsageError) {
  // Ids are case-sensitive; a typo must not silently run no rule and pass.
  for (const std::string bad : {"D9", "d1", "", "R1,,R2"}) {
    const AnalyzeRun r = analyze("--rules=" + bad + " " + fixture("d1_bad.cpp"));
    EXPECT_EQ(r.exit_code, 2) << bad << ": " << r.output;
    EXPECT_EQ(r.count("finding(s)"), 0) << bad << ": " << r.output;
  }
  EXPECT_TRUE(analyze("--rules=D1,D9 " + fixture("d1_bad.cpp")).contains("unknown rule id 'D9'"));
}

TEST(Analyze, UnreadablePathIsAUsageError) {
  const AnalyzeRun r = analyze(fixture("does_not_exist.cpp"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// ------------------------------------------------------- baseline workflow

TEST(Analyze, WriteBaselineThenRecheckAcceptsKnownFindings) {
  const std::string base = temp_path("analyze_baseline_roundtrip.json");
  const AnalyzeRun wrote =
      analyze(kDataflowRules + "--write-baseline=" + base + " " + fixture("d1_bad.cpp"));
  EXPECT_EQ(wrote.exit_code, 0) << wrote.output;
  EXPECT_TRUE(wrote.contains("wrote 4 finding(s)")) << wrote.output;

  const AnalyzeRun check =
      analyze(kDataflowRules + "--baseline=" + base + " " + fixture("d1_bad.cpp"));
  EXPECT_EQ(check.exit_code, 0) << check.output;
  EXPECT_TRUE(check.contains("4 finding(s) (4 baselined, 0 new)")) << check.output;
  std::remove(base.c_str());  // c4h-analyze: allow(R4) — C stdlib remove, returns int
}

TEST(Analyze, NewFindingOnTopOfBaselineStillFails) {
  // Baseline covers d1_bad only; adding d2_bad to the run surfaces its three
  // findings as new and the analyzer must fail.
  const std::string base = temp_path("analyze_baseline_partial.json");
  const AnalyzeRun wrote =
      analyze(kDataflowRules + "--write-baseline=" + base + " " + fixture("d1_bad.cpp"));
  ASSERT_EQ(wrote.exit_code, 0) << wrote.output;

  const AnalyzeRun r = analyze(kDataflowRules + "--baseline=" + base + " " +
                               fixture("d1_bad.cpp") + " " + fixture("d2_bad.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.contains("7 finding(s) (4 baselined, 3 new)")) << r.output;
  EXPECT_EQ(r.count("[D2]"), 3) << r.output;
  EXPECT_EQ(r.count("[D1]"), 0) << r.output;  // baselined findings stay quiet
  std::remove(base.c_str());  // c4h-analyze: allow(R4) — C stdlib remove, returns int
}

TEST(Analyze, StaleBaselineEntryWarnsButDoesNotFail) {
  // Baseline written against d1_bad, then run against the clean d1_good:
  // every entry is stale — warn loudly, exit zero.
  const std::string base = temp_path("analyze_baseline_stale.json");
  const AnalyzeRun wrote =
      analyze(kDataflowRules + "--write-baseline=" + base + " " + fixture("d1_bad.cpp"));
  ASSERT_EQ(wrote.exit_code, 0) << wrote.output;

  const AnalyzeRun r =
      analyze(kDataflowRules + "--baseline=" + base + " " + fixture("d1_good.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.count("warning: stale baseline entry"), 4) << r.output;
  std::remove(base.c_str());  // c4h-analyze: allow(R4) — C stdlib remove, returns int
}

TEST(Analyze, MalformedBaselineIsAnIoError) {
  const std::string base = temp_path("analyze_baseline_malformed.json");
  std::ofstream(base) << "{ not json";
  const AnalyzeRun r = analyze("--baseline=" + base + " " + fixture("d1_good.cpp"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  std::remove(base.c_str());  // c4h-analyze: allow(R4) — C stdlib remove, returns int
}

// ------------------------------------------------------------ tree hygiene

TEST(Analyze, SourceTreeAnalyzesCleanAgainstCheckedInBaseline) {
  // The tree (C4H_ANALYZED_TREE in the top-level CMakeLists.txt) carries no
  // findings under any rule beyond the checked-in baseline. CI enforces the
  // same invariant through the `analyze` target.
  const std::string root(C4H_SOURCE_DIR);
  const AnalyzeRun r = analyze("--baseline=" + root + "/tools/c4h-analyze/baseline.json " +
                               C4H_ANALYZED_TREE);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.contains("0 new)")) << r.output;
}
