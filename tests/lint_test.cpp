// Tests for tools/sjs_lint: every rule must fire on its known-bad fixture
// (tests/lint_fixtures/), valid suppressions must silence diagnostics,
// malformed suppressions must themselves be diagnosed, and the real source
// tree must be clean.
//
// The linter is exercised end-to-end as a subprocess (the binary path and
// fixture root are injected by CMake), so the exit-code and output-format
// contracts are covered too.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "temp_path.hpp"

namespace {

struct LintResult {
  int exit_code = -1;
  std::string output;
};

LintResult run_cmd(const std::string& cmd) {
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  LintResult result;
  std::array<char, 4096> buf{};
  while (pipe != nullptr && fgets(buf.data(), buf.size(), pipe) != nullptr) {
    result.output += buf.data();
  }
  const int status = pipe != nullptr ? pclose(pipe) : -1;
  result.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return result;
}

LintResult run_lint(const std::string& args) {
  return run_cmd(std::string(SJS_LINT_BIN) + " " + args + " 2>/dev/null");
}

// Same as run_lint, but from `dir` so relative diagnostic paths match.
LintResult run_lint_in(const std::string& dir, const std::string& args) {
  return run_cmd("cd " + dir + " && " + SJS_LINT_BIN + " " + args +
                 " 2>/dev/null");
}

std::string fixture_args(const std::string& paths) {
  return std::string("--root ") + SJS_LINT_FIXTURES + " " + paths;
}

std::string fx(const std::string& rel) {
  return std::string(SJS_LINT_FIXTURES) + "/" + rel;
}

// Number of output lines naming `rule` within `file` (empty file = any).
int count_findings(const std::string& output, const std::string& rule,
                   const std::string& file = "") {
  int n = 0;
  std::size_t pos = 0;
  const std::string needle = "[" + rule + "]";
  while (true) {
    const std::size_t eol = output.find('\n', pos);
    const std::string line = output.substr(pos, eol - pos);
    if (line.find(needle) != std::string::npos &&
        (file.empty() || line.find(file) != std::string::npos)) {
      ++n;
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return n;
}

TEST(LintTest, UnorderedIterFiresOnRangeForAndBeginWalk) {
  const auto r = run_lint(fixture_args(fx("src/sched/bad_unordered.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_findings(r.output, "unordered-iter"), 2) << r.output;
}

TEST(LintTest, OrderedSetHotPathFiresOnDoubleKeyedSetsOnly) {
  const auto r = run_lint(fixture_args(fx("src/sched/bad_ordered_set.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  // set<pair<double,..>> + multiset<double>; the unordered_set<double>, the
  // set<int>, and the suppressed member must all stay silent.
  EXPECT_EQ(count_findings(r.output, "ordered-set-hot-path"), 2) << r.output;
  EXPECT_NE(r.output.find("ReadyQueue"), std::string::npos) << r.output;
}

TEST(LintTest, OrderedSetHotPathCoversFleetSchedulers) {
  // The fleet's global schedulers (cloud/, cluster/) keep top-K live sets on
  // every release; a double-keyed std::set there is flagged like in sched/.
  const auto r = run_lint(fixture_args(fx("src/cluster/bad_ordered_set.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_findings(r.output, "ordered-set-hot-path",
                           "cluster/bad_ordered_set.cpp"),
            1)
      << r.output;
}

TEST(LintTest, BannedTimeFiresOnEverySource) {
  const auto r = run_lint(fixture_args(fx("src/sim/bad_time.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  // std::rand, random_device, steady_clock::now, time(nullptr)
  EXPECT_EQ(count_findings(r.output, "banned-time"), 4) << r.output;
}

TEST(LintTest, BannedTimeCoversServeDirectory) {
  // The serving stack must take serve::Clock& everywhere; a stray direct
  // clock read in src/serve/ (system_clock::now + clock_gettime) is flagged.
  const auto r = run_lint(fixture_args(fx("src/serve/bad_time.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_findings(r.output, "banned-time", "serve/bad_time.cpp"), 2)
      << r.output;
}

TEST(LintTest, FloatEqFiresOnLiteralAndTimeNamedOperands) {
  const auto r = run_lint(fixture_args(fx("src/jobs/bad_float_eq.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_findings(r.output, "float-eq"), 2) << r.output;
}

TEST(LintTest, FloatTypeFires) {
  const auto r = run_lint(fixture_args(fx("src/sched/bad_float_type.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_GE(count_findings(r.output, "float-type"), 2) << r.output;
}

TEST(LintTest, TraceExhaustiveFiresOnUnhandledKind) {
  const auto r = run_lint(fixture_args(fx("src/obs/trace_event.hpp") + " " +
                                       fx("src/obs/exporters.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_findings(r.output, "trace-exhaustive"), 1) << r.output;
  EXPECT_NE(r.output.find("kGhost"), std::string::npos) << r.output;
}

TEST(LintTest, TraceExhaustiveNeedsBothFiles) {
  // With only the enum header in scope the rule cannot run — no findings.
  const auto r = run_lint(fixture_args(fx("src/obs/trace_event.hpp")));
  EXPECT_EQ(count_findings(r.output, "trace-exhaustive"), 0) << r.output;
}

TEST(LintTest, IncludeHygieneFiresOnRelativeBareIostreamAndUsingNamespace) {
  const auto r = run_lint(fixture_args(fx("src/util/bad_include.hpp")));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_findings(r.output, "include-hygiene"), 4) << r.output;
}

TEST(LintTest, HeaderGuardFires) {
  const auto r = run_lint(fixture_args(fx("src/util/missing_guard.hpp")));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_findings(r.output, "header-guard"), 1) << r.output;
}

TEST(LintTest, RawConcurrencyFiresInServeAndSupportsSuppression) {
  const auto r = run_lint(fixture_args(fx("src/serve/bad_thread.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  // thread + lock_guard + mutex (same line) + mutex member + atomic member;
  // the suppressed atomic and the comment mention stay silent.
  EXPECT_EQ(count_findings(r.output, "raw-concurrency"), 5) << r.output;
  EXPECT_NE(r.output.find("conc::Channel"), std::string::npos) << r.output;
}

TEST(LintTest, RawConcurrencyCoversSchedDirectory) {
  const auto r = run_lint(fixture_args(fx("src/sched/bad_condvar.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_findings(r.output, "raw-concurrency"), 2) << r.output;
}

TEST(LintTest, RawConcurrencyCoversClusterDirectory) {
  const auto r = run_lint(fixture_args(fx("src/cluster/bad_thread.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  // lock_guard + mutex (same line) + mutex member; the suppressed atomic
  // stays silent.
  EXPECT_EQ(count_findings(r.output, "raw-concurrency"), 3) << r.output;
}

TEST(LintTest, RawConcurrencyCoversMcDirectory) {
  const auto r = run_lint(fixture_args(fx("src/mc/bad_thread.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  // thread + lock_guard + mutex (same line) + mutex member; the suppressed
  // atomic stays silent.
  EXPECT_EQ(count_findings(r.output, "raw-concurrency"), 4) << r.output;
  EXPECT_NE(r.output.find("util/thread_pool"), std::string::npos) << r.output;
}

TEST(LintTest, RawConcurrencyIgnoresConcDirectory) {
  // conc/ is where the primitives are supposed to live — no findings there.
  const auto r = run_lint(fixture_args(fx("src/conc/good_channel.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(count_findings(r.output, "raw-concurrency"), 0) << r.output;
}

TEST(LintTest, TimerOutsideSetTimerFiresOnDirectTimerPushes) {
  const auto r = run_lint(fixture_args(fx("src/sim/bad_timer_push.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  // push_back + emplace_back of a kTimer event; the non-timer push, the
  // push-free kTimer mention, and the suppressed push stay silent.
  EXPECT_EQ(count_findings(r.output, "timer-outside-set-timer"), 2) << r.output;
  EXPECT_NE(r.output.find("Engine::set_timer"), std::string::npos) << r.output;
}

TEST(LintTest, PollOutsideWaitFdsFiresOnBlockingPolls) {
  const auto r = run_lint(fixture_args(fx("src/serve/bad_poll_wait.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  // poll with a ms timeout, ppoll, epoll_wait with a timeout; the zero
  // timeouts and the suppressed wait stay silent.
  EXPECT_EQ(count_findings(r.output, "poll-outside-wait-fds"), 3) << r.output;
  EXPECT_NE(r.output.find("serve::wait_fds"), std::string::npos) << r.output;
}

TEST(LintTest, BadSuppressionFiresAndDoesNotSuppress) {
  const auto r = run_lint(fixture_args(fx("src/util/bad_suppression.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  // One reason-less allow() + one unknown-rule allow().
  EXPECT_EQ(count_findings(r.output, "bad-suppression"), 2) << r.output;
  // A malformed allow() must not silence the underlying diagnostic.
  EXPECT_EQ(count_findings(r.output, "float-eq"), 2) << r.output;
}

TEST(LintTest, ValidSuppressionsSilenceDiagnostics) {
  const auto r = run_lint(fixture_args(fx("src/util/suppressed_ok.cpp")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(LintTest, WholeFixtureTreeReportsEveryRule) {
  const auto r = run_lint(fixture_args(fx("src")));
  EXPECT_EQ(r.exit_code, 1);
  for (const char* rule :
       {"unordered-iter", "ordered-set-hot-path", "banned-time", "float-eq",
        "float-type", "trace-exhaustive", "include-hygiene", "header-guard",
        "raw-concurrency", "timer-outside-set-timer", "poll-outside-wait-fds",
        "bad-suppression"}) {
    EXPECT_GE(count_findings(r.output, rule), 1) << rule << "\n" << r.output;
  }
}

TEST(LintTest, GithubFormatEmitsWorkflowAnnotations) {
  const auto r = run_lint("--format=github " +
                          fixture_args(fx("src/util/missing_guard.hpp")));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("::error file="), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("title=sjs_lint header-guard"), std::string::npos)
      << r.output;
}

TEST(LintTest, ListRulesNamesAllRules) {
  const auto r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule :
       {"unordered-iter", "ordered-set-hot-path", "banned-time", "float-eq",
        "float-type", "trace-exhaustive", "include-hygiene", "header-guard",
        "raw-concurrency", "timer-outside-set-timer", "poll-outside-wait-fds",
        "transitive-banned-time",
        "alloc-in-hot-path", "include-cycle"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos) << rule;
  }
}

// --- cross-TU analyzer: the two-phase rewrite and the four graph rules ------

// The 11 pre-rewrite rules must produce byte-identical diagnostics on the
// fixture tree. tests/lint_fixtures/legacy_golden.txt was captured from the
// last single-pass build; this diff restricts the new analyzer's output to
// the legacy rule set and the files that golden covers (fixtures added for
// the graph rules are newer than the capture, so they are out of scope).
TEST(LintTest, GoldenDiffLegacyRulesUnchanged) {
  const std::string golden_path =
      std::string(SJS_LINT_FIXTURES) + "/legacy_golden.txt";
  std::ifstream golden_in(golden_path);
  ASSERT_TRUE(golden_in.is_open()) << golden_path;
  std::string golden, line;
  std::set<std::string> golden_files;
  while (std::getline(golden_in, line)) {
    golden += line + "\n";
    golden_files.insert(line.substr(0, line.find(':')));
  }
  ASSERT_FALSE(golden_files.empty());

  // Run from the fixture root so diagnostic paths match the capture.
  const auto r = run_lint_in(SJS_LINT_FIXTURES, "--root . src");
  EXPECT_EQ(r.exit_code, 1);
  static const std::set<std::string> legacy_rules = {
      "unordered-iter", "ordered-set-hot-path", "banned-time",  "float-eq",
      "float-type",     "trace-exhaustive",     "include-hygiene",
      "header-guard",   "raw-concurrency",      "timer-outside-set-timer",
      "bad-suppression"};
  std::string filtered;
  std::istringstream out(r.output);
  while (std::getline(out, line)) {
    const std::string file = line.substr(0, line.find(':'));
    const std::size_t open = line.find('[');
    const std::size_t close = line.find(']', open);
    if (open == std::string::npos || close == std::string::npos) continue;
    const std::string rule = line.substr(open + 1, close - open - 1);
    if (golden_files.count(file) && legacy_rules.count(rule)) {
      filtered += line + "\n";
    }
  }
  EXPECT_EQ(filtered, golden);
}

TEST(LintTest, TransitiveBannedTimeReportsCallChain) {
  const auto r = run_lint(fixture_args(fx("src/sim/bad_transitive_time.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  // The direct read fires the per-file rule; the two unsuppressed callers
  // fire the transitive rule. The audited caller and everything above the
  // cut edge stay silent.
  EXPECT_EQ(count_findings(r.output, "banned-time"), 1) << r.output;
  EXPECT_EQ(count_findings(r.output, "transitive-banned-time"), 2) << r.output;
  EXPECT_NE(r.output.find("top_layer -> fixture::middle_layer -> "
                          "fixture::read_clock_directly"),
            std::string::npos)
      << r.output;
}

TEST(LintTest, ExplainPrintsChainNotes) {
  const auto r =
      run_lint("--explain=transitive-banned-time " +
               fixture_args(fx("src/sim/bad_transitive_time.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("note: fixture::read_clock_directly"),
            std::string::npos)
      << r.output;
}

TEST(LintTest, AllocInHotPathFiresOnlyOnReachableUnauditedSites) {
  const auto r = run_lint(fixture_args(fx("src/sim/bad_hot_alloc.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  // helper_allocates fires; the audited site, the cut cold edge, and the
  // unreachable function stay silent.
  EXPECT_EQ(count_findings(r.output, "alloc-in-hot-path"), 1) << r.output;
  EXPECT_NE(r.output.find("HotLoop::spin -> fixture::HotLoop::helper_allocates"),
            std::string::npos)
      << r.output;
}

TEST(LintTest, AllocInHotPathKnowsReserveAndAssign) {
  const auto r = run_lint(fixture_args(fx("src/sim/bad_hot_reserve.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  // The reserve and the assign reachable from step() fire; the same calls
  // in the unreachable setup stay silent.
  EXPECT_EQ(count_findings(r.output, "alloc-in-hot-path"), 2) << r.output;
  EXPECT_NE(r.output.find("Scratch::step -> fixture::Scratch::regrow"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("Scratch::step -> fixture::Scratch::refill"),
            std::string::npos)
      << r.output;
}

TEST(LintTest, AllocInHotPathReportsCloudDirectory) {
  const auto r = run_lint(fixture_args(fx("src/cloud/bad_hot_alloc.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  // pick_growing's push_back fires; the start-up resize is unreachable and
  // the pre-sized member write allocates nothing.
  EXPECT_EQ(count_findings(r.output, "alloc-in-hot-path"), 1) << r.output;
  EXPECT_NE(r.output.find("GlobalPicker::on_interrupt -> "
                          "sjs::cloud::GlobalPicker::pick_growing"),
            std::string::npos)
      << r.output;
}

TEST(LintTest, AllocReportListsSuppressedSitesToo) {
  const auto r = run_lint("--report=alloc " +
                          fixture_args(fx("src/sim/bad_hot_alloc.cpp")));
  // The report is a work-list, not a gate: exit 0, suppressed sites listed.
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("helper_allocates"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[suppressed]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("audited_alloc"), std::string::npos) << r.output;
}

TEST(LintTest, AllocReportMaxGatesOnTotalSiteCount) {
  // The fixture has at least one unaudited and one suppressed site, so
  // --max=0 must trip the ratchet (suppressions count — they are debt, not
  // absolution) while a generous budget passes.
  const auto over = run_lint("--report=alloc --max=0 " +
                             fixture_args(fx("src/sim/bad_hot_alloc.cpp")));
  EXPECT_EQ(over.exit_code, 1);
  const auto under = run_lint("--report=alloc --max=100 " +
                              fixture_args(fx("src/sim/bad_hot_alloc.cpp")));
  EXPECT_EQ(under.exit_code, 0) << under.output;
}

TEST(LintTest, AllocMaxWithoutReportIsUsageError) {
  const auto r =
      run_lint("--max=0 " + fixture_args(fx("src/sim/bad_hot_alloc.cpp")));
  EXPECT_EQ(r.exit_code, 2);
  const auto bad = run_lint("--report=alloc --max=nope " +
                            fixture_args(fx("src/sim/bad_hot_alloc.cpp")));
  EXPECT_EQ(bad.exit_code, 2);
}

TEST(LintTest, IncludeCycleAnchorsAtSmallestModuleAndHonorsSuppression) {
  const auto r = run_lint(fixture_args(
      fx("src/sim/cycle_a.hpp") + " " + fx("src/sched/cycle_b.hpp") + " " +
      fx("src/jobs/cycle_c.hpp") + " " + fx("src/obs/cycle_d.hpp")));
  EXPECT_EQ(r.exit_code, 1);
  // sim <-> sched fires once, anchored at the sched side; jobs <-> obs is
  // suppressed at its anchor include.
  EXPECT_EQ(count_findings(r.output, "include-cycle"), 1) << r.output;
  EXPECT_EQ(count_findings(r.output, "include-cycle", "cycle_b.hpp"), 1)
      << r.output;
  EXPECT_NE(r.output.find("sched -> sim -> sched"), std::string::npos)
      << r.output;
}

TEST(LintTest, LexerHandlesRawStringsAndLineSplices) {
  const auto r = run_lint(fixture_args(fx("src/util/raw_strings.cpp")));
  EXPECT_EQ(r.exit_code, 1);
  // Every banned token lives inside a raw string, a spliced string, or a
  // spliced comment; only the sentinel float-eq after them may fire.
  EXPECT_EQ(count_findings(r.output, "banned-time"), 0) << r.output;
  EXPECT_EQ(count_findings(r.output, "raw-concurrency"), 0) << r.output;
  EXPECT_EQ(count_findings(r.output, "float-eq"), 1) << r.output;
}

TEST(LintTest, CacheReplayIsByteIdentical) {
  const std::string cache =
      sjs::testutil::unique_temp_path("sjs_lint_cache_replay", ".txt");
  std::remove(cache.c_str());
  const std::string args = "--cache=" + cache + " " + fixture_args(fx("src"));
  const auto cold = run_lint(args);
  const auto warm = run_lint(args);
  EXPECT_EQ(cold.exit_code, 1);
  EXPECT_EQ(warm.exit_code, 1);
  EXPECT_EQ(cold.output, warm.output);
  std::ifstream written(cache);
  EXPECT_TRUE(written.is_open()) << cache;
}

// The acceptance gate: the real tree must lint clean — runtime sources, the
// tools (the analyzer lints itself), and bench/.
TEST(LintTest, RealSourceTreeIsClean) {
  const auto r = run_lint(std::string("--root ") + SJS_SOURCE_ROOT + " " +
                          SJS_SOURCE_ROOT + "/src " + SJS_SOURCE_ROOT +
                          "/tools " + SJS_SOURCE_ROOT + "/bench");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// The zero-allocation ratchet on the real tree: every hot-path-reachable
// allocation site has been converted to slab/pool access, moved to setup,
// or routed through the audited util:: helpers — and no suppression hides
// one. This is the static half of the guarantee; the runtime half is
// hotpath_test's AllocProbe ratchet at 0.
TEST(LintTest, RealSourceTreeHotPathIsAllocationFree) {
  const auto r = run_lint(std::string("--report=alloc --max=0 --root ") +
                          SJS_SOURCE_ROOT + " " + SJS_SOURCE_ROOT + "/src " +
                          SJS_SOURCE_ROOT + "/tools " + SJS_SOURCE_ROOT +
                          "/bench");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

}  // namespace
