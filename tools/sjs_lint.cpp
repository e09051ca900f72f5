// sjs_lint — repo-specific determinism/contract analyzer (CLI).
//
// This file is the thin argv shim over the two-phase analyzer library in
// tools/lint/: a lexer (raw strings, splices, comment/string blanking), a
// per-file declaration/definition indexer, the quoted-include graph, a
// name-resolved cross-TU call graph, and a taint-propagation engine that
// the graph rules run on. Phase 1 (per-file token/regex rules) depends only
// on a file's bytes and is cached on disk keyed by content hash; phase 2
// (cross-TU rules) is recomputed from the indices every run. See
// docs/static-analysis.md for the architecture and the rationale behind
// every rule.
//
// Rules (ids are stable; suppress with an `sjs-lint` comment of the form
// `allow(<id>): <reason>` on the offending line or the line above — the
// reason is mandatory):
//
//   unordered-iter   iteration over std::unordered_{map,set,multimap,multiset}
//                    in sched/, sim/, mc/, cloud/ — iteration order is
//                    implementation-defined and leaks into schedule decisions
//   ordered-set-hot-path
//                    std::set/std::multiset keyed on double (incl.
//                    pair<double, ...>) in sched/, sim/, cloud/ or
//                    cluster/ — node churn allocates per operation; use
//                    sched::ReadyQueue
//   banned-time      std::rand/srand/random_device/chrono *_clock::now/
//                    time(nullptr)/clock() outside util/rng + util/logging —
//                    all nondeterminism must flow through the seeded Rng
//   float-eq         ==/!= against a floating-point literal or a time-named
//                    operand — use the named helpers in util/fp.hpp so exact
//                    comparisons are auditable intent, not accidents
//   float-type       the `float` type anywhere under src/ — simulation state
//                    is double-only; float truncation shifts event timestamps
//   trace-exhaustive every TraceKind enumerator must be handled by the
//                    Chrome exporter's switch (src/obs/exporters.cpp)
//   include-hygiene  quoted includes must be module-rooted ("util/x.hpp", no
//                    "../"), headers must not include <iostream> or declare
//                    file-scope `using namespace`
//   header-guard     every header must open with #pragma once
//   raw-concurrency  std::thread/mutex/atomic/condition_variable (and other
//                    raw primitives) in src/serve/, src/sched/,
//                    src/cluster/, src/mc/ or src/cloud/ — cross-thread
//                    traffic must flow through conc::Channel /
//                    conc::ShardSet (src/conc/) or util/thread_pool so those
//                    layers stay auditable single-threaded
//   timer-outside-set-timer
//                    a kTimer event built or pushed in src/sim/ outside
//                    Engine::set_timer — only set_timer gives a queued timer
//                    its generation-stamped slab id, which owns the
//                    cancel/dead-event lifecycle
//   poll-outside-wait-fds
//                    a poll/ppoll/epoll_wait with a nonzero timeout in
//                    src/serve/, src/cluster/ or src/conc/ outside
//                    serve::wait_fds — the one ppoll(2) site, whose
//                    microsecond timeout is what keeps a wait for a due
//                    event from rounding up to a whole millisecond
//   bad-suppression  an allow() comment with an unknown rule id or without
//                    a reason (this rule itself cannot be suppressed)
//   transitive-banned-time
//                    the function's call closure reaches a banned clock/
//                    entropy read (the seam the per-file rule cannot see);
//                    util/rng and serve/clock.* are the sanctioned sinks
//   alloc-in-hot-path
//                    an allocation-capable operation (new/make_unique/
//                    push_back/resize/std::function...) in a function
//                    reachable from a `// sjs-hot-path-root` annotation
//   include-cycle    a cycle in the module-level quoted-include graph
//
// Output: clickable `file:line:col: error: [rule] message` lines by default;
// `--format=github` (or GITHUB_ACTIONS=true in the environment) switches to
// GitHub workflow-annotation commands. `--explain=<rule>` adds `note:` lines
// carrying the call chain behind every diagnostic of that rule. Exit status
// is the number of diagnostics capped at 1 — i.e. 0 iff the tree is clean.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "lint/analyzer.hpp"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: sjs_lint [--root <dir>] [--format=plain|github] [--list-rules]\n"
      "                [--cache=<file>] [--explain=<rule>] [--report=alloc]\n"
      "                [--max=<n>] [paths...]\n"
      "  Lints .cpp/.hpp files (default: <root>/src). Paths may be files or\n"
      "  directories; suppression paths in diagnostics are relative to\n"
      "  --root.\n"
      "  --cache=<file>    reuse per-file symbol indices across runs (keyed\n"
      "                    on content hashes; safe under any edit)\n"
      "  --explain=<rule>  print the call chain behind each <rule> finding\n"
      "  --report=alloc    print the full allocation-in-hot-path work-list\n"
      "                    (audited suppressions included) and exit 0\n"
      "  --max=<n>         with --report=alloc: exit 1 when the work-list\n"
      "                    exceeds n sites (the ratchet gate; --max=0 means\n"
      "                    the hot path must be allocation-free)\n");
}

}  // namespace

int main(int argc, char** argv) {
  using sjs::lint::AnalyzerOptions;
  using sjs::lint::Diagnostic;

  AnalyzerOptions options;
  std::string format = "plain";
  std::string explain;
  bool report_alloc = false;
  long max_alloc = -1;  // <0: report only, no gate
  if (const char* env = std::getenv("GITHUB_ACTIONS");
      env != nullptr && std::strcmp(env, "true") == 0) {
    format = "github";
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    if (arg == "--list-rules") {
      for (const auto& [name, desc] : sjs::lint::rule_table()) {
        std::printf("%-22s %s\n", name, desc);
      }
      return 0;
    }
    if (arg == "--root") {
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      options.root = argv[++i];
      continue;
    }
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "plain" && format != "github") {
        std::fprintf(stderr, "sjs_lint: unknown format '%s'\n",
                     format.c_str());
        return 2;
      }
      continue;
    }
    if (arg.rfind("--cache=", 0) == 0) {
      options.cache_path = arg.substr(8);
      continue;
    }
    if (arg.rfind("--explain=", 0) == 0) {
      explain = arg.substr(10);
      if (!sjs::lint::is_known_rule(explain)) {
        std::fprintf(stderr, "sjs_lint: --explain names unknown rule '%s'\n",
                     explain.c_str());
        return 2;
      }
      continue;
    }
    if (arg == "--report=alloc") {
      report_alloc = true;
      continue;
    }
    if (arg.rfind("--max=", 0) == 0) {
      char* end = nullptr;
      max_alloc = std::strtol(arg.c_str() + 6, &end, 10);
      if (end == nullptr || *end != '\0' || max_alloc < 0) {
        std::fprintf(stderr, "sjs_lint: --max needs a non-negative integer\n");
        return 2;
      }
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "sjs_lint: unknown option '%s'\n", arg.c_str());
      usage();
      return 2;
    }
    options.inputs.emplace_back(arg);
  }

  const sjs::lint::AnalyzerResult result = sjs::lint::run_analyzer(options);
  for (const std::string& err : result.io_errors) {
    std::fprintf(stderr, "sjs_lint: cannot read %s\n", err.c_str());
  }
  if (!result.io_errors.empty()) return 2;

  if (report_alloc) {
    for (const auto& e : result.alloc_report) {
      std::printf("%s:%zu: %s in '%s'%s  chain: %s\n", e.file.c_str(), e.line,
                  e.op.c_str(), e.function.c_str(),
                  e.suppressed ? " [suppressed]" : "", e.chain.c_str());
    }
    std::fprintf(stderr,
                 "sjs_lint: %zu hot-path allocation site(s) (%zu suppressed) "
                 "in %zu file(s)\n",
                 result.alloc_report.size(),
                 static_cast<std::size_t>(std::count_if(
                     result.alloc_report.begin(), result.alloc_report.end(),
                     [](const auto& e) { return e.suppressed; })),
                 result.files_analyzed);
    if (max_alloc >= 0 &&
        result.alloc_report.size() > static_cast<std::size_t>(max_alloc)) {
      std::fprintf(stderr,
                   "sjs_lint: allocation ratchet exceeded: %zu site(s) > "
                   "--max=%ld\n",
                   result.alloc_report.size(), max_alloc);
      return 1;
    }
    return 0;
  }
  if (max_alloc >= 0) {
    std::fprintf(stderr, "sjs_lint: --max requires --report=alloc\n");
    return 2;
  }

  for (const Diagnostic& d : result.diags) {
    if (format == "github") {
      std::printf("::error file=%s,line=%zu,col=%zu,title=sjs_lint %s::%s\n",
                  d.file.c_str(), d.line, d.col, d.rule.c_str(),
                  d.message.c_str());
    } else {
      std::printf("%s:%zu:%zu: error: [%s] %s\n", d.file.c_str(), d.line,
                  d.col, d.rule.c_str(), d.message.c_str());
    }
    if (!explain.empty() && d.rule == explain) {
      for (const std::string& hop : d.chain) {
        std::printf("    note: %s\n", hop.c_str());
      }
    }
  }
  if (!result.diags.empty()) {
    std::fprintf(stderr, "sjs_lint: %zu diagnostic(s) in %zu file(s)\n",
                 result.diags.size(), result.files_analyzed);
    return 1;
  }
  return 0;
}
