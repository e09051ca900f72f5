// Rule plugins for the sjs_lint analyzer.
//
// Two phases:
//
//   Phase 1 (per-file): each rule sees one SourceFile and appends
//   diagnostics. These are the 9 line/token rules carried over from the
//   original single-pass linter, byte-for-byte compatible (the golden diff
//   test in tests/lint_test.cpp holds them to that), plus
//   poll-outside-wait-fds. Phase-1 output is cacheable: it depends only on
//   the file's bytes.
//
//   Phase 2 (cross-TU): rules that see every FileIndex plus the call graph
//   — trace-exhaustive (enum vs exporter), transitive-banned-time,
//   alloc-in-hot-path, include-cycle.
#pragma once

#include <string>
#include <vector>

#include "lint/call_graph.hpp"
#include "lint/index.hpp"
#include "lint/source.hpp"

namespace sjs::lint {

// --- phase 1: per-file rules (legacy, diagnostics frozen) -------------------

void check_unordered_iter(const SourceFile& file,
                          std::vector<Diagnostic>& diags);
void check_ordered_set_hot_path(const SourceFile& file,
                                std::vector<Diagnostic>& diags);
void check_banned_time(const SourceFile& file, std::vector<Diagnostic>& diags);
void check_float_eq(const SourceFile& file, std::vector<Diagnostic>& diags);
void check_float_type(const SourceFile& file, std::vector<Diagnostic>& diags);
void check_include_hygiene(const SourceFile& file,
                           std::vector<Diagnostic>& diags);
void check_header_guard(const SourceFile& file,
                        std::vector<Diagnostic>& diags);
void check_raw_concurrency(const SourceFile& file,
                           std::vector<Diagnostic>& diags);
void check_timer_outside_set_timer(const SourceFile& file,
                                   std::vector<Diagnostic>& diags);
void check_poll_outside_wait_fds(const SourceFile& file,
                                 std::vector<Diagnostic>& diags);

// Runs every phase-1 rule over one file.
void run_file_rules(const SourceFile& file, std::vector<Diagnostic>& diags);

// --- phase 2: cross-TU rules ------------------------------------------------

struct Analysis {
  std::vector<SourceFile> files;   // sorted by path
  std::vector<FileIndex> indices;  // parallel to files
  CallGraph graph;
};

// One line of the --report=alloc work-list (all allocation sites reachable
// from hot-path roots, including audited/suppressed ones).
struct AllocReportEntry {
  std::string file;
  std::size_t line = 0;
  std::string op;
  std::string function;
  bool suppressed = false;
  std::string chain;  // "root -> ... -> function"
};

void check_trace_exhaustive(const Analysis& a, std::vector<Diagnostic>& diags);
void check_transitive_banned_time(const Analysis& a,
                                  std::vector<Diagnostic>& diags);
void check_alloc_in_hot_path(const Analysis& a, std::vector<Diagnostic>& diags,
                             std::vector<AllocReportEntry>* report);
void check_include_cycle(const Analysis& a, std::vector<Diagnostic>& diags);

}  // namespace sjs::lint
