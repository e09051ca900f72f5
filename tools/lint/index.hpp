// Declaration/definition indexer: phase one of the cross-TU analyzer.
//
// The indexer walks the comment-stripped token stream of one file and
// extracts everything the graph rules (tools/lint/rules_graph.cpp) need, so
// phase two never re-reads source text:
//
//   - function definitions with qualified names and body line ranges
//   - call sites inside each body (name + `A::B` qualifier when written)
//   - allocation-capable operations per body (new/make_unique/push_back/...)
//   - direct banned clock/entropy reads per body
//   - `// sjs-hot-path-root` annotations (attach to the next declaration
//     or definition; roots are matched BY NAME, so annotating the virtual
//     `on_release` declaration in sim/scheduler.hpp marks every override)
//   - quoted includes and TraceKind declarations/mentions
//
// Everything in a FileIndex is derived from the file's bytes alone, which
// is what makes the on-disk cache (tools/lint/cache.hpp) sound: equal
// content hash implies equal index.
//
// This is a heuristic C++ indexer (no libclang, same constraint as the rest
// of the linter): it tracks brace/paren nesting and a namespace/class scope
// stack, classifies each `{` as namespace/class/function/other from the
// statement tokens before it, and attributes everything inside a function
// body (lambdas included) to that function. Known over-approximations are
// documented in docs/static-analysis.md; the graph rules are designed so
// over-approximation yields extra audited suppressions, never silence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lint/source.hpp"

namespace sjs::lint {

struct CallSite {
  std::string name;  // last identifier: `foo` for `x->foo(...)`
  std::string qual;  // written qualifier chain: `Engine::run` (may be empty)
  std::size_t line = 0;
  std::size_t col = 0;
};

struct OpSite {
  std::string what;  // operation or primitive name, e.g. "push_back"
  std::size_t line = 0;
  std::size_t col = 0;
};

struct FunctionDef {
  std::string name;       // last component, e.g. "step_event"
  std::string qualified;  // scope-joined, e.g. "sjs::sim::Engine::step_event"
  std::size_t line = 0;   // line of the name token (1-based)
  std::size_t body_begin = 0;  // line of the opening brace
  std::size_t body_end = 0;    // line of the closing brace
  bool is_root = false;        // carried a // sjs-hot-path-root annotation
  std::vector<CallSite> calls;
  std::vector<OpSite> allocs;   // allocation-capable operations
  std::vector<OpSite> banned;   // direct banned clock/entropy reads
};

struct IncludeSite {
  std::string path;  // quoted include path as written
  std::size_t line = 0;
};

struct FileIndex {
  std::string rel;
  std::uint64_t hash = 0;
  std::vector<FunctionDef> funcs;
  std::vector<IncludeSite> includes;       // quoted includes only
  std::vector<std::string> root_names;     // names annotated in this file
  // trace-exhaustive raw material (only populated for the two obs files)
  std::vector<std::pair<std::string, std::size_t>> tracekind_decls;
  std::vector<std::string> tracekind_mentions;
};

// Builds the index for one lexed file.
FileIndex build_index(const SourceFile& file);

}  // namespace sjs::lint
