#include "lint/analyzer.hpp"

#include <algorithm>
#include <tuple>

namespace fs = std::filesystem;

namespace sjs::lint {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

AnalyzerResult run_analyzer(const AnalyzerOptions& options) {
  AnalyzerResult result;

  std::vector<fs::path> inputs = options.inputs;
  if (inputs.empty()) inputs.push_back(options.root / "src");

  std::vector<fs::path> paths;
  for (const fs::path& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(input)) {
        if (entry.is_regular_file() && lintable(entry.path())) {
          paths.push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(input, ec)) {
      paths.push_back(input);
    } else {
      result.io_errors.push_back(input.generic_string());
    }
  }
  if (!result.io_errors.empty()) return result;
  std::sort(paths.begin(), paths.end());

  IndexCache cache;
  const bool use_cache = !options.cache_path.empty();
  if (use_cache) cache.load(options.cache_path);

  Analysis a;
  std::vector<Diagnostic>& diags = result.diags;
  for (const fs::path& p : paths) {
    auto file = load_file(p, options.root);
    if (!file) {
      result.io_errors.push_back(p.generic_string());
      return result;
    }
    // Suppressions (and their validity diagnostics) are always recomputed:
    // the graph rules probe them per reported line and per call-graph edge.
    collect_suppressions(*file, diags);

    const CacheEntry* hit =
        use_cache ? cache.lookup(file->rel, file->hash) : nullptr;
    if (hit != nullptr) {
      ++result.cache_hits;
      a.indices.push_back(hit->index);
      for (Diagnostic d : hit->diags) {
        d.file = file->path;  // cache stores rel; report the invoked path
        diags.push_back(std::move(d));
      }
    } else {
      CacheEntry entry;
      entry.hash = file->hash;
      entry.index = build_index(*file);
      run_file_rules(*file, entry.diags);
      a.indices.push_back(entry.index);
      for (const Diagnostic& d : entry.diags) diags.push_back(d);
      if (use_cache) {
        // Normalize the stored file field to rel for path-independent replay.
        for (Diagnostic& d : entry.diags) d.file = file->rel;
        cache.store(file->rel, std::move(entry));
      }
    }
    a.files.push_back(std::move(*file));
  }
  result.files_analyzed = a.files.size();

  a.graph = build_call_graph(a.indices);

  check_trace_exhaustive(a, diags);
  check_transitive_banned_time(a, diags);
  check_alloc_in_hot_path(a, diags, &result.alloc_report);
  check_include_cycle(a, diags);

  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& x, const Diagnostic& y) {
              return std::tie(x.file, x.line, x.col, x.rule) <
                     std::tie(y.file, y.line, y.col, y.rule);
            });
  std::sort(result.alloc_report.begin(), result.alloc_report.end(),
            [](const AllocReportEntry& x, const AllocReportEntry& y) {
              return std::tie(x.file, x.line, x.op) <
                     std::tie(y.file, y.line, y.op);
            });

  if (use_cache) cache.save(options.cache_path);
  return result;
}

}  // namespace sjs::lint
