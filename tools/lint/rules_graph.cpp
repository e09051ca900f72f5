// Phase-2 (cross-TU) rules: everything that needs more than one file —
// the enum/exporter pairing, call-graph reachability (time taint, hot-path
// allocations), and the module-level include graph.
#include <algorithm>
#include <set>
#include <sstream>

#include "lint/rules.hpp"

namespace sjs::lint {

namespace {

// Renders "a -> b -> c" from graph node ids (in the given order).
std::string render_chain(const CallGraph& g,
                         const std::vector<std::size_t>& nodes) {
  std::string out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += " -> ";
    out += g.nodes[nodes[i]].def->qualified;
  }
  return out;
}

// Per-hop note lines ("note: called from file:line") for --explain.
std::vector<std::string> chain_notes(const Analysis& a,
                                     const std::vector<std::size_t>& nodes) {
  std::vector<std::string> notes;
  const CallGraph& g = a.graph;
  for (const std::size_t n : nodes) {
    const CallGraph::Node& node = g.nodes[n];
    notes.push_back(node.def->qualified + " (" + a.indices[node.file].rel +
                    ":" + std::to_string(node.def->line) + ")");
  }
  return notes;
}

// True when an allow(rule) on the call-site line (or the line above it)
// vetoes traversal of this edge — an audited cold-path / sanctioned-seam cut.
bool edge_suppressed(const Analysis& a, const CallGraph::Edge& e,
                     const std::string& rule) {
  const SourceFile& caller_file = a.files[a.graph.nodes[e.caller].file];
  return is_suppressed(caller_file, e.site->line, rule);
}

}  // namespace

// ---------------------------------------------------------------------------
// Rule: trace-exhaustive (legacy, diagnostics frozen)
// ---------------------------------------------------------------------------

void check_trace_exhaustive(const Analysis& a, std::vector<Diagnostic>& diags) {
  const SourceFile* enum_file = nullptr;
  const FileIndex* enum_idx = nullptr;
  const SourceFile* exporter = nullptr;
  const FileIndex* exporter_idx = nullptr;
  for (std::size_t i = 0; i < a.files.size(); ++i) {
    if (a.files[i].rel == "src/obs/trace_event.hpp") {
      enum_file = &a.files[i];
      enum_idx = &a.indices[i];
    }
    if (a.files[i].rel == "src/obs/exporters.cpp") {
      exporter = &a.files[i];
      exporter_idx = &a.indices[i];
    }
  }
  if (enum_file == nullptr || exporter == nullptr) return;

  const std::set<std::string> handled(exporter_idx->tracekind_mentions.begin(),
                                      exporter_idx->tracekind_mentions.end());
  for (const auto& [kind, decl_line] : enum_idx->tracekind_decls) {
    if (handled.count(kind)) continue;
    report(*exporter, 1, 1, "trace-exhaustive",
           "TraceKind::" + kind + " (declared at " + enum_file->path + ":" +
               std::to_string(decl_line) +
               ") is not handled by the Chrome exporter; every event kind "
               "must be routed (or explicitly ignored) in the switch",
           diags);
  }
}

// ---------------------------------------------------------------------------
// Rule: transitive-banned-time
// ---------------------------------------------------------------------------

// A function is time-tainted when its call closure reaches a direct banned
// clock/entropy read. Sanctioned sinks — the seeded Rng (util/rng) and the
// serve::Clock bridge (serve/clock.*), the two places wall-clock access is
// part of the contract — do not seed taint, and neither does a direct read
// the per-file rule already carries an audited allow(banned-time) for.
// Propagation runs callee -> caller; an allow(transitive-banned-time) on a
// call line both suppresses the diagnostic there and stops the taint from
// climbing past that edge.
void check_transitive_banned_time(const Analysis& a,
                                  std::vector<Diagnostic>& diags) {
  const CallGraph& g = a.graph;

  const auto sanctioned = [](const std::string& rel) {
    return is_rng_or_logging(rel) || rel.rfind("src/serve/clock.", 0) == 0;
  };

  std::vector<std::size_t> seeds;
  std::vector<const OpSite*> seed_read(g.nodes.size(), nullptr);
  for (std::size_t n = 0; n < g.nodes.size(); ++n) {
    const SourceFile& file = a.files[g.nodes[n].file];
    if (sanctioned(file.rel)) continue;
    for (const OpSite& op : g.nodes[n].def->banned) {
      if (is_suppressed(file, op.line, "banned-time")) continue;
      seeds.push_back(n);
      seed_read[n] = &op;
      break;
    }
  }
  if (seeds.empty()) return;

  const Reachability r =
      propagate(g, seeds, /*forward=*/false, [&](std::size_t e) {
        return edge_suppressed(a, g.edges[e], "transitive-banned-time");
      });

  for (std::size_t n = 0; n < g.nodes.size(); ++n) {
    if (!r.reached[n] || r.via_edge[n] == Reachability::kUnreached) continue;
    const CallGraph::Edge& e = g.edges[r.via_edge[n]];
    const SourceFile& file = a.files[g.nodes[n].file];
    // Chain from this caller down to the function with the direct read.
    const std::vector<std::size_t> chain = g.nodes.empty()
                                               ? std::vector<std::size_t>{}
                                               : r.chain_to_seed(g, n, false);
    const std::size_t seed = chain.back();
    const OpSite* read = seed_read[seed];
    std::string msg =
        "call to '" + g.nodes[e.callee].def->qualified +
        "' transitively reaches a banned clock/entropy read (" +
        (read ? read->what : std::string("?")) + " at " +
        a.indices[g.nodes[seed].file].rel + ":" +
        std::to_string(read ? read->line : 0) +
        "); route time through the injected serve::Clock / seeded sjs::Rng, "
        "or add an audited suppression at the sanctioned seam. Chain: " +
        render_chain(g, chain);
    const std::size_t before = diags.size();
    report(file, e.site->line, e.site->col, "transitive-banned-time", msg,
           diags);
    if (diags.size() > before) diags.back().chain = chain_notes(a, chain);
  }
}

// ---------------------------------------------------------------------------
// Rule: alloc-in-hot-path
// ---------------------------------------------------------------------------

// Allocation-capable operations in functions reachable from a
// `// sjs-hot-path-root` annotation. Roots are matched by NAME (annotating
// the virtual hook declaration marks every override). Reporting is limited
// to the runtime modules — an allocation in tools/ or tests/ reached via a
// shared utility name is over-approximation noise, not a hot-path cost.
// An allow(alloc-in-hot-path) on a call line cuts that edge (audited cold
// path); on an allocation line it suppresses the finding but still lands in
// the --report=alloc work-list with suppressed=true.
void check_alloc_in_hot_path(const Analysis& a, std::vector<Diagnostic>& diags,
                             std::vector<AllocReportEntry>* report_out) {
  const CallGraph& g = a.graph;

  std::set<std::string> root_names;
  for (const FileIndex& idx : a.indices) {
    root_names.insert(idx.root_names.begin(), idx.root_names.end());
  }

  std::vector<std::size_t> seeds;
  for (std::size_t n = 0; n < g.nodes.size(); ++n) {
    if (g.nodes[n].def->is_root || root_names.count(g.nodes[n].def->name)) {
      seeds.push_back(n);
    }
  }
  if (seeds.empty()) return;

  const Reachability r =
      propagate(g, seeds, /*forward=*/true, [&](std::size_t e) {
        return edge_suppressed(a, g.edges[e], "alloc-in-hot-path");
      });

  static const std::set<std::string> kReportedModules = {
      "sim", "sched", "serve", "conc", "obs", "cluster", "cloud"};
  for (std::size_t n = 0; n < g.nodes.size(); ++n) {
    if (!r.reached[n]) continue;
    const FunctionDef& fn = *g.nodes[n].def;
    if (fn.allocs.empty()) continue;
    const SourceFile& file = a.files[g.nodes[n].file];
    if (kReportedModules.count(module_of(file.rel)) == 0) continue;
    std::vector<std::size_t> chain = r.chain_to_seed(g, n, true);
    std::reverse(chain.begin(), chain.end());  // root first
    const std::string chain_str = render_chain(g, chain);
    for (const OpSite& op : fn.allocs) {
      const bool suppressed =
          is_suppressed(file, op.line, "alloc-in-hot-path");
      if (report_out != nullptr) {
        report_out->push_back({file.rel, op.line, op.what, fn.qualified,
                               suppressed, chain_str});
      }
      const std::size_t before = diags.size();
      report(file, op.line, op.col, "alloc-in-hot-path",
             "allocation-capable operation '" + op.what + "' in '" +
                 fn.qualified +
                 "' is reachable from a hot-path root; pre-size, pool, or "
                 "move it off the steady-state path — or add an audited "
                 "suppression naming why it cannot allocate in steady "
                 "state. Chain: " +
                 chain_str,
             diags);
      if (diags.size() > before) diags.back().chain = chain_notes(a, chain);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: include-cycle
// ---------------------------------------------------------------------------

// Module-level cycles in the quoted-include graph. Modules are the top-level
// directories (src/sim -> "sim"); an edge sim -> sched exists when any sim/
// file includes "sched/...". A cycle means neither module can be built,
// tested, or reasoned about without the other — the layering the include-
// hygiene rule enforces syntactically, enforced structurally. The diagnostic
// anchors at a deterministic witness: the lexicographically smallest module
// in the cycle, its lexicographically smallest file, the first include line
// that participates.
void check_include_cycle(const Analysis& a, std::vector<Diagnostic>& diags) {
  // module -> set of modules it includes, plus a witness include per edge.
  struct Witness {
    std::size_t file = 0;  // index into a.files
    std::size_t line = 0;
  };
  std::map<std::string, std::map<std::string, Witness>> edges;
  for (std::size_t i = 0; i < a.indices.size(); ++i) {
    const std::string from = module_of(a.indices[i].rel);
    if (from.empty()) continue;
    for (const IncludeSite& inc : a.indices[i].includes) {
      const std::string to = include_module(inc.path);
      if (to.empty() || to == from) continue;
      auto& slot = edges[from];
      const auto it = slot.find(to);
      // Keep the lexicographically-smallest-file, lowest-line witness.
      if (it == slot.end() ||
          std::tie(a.files[i].rel, inc.line) <
              std::tie(a.files[it->second.file].rel, it->second.line)) {
        slot[to] = {i, inc.line};
      }
    }
  }

  // Iterative Tarjan SCC over the module graph (node order: map order, so
  // deterministic).
  std::vector<std::string> modules;
  for (const auto& [m, _] : edges) modules.push_back(m);
  std::map<std::string, std::size_t> module_id;
  for (std::size_t i = 0; i < modules.size(); ++i) module_id[modules[i]] = i;

  const std::size_t n = modules.size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [to, _] : edges[modules[i]]) {
      const auto it = module_id.find(to);
      if (it != module_id.end()) adj[i].push_back(it->second);
    }
  }

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index(n, kNone), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::vector<std::vector<std::size_t>> sccs;
  std::size_t counter = 0;
  // Explicit DFS stack: (node, next-neighbor position).
  std::vector<std::pair<std::size_t, std::size_t>> dfs;
  for (std::size_t start = 0; start < n; ++start) {
    if (index[start] != kNone) continue;
    dfs.push_back({start, 0});
    while (!dfs.empty()) {
      auto& [v, pos] = dfs.back();
      if (pos == 0) {
        index[v] = low[v] = counter++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      if (pos < adj[v].size()) {
        const std::size_t w = adj[v][pos++];
        if (index[w] == kNone) {
          dfs.push_back({w, 0});
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
      } else {
        if (low[v] == index[v]) {
          std::vector<std::size_t> scc;
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.push_back(w);
            if (w == v) break;
          }
          sccs.push_back(std::move(scc));
        }
        const std::size_t done = v;
        dfs.pop_back();
        if (!dfs.empty()) {
          low[dfs.back().first] = std::min(low[dfs.back().first], low[done]);
        }
      }
    }
  }

  for (std::vector<std::size_t>& scc : sccs) {
    if (scc.size() < 2) continue;  // self-includes were filtered above
    std::sort(scc.begin(), scc.end(), [&](std::size_t x, std::size_t y) {
      return modules[x] < modules[y];
    });
    // Walk the cycle from the smallest module, always stepping to the
    // smallest in-SCC successor — a deterministic representative cycle.
    std::set<std::size_t> members(scc.begin(), scc.end());
    std::vector<std::size_t> cycle{scc[0]};
    std::set<std::size_t> seen{scc[0]};
    while (true) {
      std::size_t next = kNone;
      for (const std::size_t w : adj[cycle.back()]) {
        if (members.count(w) && (next == kNone || modules[w] < modules[next])) {
          if (!seen.count(w) || w == scc[0]) {
            next = w;
            if (w == scc[0]) break;
          }
        }
      }
      if (next == kNone || next == scc[0]) break;
      cycle.push_back(next);
      seen.insert(next);
    }
    std::string path;
    for (const std::size_t m : cycle) path += modules[m] + " -> ";
    path += modules[scc[0]];
    const Witness& w = edges[modules[cycle[0]]][modules[cycle.size() > 1
                                                            ? cycle[1]
                                                            : scc[0]]];
    const SourceFile& file = a.files[w.file];
    const std::size_t before = diags.size();
    report(file, w.line, 1, "include-cycle",
           "module include cycle: " + path +
               "; break the cycle with an interface header, a forward "
               "declaration, or by moving the shared type down a layer",
           diags);
    if (diags.size() > before) {
      std::vector<std::string> notes;
      for (const std::size_t m : cycle) notes.push_back(modules[m]);
      diags.back().chain = std::move(notes);
    }
  }
}

}  // namespace sjs::lint
