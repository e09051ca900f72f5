#include "lint/diagnostics.hpp"

namespace sjs::lint {

const std::vector<std::pair<const char*, const char*>>& rule_table() {
  static const std::vector<std::pair<const char*, const char*>> kRules = {
      {"unordered-iter",
       "iteration over unordered containers in scheduler/engine/MC hot paths"},
      {"ordered-set-hot-path",
       "std::set/multiset keyed on double in sched//sim//cloud//cluster/ "
       "(use sched::ReadyQueue)"},
      {"banned-time",
       "wall-clock / ambient randomness outside util/rng and util/logging"},
      {"float-eq", "raw ==/!= on floating-point values (use util/fp.hpp)"},
      {"float-type", "float type in simulation code (double-only state)"},
      {"trace-exhaustive",
       "TraceKind enumerator unhandled by the Chrome exporter"},
      {"include-hygiene",
       "non-module-rooted include, <iostream> in a header, or file-scope "
       "using-namespace in a header"},
      {"header-guard", "header missing #pragma once"},
      {"raw-concurrency",
       "raw std::thread/mutex/atomic in serve/sched/cluster/mc/cloud (use "
       "conc::Channel / conc::ShardSet or util/thread_pool)"},
      {"timer-outside-set-timer",
       "kTimer event built or pushed in sim/ outside Engine::set_timer"},
      {"poll-outside-wait-fds",
       "blocking poll/ppoll/epoll_wait in serve/cluster/conc outside "
       "serve::wait_fds"},
      {"bad-suppression", "malformed sjs-lint allow() comment"},
      {"transitive-banned-time",
       "call closure reaches a banned clock/entropy read (chain reported)"},
      {"alloc-in-hot-path",
       "allocation-capable operation reachable from a sjs-hot-path-root"},
      {"include-cycle", "module-level cycle in the include graph"},
  };
  return kRules;
}

bool is_known_rule(const std::string& id) {
  for (const auto& [name, desc] : rule_table()) {
    if (id == name) return true;
  }
  return false;
}

}  // namespace sjs::lint
