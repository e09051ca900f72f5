// Phase-1 (per-file) rules. Those ported from the original single-pass
// sjs_lint have frozen diagnostic text, coordinates, and firing conditions:
// tests/lint_test.cpp diffs the output on the fixture tree against
// tests/lint_fixtures/legacy_golden.txt, so any drift here is a test
// failure, not a silent behavior change.
#include <cctype>
#include <regex>
#include <set>

#include "lint/rules.hpp"

namespace sjs::lint {

// ---------------------------------------------------------------------------
// Rule: unordered-iter
// ---------------------------------------------------------------------------

void check_unordered_iter(const SourceFile& file,
                          std::vector<Diagnostic>& diags) {
  if (!is_hot_path_dir(file.rel)) return;
  // Pass 1: names declared (locals or members) with an unordered type.
  static const std::regex decl_re(
      R"((?:std::)?unordered_(?:map|set|multimap|multiset)\s*<)");
  static const std::regex name_re(R"(>\s*&?\s*([A-Za-z_][A-Za-z0-9_]*)\s*[;={(])");
  std::set<std::string> unordered_names;
  for (const std::string& code : file.code) {
    std::smatch m;
    if (!std::regex_search(code, m, decl_re)) continue;
    // Find the declared name after the closing template bracket.
    std::smatch n;
    std::string tail = code.substr(static_cast<std::size_t>(m.position()));
    if (std::regex_search(tail, n, name_re)) {
      unordered_names.insert(n[1]);
    }
  }
  // Pass 2: range-for over an unordered-typed name or inline unordered
  // expression, and explicit .begin()/.cbegin() iteration.
  static const std::regex range_for_re(
      R"(for\s*\(.*:\s*([A-Za-z_][A-Za-z0-9_.\->]*)\s*\))");
  static const std::regex begin_re(
      R"(([A-Za-z_][A-Za-z0-9_]*)\s*\.\s*c?begin\s*\()");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    std::smatch m;
    if (std::regex_search(code, m, range_for_re)) {
      std::string target = m[1];
      // Last path component of `a.b->c` chains.
      const std::size_t cut = target.find_last_of(".>");
      std::string leaf = cut == std::string::npos ? target : target.substr(cut + 1);
      if (unordered_names.count(leaf) || unordered_names.count(target) ||
          code.find("unordered_") != std::string::npos) {
        report(file, i + 1, static_cast<std::size_t>(m.position()) + 1,
               "unordered-iter",
               "range-for over unordered container '" + target +
                   "': iteration order is implementation-defined and leaks "
                   "into schedule decisions / replay digests; use an ordered "
                   "container or sort the keys first",
               diags);
      }
    }
    for (auto it = std::sregex_iterator(code.begin(), code.end(), begin_re);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1];
      if (unordered_names.count(name)) {
        report(file, i + 1, static_cast<std::size_t>(it->position()) + 1,
               "unordered-iter",
               "iterator walk over unordered container '" + name +
                   "': iteration order is implementation-defined; use an "
                   "ordered container or sort the keys first",
               diags);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: ordered-set-hot-path
// ---------------------------------------------------------------------------

// std::set / std::multiset keyed on double (including pair<double, ...>) in
// the scheduler/engine hot paths — the single-server schedulers and engine
// (sched/, sim/) and the fleet's global schedulers and engine (cloud/,
// cluster/): every insert/erase is a node allocation plus a pointer-chasing
// rebalance, and erase-by-value needs the exact key. sched::ReadyQueue (and
// cloud::RankedLiveSet, built on it, for top-K live sets) provides the same
// deterministic (key, id) order over flat storage with O(log n) erase-by-id
// and no per-operation allocation.
void check_ordered_set_hot_path(const SourceFile& file,
                                std::vector<Diagnostic>& diags) {
  if (!path_in(file.rel, "sched") && !path_in(file.rel, "sim") &&
      !path_in(file.rel, "cloud") && !path_in(file.rel, "cluster")) {
    return;
  }
  static const std::regex ordered_set_re(
      R"((?:std::)?(?:multi)?set\s*<\s*(?:(?:std::)?pair\s*<\s*double\b|double\b))");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    for (auto it =
             std::sregex_iterator(code.begin(), code.end(), ordered_set_re);
         it != std::sregex_iterator(); ++it) {
      const auto pos = static_cast<std::size_t>(it->position());
      // std::regex (ECMAScript) has no lookbehind: drop matches that are the
      // tail of a longer identifier (unordered_set, flat_set, ...).
      if (pos > 0 &&
          (std::isalnum(static_cast<unsigned char>(code[pos - 1])) ||
           code[pos - 1] == '_')) {
        continue;
      }
      report(file, i + 1, pos + 1, "ordered-set-hot-path",
             "ordered std::set/std::multiset keyed on double in a "
             "scheduler/engine hot path allocates a node per insert and "
             "rebalances on every churn; use sched::ReadyQueue "
             "(sched/ready_queue.hpp) — same deterministic (key, id) order "
             "over flat storage with O(log n) erase-by-id",
             diags);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: banned-time
// ---------------------------------------------------------------------------

void check_banned_time(const SourceFile& file, std::vector<Diagnostic>& diags) {
  if (is_rng_or_logging(file.rel)) return;
  struct Banned {
    std::regex re;
    const char* what;
  };
  static const std::vector<Banned> banned = {
      {std::regex(R"((?:std::)?\brand\s*\()"), "std::rand()"},
      {std::regex(R"((?:std::)?\bsrand\s*\()"), "std::srand()"},
      {std::regex(R"(\brandom_device\b)"), "std::random_device"},
      {std::regex(R"(\b\w*_clock\s*::\s*now\b)"), "std::chrono::*_clock::now"},
      {std::regex(R"(\btime\s*\(\s*(?:NULL|nullptr|0)\s*\))"),
       "time(nullptr)"},
      {std::regex(R"(\bclock\s*\(\s*\))"), "clock()"},
      {std::regex(R"(\bgettimeofday\s*\()"), "gettimeofday()"},
      {std::regex(R"(\bclock_gettime\s*\()"), "clock_gettime()"},
      {std::regex(R"(\btimespec_get\s*\()"), "timespec_get()"},
  };
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    for (const Banned& b : banned) {
      std::smatch m;
      if (std::regex_search(code, m, b.re)) {
        report(file, i + 1, static_cast<std::size_t>(m.position()) + 1,
               "banned-time",
               std::string(b.what) +
                   " is nondeterministic; all randomness/time must flow "
                   "through the seeded sjs::Rng (util/rng.hpp)",
               diags);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: float-eq
// ---------------------------------------------------------------------------

// Flags `==`/`!=` where an operand is a floating-point literal or an
// identifier with a time-like name. Exact comparison of derived doubles is
// almost always a determinism bug (two algebraically equal expressions need
// not be bit-equal); where exactness IS the contract (digest folding,
// piecewise boundaries), util/fp.hpp names that intent.
void check_float_eq(const SourceFile& file, std::vector<Diagnostic>& diags) {
  static const std::regex fp_lit_cmp(
      R"(([0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?f?\s*(?:==|!=))|((?:==|!=)\s*[0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?f?))");
  static const std::regex time_cmp(
      R"(([A-Za-z_][A-Za-z0-9_]*)\s*(?:==|!=)\s*([A-Za-z_][A-Za-z0-9_.]*)\b)");
  static const std::regex time_name(
      R"(^(?:.*_time|time_?[a-z]*|now|t_now|deadline|deadline_|expiry|expiry_|last_advance_)$)");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    std::smatch m;
    if (std::regex_search(code, m, fp_lit_cmp)) {
      report(file, i + 1, static_cast<std::size_t>(m.position()) + 1,
             "float-eq",
             "raw ==/!= against a floating-point literal; use "
             "sjs::fp::is_zero / sjs::fp::exact_eq / sjs::fp::near "
             "(util/fp.hpp) so the comparison's intent is explicit",
             diags);
      continue;  // one report per line is enough
    }
    for (auto it = std::sregex_iterator(code.begin(), code.end(), time_cmp);
         it != std::sregex_iterator(); ++it) {
      const std::string lhs = (*it)[1];
      std::string rhs = (*it)[2];
      const std::size_t cut = rhs.find_last_of('.');
      if (cut != std::string::npos) rhs = rhs.substr(cut + 1);
      if (std::regex_match(lhs, time_name) || std::regex_match(rhs, time_name)) {
        report(file, i + 1, static_cast<std::size_t>(it->position()) + 1,
               "float-eq",
               "raw ==/!= on simulation-time operands ('" + lhs + "' vs '" +
                   (*it)[2].str() +
                   "'); use sjs::fp::exact_eq/near (util/fp.hpp) to name "
                   "whether exact bit-equality is the contract",
               diags);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: float-type
// ---------------------------------------------------------------------------

void check_float_type(const SourceFile& file, std::vector<Diagnostic>& diags) {
  static const std::regex float_re(R"(\bfloat\b)");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(file.code[i], m, float_re)) {
      report(file, i + 1, static_cast<std::size_t>(m.position()) + 1,
             "float-type",
             "`float` in simulation code: state and signatures are "
             "double-only (float truncation shifts event timestamps and "
             "breaks replay digests); use double",
             diags);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: include-hygiene
// ---------------------------------------------------------------------------

namespace {
const std::set<std::string> kModuleDirs = {
    "util",  "stats",   "capacity", "jobs", "obs",   "sim",  "sched",
    "offline", "theory", "mc",      "cloud", "serve", "conc", "lint",
    "cluster"};
}  // namespace

void check_include_hygiene(const SourceFile& file,
                           std::vector<Diagnostic>& diags) {
  static const std::regex quoted_re(R"(^\s*#\s*include\s*"([^"]+)\")");
  static const std::regex angled_re(R"(^\s*#\s*include\s*<([^>]+)>)");
  static const std::regex using_ns_re(R"(^\s*using\s+namespace\s+)");
  const bool header = is_header(file.rel);
  for (std::size_t i = 0; i < file.raw.size(); ++i) {
    const std::string& line = file.raw[i];
    std::smatch m;
    if (std::regex_search(line, m, quoted_re)) {
      const std::string inc = m[1];
      const std::size_t slash = inc.find('/');
      const std::string top =
          slash == std::string::npos ? std::string() : inc.substr(0, slash);
      if (inc.rfind("../", 0) == 0 || slash == std::string::npos ||
          kModuleDirs.count(top) == 0) {
        report(file, i + 1, 1, "include-hygiene",
               "quoted include \"" + inc +
                   "\" must be module-rooted (e.g. \"util/rng.hpp\"); "
                   "relative and bare includes break when files move and "
                   "defeat include-what-you-use auditing",
               diags);
      }
    } else if (header && std::regex_search(line, m, angled_re)) {
      if (std::string(m[1]) == "iostream") {
        report(file, i + 1, 1, "include-hygiene",
               "<iostream> in a header drags the static iostream "
               "constructors into every TU; include <ostream>/<istream> in "
               "the header and <iostream> only in .cpp files",
               diags);
      }
    }
    if (header && std::regex_search(file.code[i], using_ns_re)) {
      report(file, i + 1, 1, "include-hygiene",
             "file-scope `using namespace` in a header pollutes every "
             "includer; qualify names instead",
             diags);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: header-guard
// ---------------------------------------------------------------------------

void check_header_guard(const SourceFile& file,
                        std::vector<Diagnostic>& diags) {
  if (!is_header(file.rel)) return;
  static const std::regex pragma_once_re(R"(^\s*#\s*pragma\s+once\b)");
  for (const std::string& line : file.code) {
    if (std::regex_search(line, pragma_once_re)) return;
  }
  report(file, 1, 1, "header-guard",
         "header is missing `#pragma once` (double inclusion would be an "
         "ODR hazard)",
         diags);
}

// ---------------------------------------------------------------------------
// Rule: raw-concurrency
// ---------------------------------------------------------------------------

// The sharded admission plane's thread-safety argument is structural: every
// cross-thread interaction flows through conc::Channel / conc::ShardSet
// (src/conc/), so serve/, sched/, and cluster/ code can be audited as
// single-threaded. The Monte-Carlo drivers (mc/) and the fleet engine they
// run (cloud/) parallelise only through util/thread_pool's fork-join
// parallel_for, whose per-run bodies are single-threaded too. A raw
// primitive smuggled into any of these layers silently reopens the
// data-race surface the TSan CI job is meant to have closed — it must either
// move behind conc/ or util/thread_pool, or carry an audited suppression.
void check_raw_concurrency(const SourceFile& file,
                           std::vector<Diagnostic>& diags) {
  if (!path_in(file.rel, "serve") && !path_in(file.rel, "sched") &&
      !path_in(file.rel, "cluster") && !path_in(file.rel, "mc") &&
      !path_in(file.rel, "cloud")) {
    return;
  }
  static const std::regex prim_re(
      R"(\bstd\s*::\s*(thread|jthread|mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|atomic(?:_flag|_ref)?|lock_guard|unique_lock|scoped_lock|shared_lock|counting_semaphore|binary_semaphore|latch|barrier|future|promise|async)\b)");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    for (auto it = std::sregex_iterator(code.begin(), code.end(), prim_re);
         it != std::sregex_iterator(); ++it) {
      report(file, i + 1, static_cast<std::size_t>(it->position()) + 1,
             "raw-concurrency",
             "std::" + (*it)[1].str() +
                 " in src/{serve,sched,cluster,mc,cloud}/: cross-thread "
                 "traffic must flow "
                 "through conc::Channel / conc::ShardSet (src/conc/) or "
                 "util/thread_pool so the layer stays auditable "
                 "single-threaded",
             diags);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: timer-outside-set-timer
// ---------------------------------------------------------------------------

// A kTimer event may be built or pushed only inside Engine::set_timer in
// src/sim/engine.cpp, which gives every queued timer an id from the engine's
// generation-stamped timer slab. A timer queued anywhere else has no slab
// slot: cancel_timer could not leave it dead in O(1), and the lazy
// compaction's dead-event count would drift — both digest-visible failures.
void check_timer_outside_set_timer(const SourceFile& file,
                                   std::vector<Diagnostic>& diags) {
  if (!path_in(file.rel, "sim")) return;
  static const std::regex set_timer_re(R"(\bEngine::set_timer\s*\()");
  static const std::regex queue_re(
      R"(\b(push_event|push_back|emplace_back|push_heap|push_volatile|push_static|emplace|insert)\s*\(|\bEvent\s*\{)");
  const bool engine_cpp = file.rel == "src/sim/engine.cpp";
  bool in_set_timer = false;  // from its signature to the closing brace
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    if (engine_cpp && std::regex_search(code, set_timer_re)) {
      in_set_timer = true;
    } else if (in_set_timer && code.rfind('}', 0) == 0) {
      in_set_timer = false;
    }
    if (in_set_timer || code.find("kTimer") == std::string::npos) continue;
    std::smatch m;
    if (std::regex_search(code, m, queue_re)) {
      report(file, i + 1, static_cast<std::size_t>(m.position()) + 1,
             "timer-outside-set-timer",
             "kTimer event built or pushed outside Engine::set_timer; only "
             "set_timer (src/sim/engine.cpp) may queue a timer, so every "
             "queued timer carries a slab-issued id and cancel_timer can "
             "leave it dead in O(1), the lifecycle the replay digest "
             "depends on",
             diags);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: poll-outside-wait-fds
// ---------------------------------------------------------------------------

// A blocking wait in the serving layers (src/serve, src/cluster, src/conc)
// goes through serve::wait_fds (src/serve/event_loop.cpp), the one
// ppoll(2) site, which takes its timeout in microseconds. A poll(2) or
// epoll_wait(2) timeout counts whole milliseconds, so a wait computed from
// the next event's due time is rounded up to a millisecond boundary and a
// COMPLETED due in between reaches its client late. A zero timeout (a
// nonblocking check) is exempt.
void check_poll_outside_wait_fds(const SourceFile& file,
                                 std::vector<Diagnostic>& diags) {
  if (!path_in(file.rel, "serve") && !path_in(file.rel, "cluster") &&
      !path_in(file.rel, "conc")) {
    return;
  }
  static const std::regex helper_re(R"(^\s*int\s+wait_fds\s*\()");
  static const std::regex call_re(
      R"(\b(poll|ppoll|epoll_wait|epoll_pwait|epoll_pwait2)\s*\()");
  const bool helper_file = file.rel == "src/serve/event_loop.cpp";
  bool in_helper = false;  // from wait_fds's definition to its closing brace
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& code = file.code[i];
    if (helper_file && std::regex_search(code, helper_re)) {
      in_helper = true;
    } else if (in_helper && code.rfind('}', 0) == 0) {
      in_helper = false;
    }
    if (in_helper) continue;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), call_re);
         it != std::sregex_iterator(); ++it) {
      const auto pos = static_cast<std::size_t>(it->position());
      // The timeout argument (poll: third, epoll_wait/epoll_pwait: fourth);
      // a literal 0 is a nonblocking check. ppoll and epoll_pwait2 take a
      // timespec and always count as a wait, as does a call whose argument
      // list does not close on this line.
      const std::string name = (*it)[1];
      const int timeout_arg =
          name == "poll" ? 2 : (name == "epoll_wait" || name == "epoll_pwait")
                                   ? 3
                                   : -1;
      std::vector<std::string> args(1);
      int depth = 0;
      bool closed = false;
      for (std::size_t c = pos + it->length(); c < code.size(); ++c) {
        const char ch = code[c];
        if (ch == '(' || ch == '[' || ch == '{') ++depth;
        if (ch == ')' || ch == ']' || ch == '}') {
          if (depth == 0) {
            closed = true;
            break;
          }
          --depth;
        }
        if (ch == ',' && depth == 0) {
          args.emplace_back();
        } else if (ch != ' ') {
          args.back() += ch;
        }
      }
      if (closed && timeout_arg >= 0 &&
          static_cast<std::size_t>(timeout_arg) < args.size() &&
          args[static_cast<std::size_t>(timeout_arg)] == "0") {
        continue;
      }
      report(file, i + 1, pos + 1, "poll-outside-wait-fds",
             name +
                 "() with a timeout in src/{serve,cluster,conc}/ outside "
                 "serve::wait_fds; every blocking wait goes through "
                 "wait_fds (src/serve/event_loop.cpp), the one ppoll(2) "
                 "site with a microsecond timeout, so no wait for a due "
                 "event is rounded up to a whole millisecond",
             diags);
    }
  }
}

void run_file_rules(const SourceFile& file, std::vector<Diagnostic>& diags) {
  check_unordered_iter(file, diags);
  check_ordered_set_hot_path(file, diags);
  check_banned_time(file, diags);
  check_float_eq(file, diags);
  check_float_type(file, diags);
  check_include_hygiene(file, diags);
  check_header_guard(file, diags);
  check_raw_concurrency(file, diags);
  check_timer_outside_set_timer(file, diags);
  check_poll_outside_wait_fds(file, diags);
}

}  // namespace sjs::lint
