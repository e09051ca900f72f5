#include "obs/metrics.hpp"

#include <atomic>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "util/id_probe.hpp"
#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::obs {

namespace {
std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1);
}
}  // namespace

MetricsRegistry::MetricsRegistry() : id_(next_registry_id()) {}

void MetricsRegistry::Shard::count(std::string_view name, double delta) {
  // Heterogeneous lookup: the steady-state path (key already present) never
  // builds a std::string. The insert is first-use setup.
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    it->second += delta;
    return;
  }
  counters_.emplace(std::string(name), delta);
}

void MetricsRegistry::Shard::set_gauge(std::string_view name, double value) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    it->second = value;
    return;
  }
  gauges_.emplace(std::string(name), value);
}

void MetricsRegistry::Shard::observe(std::string_view name, double value) {
  auto dist = distributions_.find(name);
  if (dist == distributions_.end()) {
    dist = distributions_.emplace(std::string(name), Welford{}).first;
  }
  dist->second.add(value);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    const auto spec = owner_->histogram_specs_.find(name);
    if (spec == owner_->histogram_specs_.end()) return;
    it = histograms_
             .emplace(std::string(name),
                      Histogram(spec->second.lo, spec->second.hi,
                                spec->second.bins))
             .first;
  }
  it->second.add(value);
}

void MetricsRegistry::declare_histogram(const std::string& name, double lo,
                                        double hi, std::size_t bins) {
  std::lock_guard<std::mutex> lock(mu_);
  SJS_CHECK_MSG(shards_.empty(),
                "declare_histogram() after shards exist would bin "
                "inconsistently; declare before the parallel region");
  histogram_specs_.insert_or_assign(name, HistogramSpec{lo, hi, bins});
}

MetricsRegistry::Shard& MetricsRegistry::local() {
  // Keyed by registry id, not pointer: a destroyed registry's address can be
  // reused, and a stale cache hit would then write into a foreign shard.
  thread_local std::unordered_map<std::uint64_t, Shard*> cache;
  const auto it = cache.find(id_);
  if (it != cache.end()) return *it->second;
  std::lock_guard<std::mutex> lock(mu_);
  // Once per (thread, registry) at first use; every later call takes the
  // thread-local cache fast path above, so the steady state never reaches
  // this allocation.
  util::append(shards_, util::alloc_unique<Shard>(this));
  Shard* shard = shards_.back().get();
  cache.emplace(id_, shard);
  return *shard;
}

std::size_t MetricsRegistry::shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& shard : shards_) {
    for (const auto& [name, value] : shard->counters_) {
      snap.counters[name] += value;
    }
    for (const auto& [name, value] : shard->gauges_) {
      auto [it, inserted] = snap.gauges.emplace(name, value);
      if (!inserted && value > it->second) it->second = value;
    }
    for (const auto& [name, welford] : shard->distributions_) {
      snap.distributions[name].merge(welford);
    }
    for (const auto& [name, histogram] : shard->histograms_) {
      auto [it, inserted] = snap.histograms.emplace(name, histogram);
      if (!inserted) it->second.merge(histogram);
    }
  }
  return snap;
}

std::string MetricsSnapshot::render() const {
  std::ostringstream os;
  if (!counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, value] : counters) {
      os << "  " << name << ": " << value << "\n";
    }
  }
  if (!gauges.empty()) {
    os << "gauges:\n";
    for (const auto& [name, value] : gauges) {
      os << "  " << name << ": " << value << "\n";
    }
  }
  if (!distributions.empty()) {
    os << "distributions:\n";
    for (const auto& [name, w] : distributions) {
      os << "  " << name << ": n=" << w.count() << " mean=" << w.mean()
         << " sd=" << w.stddev_sample() << " min=" << w.min()
         << " max=" << w.max() << "\n";
    }
  }
  for (const auto& [name, histogram] : histograms) {
    os << "histogram " << name << ":\n" << histogram.render();
  }
  return os.str();
}

namespace {
// Pre-joined "trace.<kind>" counter names, indexed by TraceKind. Keeping the
// table static makes the per-event counter bump string-free (the old
// std::string("trace.") + kind_name(...) concatenation allocated per event).
constexpr const char* kTraceCounterName[] = {
    "trace.run_start", "trace.release", "trace.dispatch",
    "trace.preempt",   "trace.idle",    "trace.complete",
    "trace.expire",    "trace.timer",   "trace.capacity_change",
    "trace.migrate",   "trace.note",    "trace.run_end",
};
static_assert(sizeof(kTraceCounterName) / sizeof(kTraceCounterName[0]) ==
              static_cast<std::size_t>(TraceKind::kRunEnd) + 1);
}  // namespace

std::size_t TraceMetricsBridge::slot_of(JobId job) const {
  return util::probe_find(stamps_.size() - 1, job,
                          [this](std::size_t s) { return stamps_[s].job; });
}

void TraceMetricsBridge::insert_stamp(const Stamp& stamp) {
  util::probe_insert(
      stamps_.size() - 1, stamp,
      [this](std::size_t s) { return stamps_[s].job; },
      [](const Stamp& st) { return st.job; },
      [this](std::size_t s, Stamp& st) { std::swap(stamps_[s], st); });
}

void TraceMetricsBridge::grow_stamps() {
  std::vector<Stamp> old;
  old.swap(stamps_);
  util::grow(stamps_, old.empty() ? std::size_t{64} : 2 * old.size());
  for (const Stamp& s : old) {
    if (s.job != kNoJob) insert_stamp(s);
  }
}

void TraceMetricsBridge::record(const TraceEvent& event) {
  shard_->count(kTraceCounterName[static_cast<std::size_t>(event.kind)]);
  switch (event.kind) {
    case TraceKind::kRelease: {
      // Growth with the unresolved count only; colliding ids probe.
      if (2 * (stamped_ + 1) > stamps_.size()) grow_stamps();
      insert_stamp(Stamp{event.job, event.time, event.b});
      ++stamped_;
      break;
    }
    case TraceKind::kComplete:
    case TraceKind::kExpire: {
      if (stamps_.empty()) break;
      const std::size_t slot = slot_of(event.job);
      // Not stamped: released before the bridge attached.
      if (slot == stamps_.size()) break;
      const Stamp& s = stamps_[slot];
      if (event.kind == TraceKind::kComplete) {
        shard_->observe("job.response_time", event.time - s.release);
        shard_->observe("job.slack_at_completion", s.deadline - event.time);
      }
      util::probe_erase(
          stamps_.size() - 1, slot,
          [this](std::size_t i) { return stamps_[i].job; },
          [this](std::size_t dst, std::size_t src) {
            stamps_[dst] = stamps_[src];
          },
          [this](std::size_t i) { stamps_[i].job = kNoJob; });
      --stamped_;
      break;
    }
    case TraceKind::kRunEnd:
      if (event.b > 0.0) {
        shard_->observe("run.value_fraction", event.a / event.b);
      }
      break;
    default:
      break;
  }
}

}  // namespace sjs::obs
