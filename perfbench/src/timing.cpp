#include "timing.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>

namespace pb {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* span_name(SpanName name) {
  static constexpr std::array<const char*, kSpanNames> kNames = {
      "serve.step",         "sched.on_release",   "sched.on_complete",
      "sched.on_expire",    "sched.on_timer",     "sched.on_capacity_change",
      "cluster.on_release", "cluster.on_complete", "cluster.on_expire",
      "serve.decode",       "serve.encode",       "serve.gate",
      "serve.journal_append", "cluster.journal_append", "sim.admit_live",
      "sim.advance_to",     "cloud.admit_live",   "cloud.advance_to",
      "conc.hop",           "jobs.generate",      "capacity.sample_paths",
      "sim.run_to_completion", "cluster.run_cluster"};
  return kNames[static_cast<std::size_t>(name)];
}

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity_);
  stack_.reserve(64);
}

std::uint32_t SpanLog::open(SpanName name, std::uint64_t ticket) {
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back().index;
  std::int64_t index = -1;
  const std::int64_t start = now_ns();
  if (spans_.size() < capacity_) {
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{name, parent, ticket, start, 0});
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, index, start, 0});
  return static_cast<std::uint32_t>(stack_.size() - 1);
}

void SpanLog::close(std::uint32_t handle) {
  const std::int64_t end = now_ns();
  // Spans close in reverse open order; the handle is the stack depth.
  const Open top = stack_[handle];
  stack_.resize(handle);
  const std::int64_t dur = end - top.start_ns;
  if (top.index >= 0) spans_[static_cast<std::size_t>(top.index)].end_ns = end;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  SpanAgg& a = agg_[static_cast<std::size_t>(top.name)];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur - top.child_ns;
}

void SpanLog::write_csv(std::FILE* out) const {
  for (const Span& s : spans_) {
    std::fprintf(out, "%s,%lld,%lld,%lld,%lld\n", span_name(s.name),
                 static_cast<long long>(s.parent),
                 s.ticket == kNoTicket ? -1LL : static_cast<long long>(s.ticket),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
}

void JsonOut::num(const std::string& key, double value) {
  if (!body_.empty()) body_ += ", ";
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  body_ += "\"" + key + "\": " + buf;
}

void JsonOut::list(const std::string& key, const std::vector<double>& values) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + key + "\": [";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), i ? ", %.9g" : "%.9g", values[i]);
    body_ += buf;
  }
  body_ += "]";
}

void JsonOut::str(const std::string& key, const std::string& value) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + key + "\": \"" + value + "\"";
}

void JsonOut::agg(const std::string& prefix, const SpanAgg& a) {
  num(prefix + ".count", static_cast<double>(a.count));
  num(prefix + ".total_ns", static_cast<double>(a.total_ns));
  num(prefix + ".self_ns", static_cast<double>(a.self_ns));
}

}  // namespace pb
