// Two-sided discrete-event queue shared by sim::Engine and cloud::MultiEngine.
//
// Events split by churn profile:
//
//   * Static side — events known before the run starts and never cancelled
//     (releases, expiries, capacity changes of a sealed instance). They are
//     pushed up front, sorted once by seal() (an in-place insertion sort
//     that falls back to std::sort on input far from order), and consumed
//     by a cursor walk: O(1) pops, no heap traffic. The walk leaves the
//     sorted events in place, so rewind() replays them without pushing or
//     sorting again.
//   * Volatile side — everything pushed while the run is under way
//     (completions, sim::Engine's timers, and in live mode the late-arriving
//     releases/expiries): a binary min-heap kept in an explicit vector
//     (std::push_heap/pop_heap with greater<>) so dead events can be purged
//     in place.
//
// Merge rule: front()/pop() return the smaller of the two fronts under the
// event type's own total order (Event::operator>). The owner gives every
// event a globally unique sequence number, so the fronts never tie and the
// merged pop sequence is exactly a single priority queue's over the same
// events. Which side an event sits on therefore never changes the pop order;
// it only changes what the pop costs.
//
// Event must provide `bool operator>(const Event&) const`, a strict total
// order.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::sim {

template <typename Event>
class SplitEventQueue {
 public:
  /// Empties both sides, unseals the static side, and zeroes the peak and
  /// dead-event accounting. Keeps every allocation.
  void clear() {
    static_.clear();
    cursor_ = 0;
    sealed_ = false;
    heap_.clear();
    dead_ = 0;
    peak_ = 0;
    dead_peak_ = 0;
  }

  /// Pre-sizes each side to hold at least the given number of events.
  void reserve(std::size_t static_events, std::size_t volatile_events) {
    static_.reserve(static_events);
    heap_.reserve(volatile_events);
  }

  /// Queues an event on the static side; only valid before seal().
  void push_static(const Event& event) {
    SJS_CHECK_MSG(!sealed_, "static-side event pushed after the queue was sealed");
    util::append(static_, event);
  }

  /// Sorts the static side once; from here on it is consumed by the cursor.
  /// Pops read the static side only after this call.
  ///
  /// Adaptive: an in-place insertion sort, because both engines push nearly
  /// in order (releases in canonical order, each expiry right after its
  /// release). Once it has moved n·bit_width(n) events — about std::sort's
  /// own work — it stops and finishes with std::sort, so no input costs more
  /// than about twice a plain sort. The order is the unique sorted order of
  /// a strict total order either way, and nothing is allocated.
  void seal() {
    const std::size_t n = static_.size();
    const std::size_t budget = n * static_cast<std::size_t>(std::bit_width(n));
    std::size_t moves = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (!(static_[i - 1] > static_[i])) continue;
      const Event moving = static_[i];
      std::size_t j = i;
      do {
        static_[j] = static_[j - 1];
        --j;
        ++moves;
      } while (j > 0 && static_[j - 1] > moving && moves < budget);
      static_[j] = moving;
      if (moves >= budget) {
        std::sort(static_.begin(), static_.end(),
                  [](const Event& a, const Event& b) { return b > a; });
        break;
      }
    }
    sealed_ = true;
  }

  /// Replays a sealed queue from the start: the cursor returns to the front
  /// of the kept static side, the volatile heap empties, the dead count and
  /// dead peak return to zero, and the peak to the static side's size. That
  /// is the state right after seal() for an owner that calls track_peak()
  /// after every static push, so the owner skips the pushes and the sort.
  void rewind() {
    SJS_CHECK_MSG(sealed_, "rewind of a queue that was never sealed");
    cursor_ = 0;
    heap_.clear();
    dead_ = 0;
    peak_ = static_.size();
    dead_peak_ = 0;
  }

  /// Queues an event on the volatile heap (any time).
  void push_volatile(const Event& event) {
    // Growth to the episode high-water only; owners that serve live traffic
    // pre-size it with reserve(), so a warmed steady state never grows it.
    util::append(heap_, event);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
  }

  bool empty() const { return heap_.empty() && cursor_ == static_.size(); }
  /// Events pending on both sides, dead ones included.
  std::size_t size() const { return heap_.size() + (static_.size() - cursor_); }
  std::size_t volatile_size() const { return heap_.size(); }

  /// The event pop() would return, or nullptr when empty.
  const Event* front() const {
    const Event* best = cursor_ < static_.size() ? &static_[cursor_] : nullptr;
    if (!heap_.empty() && (best == nullptr || *best > heap_.front())) {
      best = &heap_.front();
    }
    return best;
  }

  /// Heap entries the live-front walk keeps in its frontier.
  static constexpr std::size_t kLiveFrontier = 16;

  /// The time of the first pending event that `is_dead` does not reject,
  /// or +infinity when every pending event is dead (or none is pending).
  ///
  /// `is_dead` must be monotone — an event it rejects stays rejected until
  /// it pops — and popping a dead event must queue nothing, so no live
  /// event can appear before the returned time without a new push. The
  /// static side is walked from the cursor, the heap best-first from its
  /// root over a fixed frontier of kLiveFrontier entries; when a walk runs
  /// out of room it returns the time of the dead event it stopped at, which
  /// is never later than the first live one. So the result always lies
  /// between front()'s time and the first live event's. Const and
  /// allocation-free.
  template <typename Pred>
  double first_live_time(Pred is_dead) const {
    constexpr double kNone = std::numeric_limits<double>::infinity();
    // Static side: the first live event from the cursor, within the budget.
    const Event* stat = nullptr;  // live static candidate
    double stat_bound = kNone;    // its time, or where the walk gave up
    for (std::size_t i = cursor_, budget = kLiveFrontier; i < static_.size();
         ++i) {
      if (!is_dead(static_[i])) {
        stat = &static_[i];
        stat_bound = stat->time;
        break;
      }
      if (--budget == 0) {
        stat_bound = static_[i].time;
        break;
      }
    }
    // Heap: best-first from the root. The frontier holds the indices whose
    // parents were examined and found dead; its smallest entry is the
    // smallest heap event not yet examined.
    std::array<std::size_t, kLiveFrontier> frontier{};
    std::size_t open = heap_.empty() ? 0 : 1;  // frontier[0] = root
    while (open > 0) {
      std::size_t best = 0;
      for (std::size_t k = 1; k < open; ++k) {
        if (heap_[frontier[best]] > heap_[frontier[k]]) best = k;
      }
      const std::size_t at = frontier[best];
      const Event& event = heap_[at];
      // Every remaining heap event sorts after a live static one: done.
      if (stat != nullptr && event > *stat) break;
      if (!is_dead(event)) return std::min(stat_bound, event.time);
      frontier[best] = frontier[--open];
      for (std::size_t child = 2 * at + 1; child <= 2 * at + 2; ++child) {
        if (child >= heap_.size()) break;
        // Overflow: `event` sorts before every unexamined heap event, so
        // its time bounds the first live one from below.
        if (open == kLiveFrontier) return std::min(stat_bound, event.time);
        frontier[open++] = child;
      }
    }
    return stat_bound;
  }

  /// Removes and returns the smaller front. Requires !empty().
  Event pop() {
    if (!heap_.empty() &&
        (cursor_ == static_.size() || static_[cursor_] > heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
      const Event event = heap_.back();
      heap_.pop_back();
      return event;
    }
    return static_[cursor_++];
  }

  // --- Occupancy accounting -------------------------------------------------

  /// Folds size() into the peak; owners that report a peak call it after
  /// each push.
  void track_peak() {
    peak_ = std::max<std::uint64_t>(peak_, size());
  }
  /// Largest pending-event count seen since clear().
  std::uint64_t peak() const { return peak_; }

  /// Counts one queued event as dead (invalidated but still queued; it pops
  /// as a no-op).
  void mark_dead() {
    ++dead_;
    dead_peak_ = std::max<std::uint64_t>(dead_peak_, dead_);
  }
  /// A dead event was popped.
  void unmark_dead() { --dead_; }
  std::size_t dead_count() const { return dead_; }
  /// Largest dead-event count seen since clear().
  std::uint64_t dead_peak() const { return dead_peak_; }

  /// Drops every volatile event for which `is_dead(event)` holds, restores the
  /// heap, and zeroes the dead count. The total order makes the rebuild
  /// order-neutral. O(n).
  template <typename Pred>
  void purge(Pred is_dead) {
    std::erase_if(heap_, is_dead);
    std::make_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
    dead_ = 0;
  }

 private:
  std::vector<Event> static_;
  std::size_t cursor_ = 0;
  bool sealed_ = false;
  std::vector<Event> heap_;
  std::size_t dead_ = 0;
  std::uint64_t peak_ = 0;
  std::uint64_t dead_peak_ = 0;
};

}  // namespace sjs::sim
