#include "sched/ready_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::sched {

namespace {

// Thread-local buffer recycler. The Monte-Carlo driver constructs one fresh
// scheduler per (run, scheduler) cell on the thread running that run's
// block (the caller's own for the first block); donating a
// destroyed queue's buffers here and adopting them in the next queue makes
// the steady state allocation-free across cells, mirroring Engine::reset()'s
// reuse of the event heap and timer slab. Thread-local keeps it race-free
// (TSan-clean) and deterministic: buffer identity never influences behavior.
// The cap bounds worst-case retention (a V-Dover cell donates six buffers of
// each kind).
constexpr std::size_t kRecyclerCap = 8;

struct BufferRecycler {
  std::vector<std::vector<ReadyQueue::Entry>> entries;
  std::vector<std::vector<std::uint32_t>> positions;
};

BufferRecycler& recycler() {
  thread_local BufferRecycler pool;
  return pool;
}

}  // namespace

ReadyQueue::ReadyQueue(QueueOrder order) : order_(order) {
  BufferRecycler& pool = recycler();
  if (!pool.entries.empty()) {
    heap_ = std::move(pool.entries.back());
    pool.entries.pop_back();
    heap_.clear();
  }
  if (!pool.positions.empty()) {
    pos_ = std::move(pool.positions.back());
    pool.positions.pop_back();
    pos_.clear();
  }
  if (!pool.positions.empty()) {
    where_ = std::move(pool.positions.back());
    pool.positions.pop_back();
    where_.clear();
  }
  if (!pool.entries.empty()) {
    scratch_ = std::move(pool.entries.back());
    pool.entries.pop_back();
    scratch_.clear();
  }
}

ReadyQueue::~ReadyQueue() {
  BufferRecycler& pool = recycler();
  if (heap_.capacity() > 0 && pool.entries.size() < kRecyclerCap) {
    heap_.clear();
    pool.entries.push_back(std::move(heap_));
  }
  if (scratch_.capacity() > 0 && pool.entries.size() < kRecyclerCap) {
    scratch_.clear();
    pool.entries.push_back(std::move(scratch_));
  }
  if (pos_.capacity() > 0 && pool.positions.size() < kRecyclerCap) {
    pos_.clear();
    pool.positions.push_back(std::move(pos_));
  }
  if (where_.capacity() > 0 && pool.positions.size() < kRecyclerCap) {
    where_.clear();
    pool.positions.push_back(std::move(where_));
  }
}

void ReadyQueue::index_insert(std::uint32_t p) {
  util::probe_insert(
      pos_.size() - 1, p, [this](std::size_t s) { return id_in(s); },
      [this](std::uint32_t q) { return heap_[q].id; },
      [this](std::size_t s, std::uint32_t& q) {
        std::swap(pos_[s], q);
        where_[pos_[s]] = static_cast<std::uint32_t>(s);
      });
}

void ReadyQueue::resize_index(std::size_t slots) {
  util::grow(pos_, slots);
  std::fill(pos_.begin(), pos_.end(), kNpos);
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    index_insert(static_cast<std::uint32_t>(i));
  }
}

void ReadyQueue::reserve(std::size_t id_bound) {
  // This IS the pre-sizing remedy: reserve every table before the hot loop,
  // so growth up to id_bound queued jobs stays within capacity. Capacity
  // is reserved, not written: the index starts at kFirstSlots and doubles
  // with the queue, so only the pages the queue's occupancy needs are
  // touched. The index may be half full, hence twice the slots. The
  // scratch is included so all buffers a queue donates to the recycler
  // have capacity >= id_bound, and the two index buffers are both reserved
  // for the index's slots — whichever buffer the next same-sized queue
  // adopts, its own reserve() is then a no-op (the zero-allocation warmed
  // steady state depends on this interchangeability).
  const std::size_t slots =
      2 * std::bit_ceil(std::max(id_bound, kFirstSlots / 2));
  where_.reserve(slots);
  pos_.reserve(slots);
  heap_.reserve(id_bound);
  scratch_.reserve(id_bound);
}

void ReadyQueue::clear() {
  // Only the index in use: its size follows the queue's peak, not the
  // reservation.
  std::fill(pos_.begin(), pos_.end(), kNpos);
  heap_.clear();
  where_.clear();
}

double ReadyQueue::key_of(JobId id) const {
  SJS_CHECK_MSG(contains(id), "ReadyQueue::key_of on absent job " << id);
  return heap_[pos_[index_slot(id)]].key;
}

const ReadyQueue::Entry& ReadyQueue::top() const {
  SJS_CHECK_MSG(!heap_.empty(), "ReadyQueue::top on an empty queue");
  return heap_.front();
}

void ReadyQueue::push(double key, JobId id) {
  SJS_CHECK_MSG(id >= 0, "ReadyQueue::push of invalid job " << id);
  // Growth with the queue's occupancy only, within reserve()'s capacity:
  // the index doubles once it would be more than half full, and colliding
  // ids probe instead of growing it.
  if (pos_.empty()) resize_index(kFirstSlots);
  if (2 * (heap_.size() + 1) > pos_.size()) resize_index(2 * pos_.size());
  SJS_CHECK_MSG(!contains(id), "ReadyQueue::push of already-queued job " << id);
  util::append(heap_, Entry{key, id});
  util::append(where_, kNpos);
  index_insert(static_cast<std::uint32_t>(heap_.size() - 1));
  sift_up(heap_.size() - 1);
  peak_ = std::max<std::uint64_t>(peak_, heap_.size());
}

ReadyQueue::Entry ReadyQueue::pop() {
  SJS_CHECK_MSG(!heap_.empty(), "ReadyQueue::pop on an empty queue");
  const Entry best = heap_.front();
  remove_at(0);
  return best;
}

bool ReadyQueue::erase(JobId id) {
  if (id < 0 || pos_.empty()) return false;
  const std::size_t s = index_slot(id);
  if (s == pos_.size()) return false;
  remove_at(pos_[s]);
  return true;
}

void ReadyQueue::remove_at(std::size_t slot) {
  // Free the index entry first, while every entry still names its slot.
  util::probe_erase(
      pos_.size() - 1, where_[slot],
      [this](std::size_t s) { return id_in(s); },
      [this](std::size_t dst, std::size_t src) {
        pos_[dst] = pos_[src];
        where_[pos_[dst]] = static_cast<std::uint32_t>(dst);
      },
      [this](std::size_t s) { pos_[s] = kNpos; });
  const Entry last = heap_.back();
  const std::uint32_t last_index = where_.back();
  heap_.pop_back();
  where_.pop_back();
  if (slot == heap_.size()) return;
  place(slot, last, last_index);
  // The replacement may violate the heap property in either direction.
  sift_down(slot);
  if (heap_[slot].id == last.id) sift_up(slot);
}

void ReadyQueue::update_key(JobId id, double key) {
  SJS_CHECK_MSG(contains(id), "ReadyQueue::update_key on absent job " << id);
  const std::size_t slot = pos_[index_slot(id)];
  const Entry updated{key, id};
  const bool toward_top = before(updated, heap_[slot]);
  heap_[slot].key = key;
  if (toward_top) {
    sift_up(slot);
  } else {
    sift_down(slot);
  }
}

void ReadyQueue::sift_up(std::size_t slot) {
  const Entry moving = heap_[slot];
  const std::uint32_t index = where_[slot];
  while (slot > 0) {
    const std::size_t parent = (slot - 1) / kArity;
    if (!before(moving, heap_[parent])) break;
    place(slot, heap_[parent], where_[parent]);
    slot = parent;
  }
  place(slot, moving, index);
}

void ReadyQueue::sift_down(std::size_t slot) {
  const Entry moving = heap_[slot];
  const std::uint32_t index = where_[slot];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first_child = slot * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moving)) break;
    place(slot, heap_[best], where_[best]);
    slot = best;
  }
  place(slot, moving, index);
}

void ReadyQueue::snapshot_ordered() const {
  // Growth to the queue's high-water only: the scratch keeps its capacity.
  util::grow(scratch_, heap_.size());
  std::copy(heap_.begin(), heap_.end(), scratch_.begin());
  std::sort(scratch_.begin(), scratch_.end(),
            [this](const Entry& a, const Entry& b) { return before(a, b); });
}

}  // namespace sjs::sched
