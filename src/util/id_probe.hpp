// Robin Hood linear probing over a power-of-two table keyed by a job id's
// low bits.
//
// The id-keyed tables beside the job window (sched::ReadyQueue's position
// index, obs::TraceMetricsBridge's release stamps) start a job's search at
// slot `id & mask`, like sim::JobTable's ring. Ids that collide there take
// a later slot instead of doubling the table, so a table sized for the jobs
// it holds at once stays that size however far apart their ids are (a
// spilled straggler is thousands of ids below the newest job).
//
// The entries of a probe run stay ordered by their distance from home: an
// insertion takes the slot of the first entry that sits closer to its home
// than the newcomer would, and that entry moves on. So a search stops at the
// first entry closer to home than the id it looks for, and a deletion shifts
// back only the entries behind it that are away from home. Queued ids are
// mostly runs of consecutive ids, each in its own home slot, where a lookup,
// an insertion or a deletion touches one or two slots; a batch run, whose
// ids never collide, finds every id at home.
//
// A table supplies `id_at(slot)`: the id a slot holds, or kFreeSlot (-1,
// the value of kNoJob) when it is free.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sjs::util {

/// What id_at() returns for a free slot.
inline constexpr std::int64_t kFreeSlot = -1;

/// The slot holding `id`, or mask + 1 when the table does not hold it.
template <typename IdAt>
std::size_t probe_find(std::size_t mask, std::int64_t id, IdAt id_at) {
  std::size_t s = static_cast<std::size_t>(id) & mask;
  for (std::size_t d = 0; d <= mask; ++d, s = (s + 1) & mask) {
    const std::int64_t held = id_at(s);
    if (held == id) return s;
    if (held == kFreeSlot ||
        ((s - static_cast<std::size_t>(held)) & mask) < d) {
      break;
    }
  }
  return mask + 1;
}

/// Inserts `entry`, whose id `id_of(entry)` the table does not hold, into a
/// table with a free slot. `exchange(slot, entry)` swaps the entry in `slot`
/// with `entry` (what a free slot hands back is never read).
template <typename Entry, typename IdAt, typename IdOf, typename Exchange>
void probe_insert(std::size_t mask, Entry entry, IdAt id_at, IdOf id_of,
                  Exchange exchange) {
  std::size_t s = static_cast<std::size_t>(id_of(entry)) & mask;
  for (std::size_t d = 0;; ++d, s = (s + 1) & mask) {
    const std::int64_t held = id_at(s);
    if (held == kFreeSlot) {
      exchange(s, entry);
      return;
    }
    const std::size_t held_d = (s - static_cast<std::size_t>(held)) & mask;
    if (held_d < d) {
      exchange(s, entry);  // `entry` is now the one displaced
      d = held_d;
    }
  }
}

/// Removes the entry at `hole` and shifts back the entries behind it that
/// are away from home (backward-shift deletion: no tombstones).
/// `move(dst, src)` moves slot src's entry to dst; `clear(slot)` frees a
/// slot.
template <typename IdAt, typename Move, typename Clear>
void probe_erase(std::size_t mask, std::size_t hole, IdAt id_at, Move move,
                 Clear clear) {
  for (std::size_t n = 0; n < mask; ++n) {
    const std::size_t j = (hole + 1) & mask;
    const std::int64_t id = id_at(j);
    if (id == kFreeSlot || (static_cast<std::size_t>(id) & mask) == j) break;
    move(hole, j);
    hole = j;
  }
  clear(hole);
}

}  // namespace sjs::util
