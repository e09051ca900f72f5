#include "cloud/ranked_live_set.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/vec.hpp"

namespace sjs::cloud {

void RankedLiveSet::begin_run(std::size_t head_capacity,
                              std::size_t id_bound) {
  SJS_CHECK_MSG(head_capacity > 0, "ranked live set needs a head of >= 1");
  capacity_ = head_capacity;
  head_.clear();
  head_.reserve(head_capacity);
  tail_.clear();
  tail_.reserve(id_bound);
}

void RankedLiveSet::insert_head(const Entry& entry) {
  // Growth to K only: reset() reserved the head, so this never allocates.
  util::append(head_, entry);
  std::size_t i = head_.size() - 1;
  while (i > 0 && before(entry, head_[i - 1])) {
    head_[i] = head_[i - 1];
    --i;
  }
  head_[i] = entry;
}

void RankedLiveSet::insert(double key, JobId id) {
  const Entry entry{key, id};
  if (head_.size() < capacity_) {
    insert_head(entry);  // the tail is empty while the head has room
    return;
  }
  if (!before(entry, head_.back())) {
    tail_.push(key, id);
    return;
  }
  // The newcomer displaces the head's worst entry, which now ranks first in
  // the tail.
  const Entry displaced = head_.back();
  head_.pop_back();
  tail_.push(displaced.key, displaced.id);
  insert_head(entry);
}

bool RankedLiveSet::erase(JobId id) {
  if (tail_.erase(id)) return true;
  const auto it = std::find_if(head_.begin(), head_.end(),
                               [id](const Entry& e) { return e.id == id; });
  if (it == head_.end()) return false;
  std::copy(it + 1, head_.end(), it);
  head_.pop_back();
  // The tail's best ranks after every remaining head entry: it refills the
  // head at the back.
  if (!tail_.empty()) util::append(head_, tail_.pop());
  return true;
}

}  // namespace sjs::cloud
