// Fixture: alloc-in-hot-path reports src/cloud/. A global scheduler that
// collects its winners with push_back on every interrupt is flagged; the
// variant that fills a member sized once at start-up stays silent.
#include <cstddef>
#include <vector>

namespace sjs::cloud {

struct GlobalPicker {
  std::vector<int> chosen_;

  // Setup: not reachable from the root.
  void on_start(std::size_t servers) { chosen_.resize(servers); }

  // BAD: alloc-in-hot-path (reachable from on_interrupt()).
  void pick_growing(std::vector<int>& winners, std::size_t servers) {
    for (std::size_t s = 0; s < servers; ++s) {
      winners.push_back(static_cast<int>(s));
    }
  }

  void pick_presized(std::size_t servers) {
    for (std::size_t s = 0; s < servers; ++s) {
      chosen_[s] = static_cast<int>(s);
    }
  }

  // sjs-hot-path-root
  void on_interrupt(std::vector<int>& winners, std::size_t servers) {
    pick_growing(winners, servers);
    pick_presized(servers);
  }
};

}  // namespace sjs::cloud
