// Fixture: alloc-in-hot-path knows reserve() and assign(). A hot loop that
// re-reserves or re-assigns its scratch on every step is flagged twice; the
// start-up reserve and assign are unreachable from the root and stay
// silent.
#include <cstddef>
#include <vector>

namespace fixture {

struct Scratch {
  std::vector<double> buf_;
  std::vector<int> marks_;

  // Setup: not reachable from the root.
  void setup(std::size_t n) {
    buf_.reserve(n);
    marks_.assign(n, 0);
  }

  // BAD: alloc-in-hot-path (reserve reachable from step()).
  void regrow(std::size_t n) { buf_.reserve(n); }

  // BAD: alloc-in-hot-path (assign reachable from step()).
  void refill(std::size_t n) { marks_.assign(n, 0); }

  // sjs-hot-path-root
  void step(std::size_t n) {
    regrow(n);
    refill(n);
  }
};

}  // namespace fixture
