// Fixture: ordered-set-hot-path must also fire in cluster/ (and cloud/), where
// the fleet's global schedulers keep their live sets, and must still ignore
// sets not keyed on double and honour an audited suppression.
#include <cstddef>
#include <set>
#include <utility>

namespace fixture {

struct FleetDispatcher {
  std::set<std::pair<double, long>> live_;        // BAD: ordered-set-hot-path
  std::set<std::size_t> rented_;                  // OK: not keyed on double
  // sjs-lint: allow(ordered-set-hot-path): cold path, audited 2026-10
  std::set<std::pair<double, long>> history_;     // suppressed
};

}  // namespace fixture
