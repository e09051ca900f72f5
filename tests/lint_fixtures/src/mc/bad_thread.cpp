// Fixture: raw-concurrency — src/mc/ drivers parallelise only through
// util/thread_pool's parallel_for, so a hand-rolled worker thread and its
// result lock are flagged; the suppressed counter stays silent.
#include <atomic>
#include <mutex>
#include <thread>

namespace sjs::mc {

struct BadCampaign {
  void run() {
    std::thread worker([this] { std::lock_guard<std::mutex> lock(mu_); });
    worker.join();
  }

  std::mutex mu_;
  // sjs-lint: allow(raw-concurrency): fixture proves suppression works
  std::atomic<int> suppressed_{0};
};

}  // namespace sjs::mc
