#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

namespace sjs {

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t workers = std::min(threads, n);
  const std::size_t block = (n + workers - 1) / workers;
  // One slot per block, each written only by the thread running that block.
  std::vector<std::exception_ptr> errors((n + block - 1) / block);
  auto run_block = [&body, &errors, block, n](std::size_t b) {
    const std::size_t end = std::min(n, (b + 1) * block);
    try {
      for (std::size_t i = b * block; i < end; ++i) body(i);
    } catch (...) {
      errors[b] = std::current_exception();
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(errors.size() - 1);
  try {
    for (std::size_t b = 1; b < errors.size(); ++b) {
      helpers.emplace_back(run_block, b);
    }
  } catch (...) {
    // Starting a helper failed: join the ones already running, then report.
    for (auto& h : helpers) h.join();
    throw;
  }
  run_block(0);  // catches everything, so the joins below always happen
  for (auto& h : helpers) h.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace sjs
