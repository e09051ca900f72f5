// Fork-join parallel loop for embarrassingly parallel Monte-Carlo work.
//
// Design notes (HPC idioms): iterations are split into contiguous blocks, one
// per worker, so adjacent runs (which touch adjacent result slots) stay on
// one thread — no false sharing on the results vector and deterministic
// assignment of work to indices. The calling thread runs the first block
// itself, so a one-worker call starts no thread and keeps the caller's warm
// caches, malloc arena and thread-local recyclers.
#pragma once

#include <cstddef>
#include <functional>

namespace sjs {

/// Runs body(i) for every i in [0, n) on min(threads, n) workers, where
/// `threads` == 0 means std::thread::hardware_concurrency(). The caller runs
/// the first contiguous block and workers − 1 helper threads run the rest;
/// every helper is joined before this returns, on the exception path too.
///
/// A block stops at its first exception. Once all blocks are joined, the
/// exception of the lowest-indexed failing block is rethrown — for a body
/// whose failures depend only on i, the same exception a serial loop over
/// [0, n) would throw.
void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace sjs
