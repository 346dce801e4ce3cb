#include "pf/analysis/execution.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "pf/util/error.hpp"

namespace pf::analysis {
namespace {

[[noreturn]] void throw_cancelled(const pf::CancellationToken& token) {
  std::ostringstream os;
  os << "sweep cancelled (" << token.reason() << ")";
  throw pf::CancelledError(os.str());
}

}  // namespace

int resolve_worker_count(int threads) {
  if (threads > 0) return threads;
  if (threads < 0) return 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ParallelGridRunner::ParallelGridRunner(const ExecutionPolicy& policy)
    : workers_(resolve_worker_count(policy.threads)),
      progress_(policy.progress),
      cancel_(policy.cancel) {
  // First-arm-wins on the shared token state: re-constructing a runner for
  // each sweep of a multi-sweep driver does not reset the global budget.
  if (policy.deadline_seconds > 0.0)
    cancel_.arm_deadline_after(policy.deadline_seconds);
}

void ParallelGridRunner::run(
    size_t n, const std::function<void(size_t, int)>& work) const {
  if (n == 0) return;
  const int pool =
      static_cast<int>(std::min<size_t>(static_cast<size_t>(workers_), n));

  if (pool <= 1) {
    // Serial path: plain loop on the calling thread, exceptions propagate
    // directly (the first failing index is necessarily the lowest one).
    for (size_t i = 0; i < n; ++i) {
      if (cancel_.stop_requested()) throw_cancelled(cancel_);
      work(i, 0);
      if (progress_) progress_(i + 1, n);
    }
    return;
  }

  std::atomic<size_t> cursor{0};
  std::atomic<size_t> done{0};
  std::atomic<bool> stop{false};
  std::mutex mu;  // serializes the progress callback and error capture
  size_t error_index = std::numeric_limits<size_t>::max();
  std::exception_ptr error;

  const auto worker_body = [&](int worker) {
    while (!stop.load(std::memory_order_relaxed)) {
      if (cancel_.stop_requested()) break;
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        work(i, worker);
      } catch (const pf::CancelledError&) {
        // The token tripped mid-point (solver watchdog). Not a per-point
        // error: the loop condition rethrows uniformly after the drain.
        break;
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        stop.store(true, std::memory_order_relaxed);
        continue;
      }
      const size_t completed = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (progress_) {
        std::lock_guard<std::mutex> lock(mu);
        progress_(completed, n);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(pool) - 1);
  for (int w = 1; w < pool; ++w) threads.emplace_back(worker_body, w);
  worker_body(0);  // the calling thread is worker 0
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  if (cancel_.stop_requested()) throw_cancelled(cancel_);
}

}  // namespace pf::analysis
