#ifndef CHAMELEON_FM_DEADLINE_H_
#define CHAMELEON_FM_DEADLINE_H_

#include <atomic>

namespace chameleon::fm {

/// Per-request deadline and cancellation context on the virtual clock.
///
/// ResilientFoundationModel charges every attempt and backoff to the
/// attached Deadline (AdvanceMs) and fails fast with kDeadlineExceeded
/// once it expires or is cancelled; the repair pipeline checks ShouldStop
/// between rounds and parks the remaining plan entries. A Deadline is
/// owned by one request, so one request's retry storm can never burn an
/// unrelated request's budget.
///
/// Thread-safe: the serving layer cancels from its control thread while a
/// worker advances the clock. All time is virtual milliseconds; no wall
/// clock is ever read (see the chameleon-determinism lint rule).
class Deadline {
 public:
  /// Unlimited budget: never expires, but remains cancellable.
  Deadline() = default;
  /// Expires once the request has consumed `budget_ms` virtual
  /// milliseconds; a budget <= 0 means unlimited.
  explicit Deadline(double budget_ms) : budget_ms_(budget_ms) {}

  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;

  /// Charges `ms` virtual milliseconds to this request.
  void AdvanceMs(double ms) {
    elapsed_ms_.fetch_add(ms, std::memory_order_relaxed);
  }

  double ElapsedMs() const {
    return elapsed_ms_.load(std::memory_order_relaxed);
  }
  double budget_ms() const { return budget_ms_; }

  bool Expired() const {
    return budget_ms_ > 0.0 && ElapsedMs() >= budget_ms_;
  }

  /// Requests cooperative cancellation; irrevocable for this request.
  void MarkCancelled() { cancelled_.store(true, std::memory_order_release); }
  bool Cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  /// True once the request must stop issuing new work (cancelled or out
  /// of budget). In-flight tuples still merge: callers stop at the next
  /// round boundary, which is what keeps partial reports deterministic.
  bool ShouldStop() const { return Cancelled() || Expired(); }

 private:
  const double budget_ms_ = 0.0;
  std::atomic<double> elapsed_ms_{0.0};
  std::atomic<bool> cancelled_{false};
};

}  // namespace chameleon::fm

#endif  // CHAMELEON_FM_DEADLINE_H_
