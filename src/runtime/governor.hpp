// Process-wide resource admission control.
//
// The ResourceGovernor meters the bytes held by every Workspace and
// ScratchArena in the process (via the support-layer memhooks) against a
// configurable budget.  With no budget set (the default) it is pure
// bookkeeping: an atomic add per arena growth, plus used/high-water stats.
// With a budget armed, a charge that would overshoot first waits up to
// `max_queue_wait_seconds` for concurrent requests to release memory —
// bounded backoff, so a saturated process degrades into short queueing
// rather than thrashing — and then throws a coded
// Error(kResourceExhausted) naming used/budget/requested bytes.  Callers
// (Workspace::prepare, ScratchArena::ensure) charge *before* allocating, so
// a rejection leaves their state intact and the caller can run again once
// memory frees up.
//
// The governor is a leaky singleton: first use installs the memhooks and it
// lives for the rest of the process (arenas may uncharge during static
// destruction).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

namespace fusedp {

class ResourceGovernor {
 public:
  // The process-wide instance; first call installs the memhooks.
  static ResourceGovernor& instance();

  // Sets the byte budget (0 = unlimited) and how long an over-budget charge
  // may wait for memory to be released before it is rejected.  Does not
  // evict existing charges: a budget below current usage simply rejects new
  // growth until enough is released.
  void set_budget(std::int64_t bytes, double max_queue_wait_seconds = 0.05);
  std::int64_t budget() const;

  // Admits `bytes` (charging them) or throws Error(kResourceExhausted).
  // No-op for bytes <= 0.
  void charge(std::int64_t bytes);
  // Returns `bytes` to the pool and wakes queued charges.  Never throws.
  void uncharge(std::int64_t bytes) noexcept;

  std::int64_t used() const;
  std::int64_t high_water() const;
  std::uint64_t rejections() const;
  std::uint64_t waits() const;  // charges that queued before admission

  // Test hook: clears budget and stats.  Usage is NOT cleared — live arenas
  // still hold their charges and will uncharge them on release.
  void reset_for_test();

 private:
  ResourceGovernor();

  mutable std::mutex mu_;
  std::condition_variable released_;
  std::int64_t budget_ = 0;  // 0 = unlimited
  std::chrono::nanoseconds max_wait_{std::chrono::milliseconds(50)};
  std::int64_t used_ = 0;
  std::int64_t high_water_ = 0;
  std::uint64_t rejections_ = 0;
  std::uint64_t waits_ = 0;
};

// RAII charge used by Workspace: holds a single adjustable charge at the
// governor and releases it on destruction.  adjust_to() charges the delta
// up-front (admission before allocation) when growing and releases the
// delta when shrinking; on a rejected grow the previous charge is kept.
class GovernedCharge {
 public:
  GovernedCharge() = default;
  GovernedCharge(GovernedCharge&& other) noexcept : bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  GovernedCharge& operator=(GovernedCharge&& other) noexcept {
    if (this != &other) {
      release();
      bytes_ = other.bytes_;
      other.bytes_ = 0;
    }
    return *this;
  }
  GovernedCharge(const GovernedCharge&) = delete;
  GovernedCharge& operator=(const GovernedCharge&) = delete;
  ~GovernedCharge() { release(); }

  // Re-targets the held charge to `target_bytes`; throws kResourceExhausted
  // (holding the old charge unchanged) if the growth is not admitted.
  void adjust_to(std::int64_t target_bytes);
  void release() noexcept;
  std::int64_t bytes() const { return bytes_; }

 private:
  std::int64_t bytes_ = 0;
};

}  // namespace fusedp
