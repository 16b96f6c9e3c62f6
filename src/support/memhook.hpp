// Process-wide memory-metering hooks.
//
// The ResourceGovernor (src/runtime/governor.hpp) meters Workspace and
// ScratchArena bytes against a configurable budget, but ScratchArena is a
// header-only support primitive that cannot depend on the runtime layer.
// These hooks invert the dependency: the governor installs charge/uncharge
// function pointers here when it is first constructed, and the arenas call
// through them on every *growth* event.  Arenas are growth-only but not
// long-lived: Executor::run_group builds each lane's ScratchArenas afresh
// for every group of every run (runtime/executor.cpp), so they grow a few
// times per lane per group per run — off the per-tile and per-row paths,
// but not rare.
//
// Uninstalled cost is one relaxed atomic load per growth.  charge may throw
// a coded Error (kResourceExhausted) — admission control happens *before*
// the allocation, so a rejected charge leaves the caller's state intact.
// uncharge never throws.
#pragma once

#include <atomic>
#include <cstdint>

namespace fusedp::detail {

using MemChargeFn = void (*)(std::int64_t bytes);

extern std::atomic<MemChargeFn> mem_charge;    // may throw kResourceExhausted
extern std::atomic<MemChargeFn> mem_uncharge;  // noexcept

// Charges `bytes` through the installed hook; returns the number of bytes
// actually charged (0 when no hook is installed) so the caller can later
// uncharge exactly what it charged, even if the governor was armed midway
// through the process lifetime.
inline std::int64_t charge_bytes(std::int64_t bytes) {
  MemChargeFn f = mem_charge.load(std::memory_order_acquire);
  if (f == nullptr || bytes <= 0) return 0;
  f(bytes);
  return bytes;
}

inline void uncharge_bytes(std::int64_t bytes) noexcept {
  MemChargeFn f = mem_uncharge.load(std::memory_order_acquire);
  if (f != nullptr && bytes > 0) f(bytes);
}

}  // namespace fusedp::detail
