// Vector-kernel support: aligned row storage and SIMD loop annotation.
//
// The row-granular code (CompiledRowEvaluator, the executor's per-tile
// scratch) allocates float rows from a growth-only arena whose base is
// 64-byte-aligned and whose per-row stride is padded to a whole number of
// cache lines.  That keeps each row register aligned for
// the widest vector loads the host supports and lets adjacent rows share no
// cache line.
//
// FUSEDP_SIMD marks a loop as dependence-free for the host compiler
// (`#pragma omp simd`).  It asserts vectorizability only — per-element IEEE
// semantics are unchanged, so annotated kernels stay bit-identical to their
// scalar form.  It must NOT be placed on loops calling exp/log/pow: those
// stay scalar-libm by policy (vector math libraries round differently).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "support/memhook.hpp"
#include "support/status.hpp"

#if defined(_OPENMP)
#define FUSEDP_SIMD _Pragma("omp simd")
#else
#define FUSEDP_SIMD
#endif

namespace fusedp {

inline constexpr std::size_t kRowAlignBytes = 64;
inline constexpr std::size_t kRowAlignFloats = kRowAlignBytes / sizeof(float);

// Rounds a row length up to a whole number of 64-byte lines, so row i of a
// multi-row arena starts at an aligned address.
inline std::size_t pad_row_floats(std::size_t n) {
  return (n + kRowAlignFloats - 1) & ~(kRowAlignFloats - 1);
}

// Growth-only aligned scratch: reallocation never copies or zero-fills.
// Safe for the evaluators because every element of a row/region is written
// before anything reads it.
//
// Growth is metered through the process memhooks (admission *before* the
// allocation), so a ResourceGovernor budget turns a would-be OOM into a
// coded kResourceExhausted throw that leaves the arena's existing block —
// and therefore the surrounding Workspace — fully usable.  Each arena
// uncharges exactly the bytes it charged, so arming the governor midway
// through the process never double-counts pre-existing arenas.
class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(ScratchArena&& other) noexcept
      : data_(std::move(other.data_)),
        cap_(other.cap_),
        charged_(other.charged_) {
    other.cap_ = 0;
    other.charged_ = 0;
  }
  ScratchArena& operator=(ScratchArena&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::move(other.data_);
      cap_ = other.cap_;
      charged_ = other.charged_;
      other.cap_ = 0;
      other.charged_ = 0;
    }
    return *this;
  }
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;
  ~ScratchArena() { release(); }

  float* ensure(std::size_t n) {
    if (n > cap_) {
      const std::size_t bytes = pad_row_floats(n) * sizeof(float);
      // Admission first: a rejected charge throws before the old block is
      // freed, so the arena stays usable at its current capacity.  The old
      // and new charges briefly overlap — a deliberate overcount that keeps
      // the "budget covers the post-growth footprint" invariant simple.
      const std::int64_t add =
          detail::charge_bytes(static_cast<std::int64_t>(bytes));
      data_.reset();  // free before allocating the replacement
      void* p = std::aligned_alloc(kRowAlignBytes, bytes);
      if (p == nullptr) {
        detail::uncharge_bytes(add);
        detail::uncharge_bytes(charged_);
        charged_ = 0;
        cap_ = 0;
        throw std::bad_alloc();
      }
      detail::uncharge_bytes(charged_);
      charged_ = add;
      data_.reset(static_cast<float*>(p));
      cap_ = n;
    }
    return data_.get();
  }
  // Frees the block and returns its charge to the governor.
  void release() noexcept {
    data_.reset();
    cap_ = 0;
    detail::uncharge_bytes(charged_);
    charged_ = 0;
  }
  float* data() { return data_.get(); }
  std::size_t capacity() const { return cap_; }
  std::int64_t charged_bytes() const { return charged_; }

 private:
  struct FreeDeleter {
    void operator()(float* p) const { std::free(p); }
  };
  std::unique_ptr<float, FreeDeleter> data_;
  std::size_t cap_ = 0;
  std::int64_t charged_ = 0;  // bytes this arena holds at the governor
};

// ---------------------------------------------------------------------------
// Guarded row carving (ExecOptions::guard_arena).
//
// The compiled row evaluator carves per-op/per-register rows from one
// ScratchArena block, so a kernel that writes past its row silently corrupts
// the *neighbouring register* — a bug class (regalloc aliasing, off-by-one
// row kernels) ASan cannot see because the whole arena is one valid
// allocation.
// RowGuard interposes one cache line of canary words after every row (plus
// a leading line before row 0); the executor checks all canaries after each
// tile and converts a smash into a coded error naming the register.

inline constexpr std::uint32_t kGuardCanaryBits = 0x5AFEC0DEu;
inline constexpr std::size_t kGuardFloats = kRowAlignFloats;  // one line

inline float guard_canary_value() {
  float f;
  std::memcpy(&f, &kGuardCanaryBits, sizeof(f));
  return f;
}

class RowGuard {
 public:
  void set_enabled(bool on) {
    if (on != enabled_) laid_out_ = false;
    enabled_ = on;
  }
  bool enabled() const { return enabled_; }

  // Carves `nrows` rows of `row_floats` (already cache-line padded) floats
  // from `arena` and sets `stride` to the per-row pitch.  Disabled, this is
  // exactly arena.ensure(nrows * row_floats).  Enabled, every row gains a
  // trailing canary line (stride grows by kGuardFloats) and canaries are
  // (re)stamped whenever the layout changes; row data is never touched, so
  // the evaluators' row-reuse optimizations are unaffected.
  float* carve(ScratchArena& arena, std::size_t nrows, std::size_t row_floats,
               std::size_t& stride) {
    if (!enabled_) {
      laid_out_ = false;
      stride = row_floats;
      return arena.ensure(nrows * row_floats);
    }
    const std::size_t gstride = row_floats + kGuardFloats;
    float* base = arena.ensure(kGuardFloats + nrows * gstride);
    const bool same = laid_out_ && base == base_ && nrows_ == nrows &&
                      gstride == stride_;
    base_ = base;
    nrows_ = nrows;
    stride_ = gstride;
    row_floats_ = row_floats;
    laid_out_ = true;
    if (!same) {
      const float canary = guard_canary_value();
      for (std::size_t i = 0; i < kGuardFloats; ++i) base[i] = canary;
      float* rows = base + kGuardFloats;
      for (std::size_t r = 0; r < nrows; ++r) {
        float* g = rows + r * gstride + row_floats;
        for (std::size_t i = 0; i < kGuardFloats; ++i) g[i] = canary;
      }
    }
    stride = gstride;
    return base + kGuardFloats;
  }

  // Verifies every canary word; throws a coded Error naming the smashed
  // register on violation.  No-op when disabled or nothing carved yet.
  void check(const char* where) const {
    if (!enabled_ || !laid_out_) return;
    const float* rows = base_ + kGuardFloats;
    for (std::size_t i = 0; i < kGuardFloats; ++i)
      if (!is_canary(base_[i])) fail_guard(where, -1, i, base_[i]);
    for (std::size_t r = 0; r < nrows_; ++r) {
      const float* g = rows + r * stride_ + row_floats_;
      for (std::size_t i = 0; i < kGuardFloats; ++i)
        if (!is_canary(g[i]))
          fail_guard(where, static_cast<std::int64_t>(r), i, g[i]);
    }
  }

 private:
  static bool is_canary(float f) {
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits == kGuardCanaryBits;
  }
  [[noreturn]] static void fail_guard(const char* where, std::int64_t reg,
                                      std::size_t word, float got) {
    std::uint32_t bits;
    std::memcpy(&bits, &got, sizeof(bits));
    throw Error(std::string(where) + ": guard-arena canary smashed " +
                    (reg < 0 ? std::string("before row register 0")
                             : "after row register " + std::to_string(reg)) +
                    " (word " + std::to_string(word) + ", bits 0x" +
                    [](std::uint32_t b) {
                      char buf[9];
                      static const char* hex = "0123456789abcdef";
                      for (int i = 7; i >= 0; --i, b >>= 4) buf[i] = hex[b & 15];
                      buf[8] = '\0';
                      return std::string(buf);
                    }(bits) +
                    "): a row kernel overran its register",
                ErrorCode::kInternal);
  }

  bool enabled_ = false;
  bool laid_out_ = false;
  float* base_ = nullptr;
  std::size_t nrows_ = 0;
  std::size_t stride_ = 0;      // row_floats_ + kGuardFloats
  std::size_t row_floats_ = 0;  // data floats per row
};

}  // namespace fusedp
