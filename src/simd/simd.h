// gs::simd — fixed-width double vectors over compiler vector extensions.
//
// The paper's performance story (Tables 2-3) is framed as fraction of peak
// memory bandwidth; getting there on the host requires unit-stride inner
// loops that actually issue vector loads/stores. This header is the whole
// portability layer: pack<W> wraps the GCC/Clang vector_size extension
// (plain lane arrays elsewhere), pack<1> is the scalar specialization, and
// kNativeWidth is selected at configure time (-DGS_SIMD=OFF builds with
// width 1, the scalar-fallback gate CI compiles and tests).
//
// Identity contract: every pack operation is the elementwise IEEE-754
// operation of its scalar counterpart — vectorizing a loop ACROSS cells
// with pack arithmetic preserves each cell's exact expression tree, so
// the W-wide and scalar paths produce bitwise-identical results. That is
// the hard gate of the SIMD layer and is what keeps "serial == N-rank ==
// vectorized" an exact, testable property of the whole stack.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#ifndef GS_SIMD_WIDTH
#define GS_SIMD_WIDTH 8
#endif

namespace gs::simd {

/// Lanes of the configure-time vector width (1 = scalar fallback).
inline constexpr int kNativeWidth = GS_SIMD_WIDTH;

/// Lanes for min/max reduction loops: at most one 256-bit register of
/// doubles. GCC splits 8-wide compares into per-lane moves through the
/// stack; minmax_run<8> measured 3.4 ns/cell against 0.4 at width 4.
inline constexpr int kReduceWidth = kNativeWidth < 4 ? kNativeWidth : 4;

/// W doubles computed elementwise. Loads/stores are unaligned (memcpy —
/// the compiler lowers them to vector moves), so callers never owe an
/// alignment promise for interior-offset stencil accesses.
#if defined(__GNUC__) || defined(__clang__)
/// vector_size must see a literal byte count (a dependent expression is
/// silently dropped by GCC), hence one specialization per width.
template <int W>
struct native_vec;
template <>
struct native_vec<2> {
  typedef double type __attribute__((vector_size(16)));
};
template <>
struct native_vec<4> {
  typedef double type __attribute__((vector_size(32)));
};
template <>
struct native_vec<8> {
  typedef double type __attribute__((vector_size(64)));
};
#else
template <int W>
struct native_vec {
  struct type {
    double lane[W];
  };
};
#endif

template <int W>
struct pack {
  static_assert(W == 2 || W == 4 || W == 8, "supported widths: 1, 2, 4, 8");

  using native_t = typename native_vec<W>::type;
  native_t v;

  static pack load(const double* p) {
    pack r;
    std::memcpy(&r.v, p, sizeof(native_t));
    return r;
  }
  void store(double* p) const { std::memcpy(p, &v, sizeof(native_t)); }

  static pack broadcast(double x) {
    pack r;
    for (int l = 0; l < W; ++l) r.set_lane(l, x);
    return r;
  }

#if defined(__GNUC__) || defined(__clang__)
  double lane(int l) const { return v[l]; }
  void set_lane(int l, double x) { v[l] = x; }

  friend pack operator+(pack a, pack b) { return pack{a.v + b.v}; }
  friend pack operator-(pack a, pack b) { return pack{a.v - b.v}; }
  friend pack operator*(pack a, pack b) { return pack{a.v * b.v}; }
  friend pack operator/(pack a, pack b) { return pack{a.v / b.v}; }
#else
  double lane(int l) const { return v.lane[l]; }
  void set_lane(int l, double x) { v.lane[l] = x; }

  friend pack operator+(pack a, pack b) {
    for (int l = 0; l < W; ++l) a.v.lane[l] += b.v.lane[l];
    return a;
  }
  friend pack operator-(pack a, pack b) {
    for (int l = 0; l < W; ++l) a.v.lane[l] -= b.v.lane[l];
    return a;
  }
  friend pack operator*(pack a, pack b) {
    for (int l = 0; l < W; ++l) a.v.lane[l] *= b.v.lane[l];
    return a;
  }
  friend pack operator/(pack a, pack b) {
    for (int l = 0; l < W; ++l) a.v.lane[l] /= b.v.lane[l];
    return a;
  }
#endif

  friend pack operator+(double a, pack b) { return broadcast(a) + b; }
  friend pack operator+(pack a, double b) { return a + broadcast(b); }
  friend pack operator-(double a, pack b) { return broadcast(a) - b; }
  friend pack operator-(pack a, double b) { return a - broadcast(b); }
  friend pack operator*(double a, pack b) { return broadcast(a) * b; }
  friend pack operator*(pack a, double b) { return a * broadcast(b); }
  friend pack operator/(double a, pack b) { return broadcast(a) / b; }
  friend pack operator/(pack a, double b) { return a / broadcast(b); }

  /// Elementwise std::min/std::max (b < a ? b : a). NOT IEEE minNum: like
  /// the std:: versions, NaN/-0.0 handling depends on argument order —
  /// callers that need order-independence must guarantee totally ordered
  /// inputs (simulation fields qualify).
#if defined(__GNUC__) || defined(__clang__)
  friend pack min(pack a, pack b) { return pack{b.v < a.v ? b.v : a.v}; }
  friend pack max(pack a, pack b) { return pack{a.v < b.v ? b.v : a.v}; }
#else
  friend pack min(pack a, pack b) {
    pack r;
    for (int l = 0; l < W; ++l)
      r.set_lane(l, std::min(a.lane(l), b.lane(l)));
    return r;
  }
  friend pack max(pack a, pack b) {
    pack r;
    for (int l = 0; l < W; ++l)
      r.set_lane(l, std::max(a.lane(l), b.lane(l)));
    return r;
  }
#endif
};

/// Scalar specialization: the W=1 fallback every identity test compares
/// against, and the whole layer when GS_SIMD=OFF.
template <>
struct pack<1> {
  double v;

  static pack load(const double* p) { return pack{*p}; }
  void store(double* p) const { *p = v; }
  static pack broadcast(double x) { return pack{x}; }
  double lane(int) const { return v; }
  void set_lane(int, double x) { v = x; }

  friend pack operator+(pack a, pack b) { return pack{a.v + b.v}; }
  friend pack operator-(pack a, pack b) { return pack{a.v - b.v}; }
  friend pack operator*(pack a, pack b) { return pack{a.v * b.v}; }
  friend pack operator/(pack a, pack b) { return pack{a.v / b.v}; }
  friend pack operator+(double a, pack b) { return pack{a + b.v}; }
  friend pack operator+(pack a, double b) { return pack{a.v + b}; }
  friend pack operator-(double a, pack b) { return pack{a - b.v}; }
  friend pack operator-(pack a, double b) { return pack{a.v - b}; }
  friend pack operator*(double a, pack b) { return pack{a * b.v}; }
  friend pack operator*(pack a, double b) { return pack{a.v * b}; }
  friend pack operator/(double a, pack b) { return pack{a / b.v}; }
  friend pack operator/(pack a, double b) { return pack{a.v / b}; }
  friend pack min(pack a, pack b) { return pack{std::min(a.v, b.v)}; }
  friend pack max(pack a, pack b) { return pack{std::max(a.v, b.v)}; }
};

struct MinMax {
  double lo;
  double hi;
};

/// Min/max over a contiguous run (n > 0) with W lane accumulators merged
/// in lane order. min/max over totally ordered values is associative and
/// commutative, so for data without NaN or mixed-sign zeros the result is
/// bitwise identical to the serial left-to-right scan — the property the
/// histogram range pass and its W=1-vs-native identity test rely on.
template <int W>
inline MinMax minmax_run(const double* p, std::int64_t n) {
  MinMax out{p[0], p[0]};
  std::int64_t i = 0;
  if constexpr (W > 1) {
    if (n >= 2 * W) {
      pack<W> lo = pack<W>::load(p);
      pack<W> hi = lo;
      for (i = W; i + W <= n; i += W) {
        const pack<W> x = pack<W>::load(p + i);
        lo = min(lo, x);
        hi = max(hi, x);
      }
      out = MinMax{lo.lane(0), hi.lane(0)};
      for (int l = 1; l < W; ++l) {
        out.lo = std::min(out.lo, lo.lane(l));
        out.hi = std::max(out.hi, hi.lane(l));
      }
    }
  }
  for (; i < n; ++i) {
    out.lo = std::min(out.lo, p[i]);
    out.hi = std::max(out.hi, p[i]);
  }
  return out;
}

}  // namespace gs::simd
