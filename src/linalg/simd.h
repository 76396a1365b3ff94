// Portable double-lane SIMD helpers, INTERNAL to linalg/.
//
// The matrix kernels vectorize by widening their innermost j
// (output-column) loop: N output elements advance together, each keeping
// its own accumulator chain, so the per-element accumulation order over
// the contraction index is exactly a plain scalar loop's — the bit-parity
// contract linalg_simd_test checks against the scalar oracle in
// tests/reference_kernels.h. This header provides the lane types those
// kernels use and nothing else; no intrinsics or vector extensions appear
// outside linalg/ translation units.
//
// The lanes are GCC/Clang generic vector extensions, which compile to
// native vector code (SSE2/AVX/AVX-512 as the target allows, no per-ISA
// code here); the build supports no other compiler. Loads and stores go
// through memcpy, so no alignment is assumed (Matrix rows are only
// aligned when the column count happens to be a multiple of the lane
// width) — the 64-byte-aligned Matrix buffer guarantees the FIRST row is
// aligned and lets the common power-of-two shapes run fully aligned.

#ifndef OPENAPI_LINALG_SIMD_H_
#define OPENAPI_LINALG_SIMD_H_

#include <cstddef>
#include <cstring>

namespace openapi::linalg::simd {

/// Register type backing a width-N lane group. GCC requires a literal
/// operand for vector_size (a dependent N is silently dropped inside a
/// template), hence the explicit specializations. `aligned(8)` relaxes
/// the types' default (N*8-byte) alignment so lane values can live at any
/// spill slot; loads/stores below go through memcpy and carry no
/// alignment assumption either.
template <std::size_t N>
struct LaneReg;
template <>
struct LaneReg<4> {
  typedef double Type __attribute__((vector_size(32), aligned(8)));
};
template <>
struct LaneReg<8> {
  typedef double Type __attribute__((vector_size(64), aligned(8)));
};

/// N doubles processed in lockstep. Supported widths: 4 and 8.
template <std::size_t N>
struct Lanes {
  static constexpr std::size_t kWidth = N;
  using Reg = typename LaneReg<N>::Type;

  Reg v;

  static Lanes Load(const double* p) {
    Lanes out;
    std::memcpy(&out.v, p, sizeof(out.v));
    return out;
  }

  static Lanes Broadcast(double x) {
    Lanes out;
    out.v = x - Reg{};  // splat: {x,x,...} with no per-lane loop
    return out;
  }

  static Lanes Zero() { return Broadcast(0.0); }

  void Store(double* p) const { std::memcpy(p, &v, sizeof(v)); }

  double operator[](std::size_t i) const { return v[i]; }

  friend Lanes operator+(Lanes a, Lanes b) {
    a.v = a.v + b.v;
    return a;
  }

  friend Lanes operator-(Lanes a, Lanes b) {
    a.v = a.v - b.v;
    return a;
  }

  friend Lanes operator*(Lanes a, Lanes b) {
    a.v = a.v * b.v;
    return a;
  }

  friend Lanes operator/(Lanes a, Lanes b) {
    a.v = a.v / b.v;
    return a;
  }
};

using D4 = Lanes<4>;
using D8 = Lanes<8>;

/// acc + a * b, element-wise. Written as the plain expression so the
/// compiler applies exactly the same FP contraction it applies to a
/// scalar `sum += a * b` — keeping the lanes bit-identical to the scalar
/// oracle whether or not FMA contraction is enabled.
template <std::size_t N>
inline Lanes<N> MulAdd(Lanes<N> a, Lanes<N> b, Lanes<N> acc) {
  acc.v = acc.v + a.v * b.v;
  return acc;
}

}  // namespace openapi::linalg::simd

#endif  // OPENAPI_LINALG_SIMD_H_
