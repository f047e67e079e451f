// SSE2 tier of the batch scorer: 8 candidates per 16-bit lane group.
// Compiled with the default x86-64 flags (SSE2 is baseline).
#include "align/batch_sw_detail.hpp"

#if defined(__SSE2__) && !defined(MERA_FORCE_SCALAR_SW)

#include <emmintrin.h>

#include "align/batch_sw_kernel.hpp"

namespace mera::align::detail {
namespace {

struct Sse2Traits {
  using V = __m128i;
  static constexpr int kLanes16 = 8;

  static V zero() { return _mm_setzero_si128(); }
  static V load(const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  }
  static void store(void* p, V v) {
    _mm_storeu_si128(static_cast<__m128i*>(p), v);
  }

  static V set1_i16(std::int16_t x) { return _mm_set1_epi16(x); }
  static V adds_i16(V a, V b) { return _mm_adds_epi16(a, b); }
  static V subs_i16(V a, V b) { return _mm_subs_epi16(a, b); }
  static V max_i16(V a, V b) { return _mm_max_epi16(a, b); }
  static V sel_eq16(V t, V q, V a, V b) {
    const V eq = _mm_cmpeq_epi16(t, q);
    return _mm_or_si128(_mm_and_si128(eq, a), _mm_andnot_si128(eq, b));
  }

  // Trace pass: compares yield all-ones / all-zero 16-bit elements.
  using M = V;
  static M gt16(V a, V b) { return _mm_cmpgt_epi16(a, b); }
  static V blend16(V a, V b, M m) {
    return _mm_or_si128(_mm_and_si128(m, b), _mm_andnot_si128(m, a));
  }
  static V keep16(M m, V v) { return _mm_and_si128(m, v); }
  static V drop16(M m, V v) { return _mm_andnot_si128(m, v); }
  static V or_(V a, V b) { return _mm_or_si128(a, b); }
  static void store_narrow16(void* p, V v) {
    _mm_storel_epi64(static_cast<__m128i*>(p), _mm_packus_epi16(v, v));
  }
};

const BatchKernel kKernel = {Sse2Traits::kLanes16, &batch_trace16<Sse2Traits>};

}  // namespace

const BatchKernel* batch_kernel_sse2() noexcept { return &kKernel; }

}  // namespace mera::align::detail

#else  // !__SSE2__ || MERA_FORCE_SCALAR_SW

namespace mera::align::detail {
const BatchKernel* batch_kernel_sse2() noexcept { return nullptr; }
}  // namespace mera::align::detail

#endif
