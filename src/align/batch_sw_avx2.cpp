// AVX2 tier of the batch scorer: 16 candidates per 16-bit lane group. This TU alone is compiled with -mavx2 (set in
// src/CMakeLists.txt when the compiler supports it); the dispatcher only
// calls in after __builtin_cpu_supports("avx2") says the host can run it.
#include "align/batch_sw_detail.hpp"

#if defined(__AVX2__) && !defined(MERA_FORCE_SCALAR_SW)

#include <immintrin.h>

#include "align/batch_sw_kernel.hpp"

namespace mera::align::detail {
namespace {

struct Avx2Traits {
  using V = __m256i;
  static constexpr int kLanes16 = 16;

  static V zero() { return _mm256_setzero_si256(); }
  static V load(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  static void store(void* p, V v) {
    _mm256_storeu_si256(static_cast<__m256i*>(p), v);
  }

  static V set1_i16(std::int16_t x) { return _mm256_set1_epi16(x); }
  static V adds_i16(V a, V b) { return _mm256_adds_epi16(a, b); }
  static V subs_i16(V a, V b) { return _mm256_subs_epi16(a, b); }
  static V max_i16(V a, V b) { return _mm256_max_epi16(a, b); }
  static V sel_eq16(V t, V q, V a, V b) {
    // cmpeq_epi16 yields all-ones / all-zero bytes per element, so the
    // byte-granular blend selects whole 16-bit elements.
    return _mm256_blendv_epi8(b, a, _mm256_cmpeq_epi16(t, q));
  }

  // Trace pass: compares yield all-ones / all-zero 16-bit elements.
  using M = V;
  static M gt16(V a, V b) { return _mm256_cmpgt_epi16(a, b); }
  static V blend16(V a, V b, M m) { return _mm256_blendv_epi8(a, b, m); }
  static V keep16(M m, V v) { return _mm256_and_si256(m, v); }
  static V drop16(M m, V v) { return _mm256_andnot_si256(m, v); }
  static V or_(V a, V b) { return _mm256_or_si256(a, b); }
  static void store_narrow16(void* p, V v) {
    // packus works per 128-bit half: [v0..7 v0..7 | v8..15 v8..15] as
    // bytes; qwords 0 and 2 are the 16 low bytes in lane order.
    const V packed =
        _mm256_permute4x64_epi64(_mm256_packus_epi16(v, v), 0xD8);
    _mm_storeu_si128(static_cast<__m128i*>(p),
                     _mm256_castsi256_si128(packed));
  }
};

const BatchKernel kKernel = {Avx2Traits::kLanes16, &batch_trace16<Avx2Traits>};

}  // namespace

const BatchKernel* batch_kernel_avx2() noexcept { return &kKernel; }

}  // namespace mera::align::detail

#else  // !__AVX2__ || MERA_FORCE_SCALAR_SW

namespace mera::align::detail {
const BatchKernel* batch_kernel_avx2() noexcept { return nullptr; }
}  // namespace mera::align::detail

#endif
