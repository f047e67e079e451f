// AVX-512BW tier of the batch scorer: 32 candidates per 16-bit lane group,
// using mask-register compares instead of vector blends. This
// TU alone is compiled with -mavx512f -mavx512bw (set in src/CMakeLists.txt
// when the compiler supports them); the dispatcher only calls in after
// __builtin_cpu_supports("avx512bw") says the host can run it.
#include "align/batch_sw_detail.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    !defined(MERA_FORCE_SCALAR_SW)

#include <immintrin.h>

#include "align/batch_sw_kernel.hpp"

namespace mera::align::detail {
namespace {

struct Avx512Traits {
  using V = __m512i;
  static constexpr int kLanes16 = 32;

  static V zero() { return _mm512_setzero_si512(); }
  static V load(const void* p) { return _mm512_loadu_si512(p); }
  static void store(void* p, V v) { _mm512_storeu_si512(p, v); }

  static V set1_i16(std::int16_t x) { return _mm512_set1_epi16(x); }
  static V adds_i16(V a, V b) { return _mm512_adds_epi16(a, b); }
  static V subs_i16(V a, V b) { return _mm512_subs_epi16(a, b); }
  static V max_i16(V a, V b) { return _mm512_max_epi16(a, b); }
  static V sel_eq16(V t, V q, V a, V b) {
    return _mm512_mask_blend_epi16(_mm512_cmpeq_epi16_mask(t, q), b, a);
  }

  // Trace pass: compares land in a mask register.
  using M = __mmask32;
  static M gt16(V a, V b) { return _mm512_cmpgt_epi16_mask(a, b); }
  static V blend16(V a, V b, M m) { return _mm512_mask_blend_epi16(m, a, b); }
  static V keep16(M m, V v) { return _mm512_maskz_mov_epi16(m, v); }
  static V drop16(M m, V v) {
    return _mm512_maskz_mov_epi16(static_cast<M>(~m), v);
  }
  static V or_(V a, V b) { return _mm512_or_si512(a, b); }
  static void store_narrow16(void* p, V v) {
    // The zero-masked form: the plain one leaves its pass-through operand
    // undefined, which GCC flags as maybe-uninitialized.
    _mm256_storeu_si256(static_cast<__m256i*>(p),
                        _mm512_maskz_cvtepi16_epi8(~__mmask32{0}, v));
  }
};

const BatchKernel kKernel = {Avx512Traits::kLanes16, &batch_trace16<Avx512Traits>};

}  // namespace

const BatchKernel* batch_kernel_avx512() noexcept { return &kKernel; }

}  // namespace mera::align::detail

#else  // !AVX512BW || MERA_FORCE_SCALAR_SW

namespace mera::align::detail {
const BatchKernel* batch_kernel_avx512() noexcept { return nullptr; }
}  // namespace mera::align::detail

#endif
