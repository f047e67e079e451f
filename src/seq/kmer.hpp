// Fixed-size seeds (k-mers), k <= 64, packed 2 bits/base into two words.
//
// The paper uses k = 51 for human/wheat (the Meraculous scaffolding seed
// length) and k = 19 for E. coli. Seeds are the keys of the distributed seed
// index; the seed-to-processor map uses the djb2 hash, which the paper credits
// for its near-perfect balance of distinct seeds per processor.
//
// A StrandedKmer carries a seed together with its reverse complement; both
// roll in O(1) per base, so a read's seeds on both strands cost one pass.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "seq/dna.hpp"
#include "seq/packed_seq.hpp"

namespace mera::seq {

inline constexpr int kMaxSeedLen = 64;

struct StrandedKmer;

class Kmer {
 public:
  Kmer() = default;

  [[nodiscard]] int k() const noexcept { return k_; }

  [[nodiscard]] std::uint8_t code_at(int i) const noexcept {
    return (w_[static_cast<std::size_t>(i) >> 5] >> ((i & 31) * 2)) & 3u;
  }

  /// Build from ASCII; nullopt if any base is not ACGT or s.size() > 64.
  static std::optional<Kmer> from_ascii(std::string_view s) noexcept {
    if (s.size() > kMaxSeedLen || s.empty()) return std::nullopt;
    Kmer m;
    m.k_ = static_cast<int>(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      const std::uint8_t c = encode_base(s[i]);
      if (c == kInvalidBase) return std::nullopt;
      m.set_code(static_cast<int>(i), c);
    }
    return m;
  }

  /// The packed 2-bit payload, for serialization. Bits at positions >= 2k
  /// are always zero (class invariant), so equal seeds have equal words.
  [[nodiscard]] const std::array<std::uint64_t, 2>& words() const noexcept {
    return w_;
  }

  /// Rebuild from serialized words; nullopt if k is out of range or any bit
  /// above position 2k is set (a valid encoder never produces those, so they
  /// signal corruption).
  static std::optional<Kmer> from_words(
      int k, const std::array<std::uint64_t, 2>& w) noexcept {
    if (k <= 0 || k > kMaxSeedLen) return std::nullopt;
    for (int i = k; i < kMaxSeedLen; ++i) {
      if ((w[static_cast<std::size_t>(i) >> 5] >> ((i & 31) * 2)) & 3u)
        return std::nullopt;
    }
    Kmer m;
    m.k_ = k;
    m.w_ = w;
    return m;
  }

  /// Build from a window of an (all-valid) packed sequence.
  static Kmer from_packed(const PackedSeq& s, std::size_t pos, int k) {
    Kmer m;
    m.k_ = k;
    for (int i = 0; i < k; ++i)
      m.set_code(i, s.code_at(pos + static_cast<std::size_t>(i)));
    return m;
  }

  /// Rolling update: drop the front base, append `code` at the back.
  /// Enables O(1)-per-window seed extraction over a target sequence.
  void roll(std::uint8_t code) noexcept {
    w_[0] = (w_[0] >> 2) | (w_[1] & 3u) << 62;
    w_[1] >>= 2;
    set_code(k_ - 1, code);
  }

  /// The mirror of roll(): drop the back base, prepend `code` at the front.
  /// When a seed rolls in `code`, its reverse complement rolls in
  /// complement_code(code) this way (see StrandedKmer).
  void roll_front(std::uint8_t code) noexcept {
    w_[1] = (w_[1] << 2) | (w_[0] >> 62);
    w_[0] = (w_[0] << 2) | (code & 3u);
    if (k_ <= 32) {
      w_[1] = 0;
      if (k_ < 32) w_[0] &= (std::uint64_t{1} << (2 * k_)) - 1;
    } else if (k_ < 64) {
      w_[1] &= (std::uint64_t{1} << (2 * k_ - 64)) - 1;
    }
  }

  [[nodiscard]] std::string to_string() const {
    std::string s(static_cast<std::size_t>(k_), '\0');
    for (int i = 0; i < k_; ++i)
      s[static_cast<std::size_t>(i)] = decode_base(code_at(i));
    return s;
  }

  /// Word-parallel: complement every code, reverse the 64 2-bit codes of
  /// the two words, then shift the k real ones down to positions 0..k-1.
  [[nodiscard]] Kmer reverse_complement() const noexcept {
    const auto rev = [](std::uint64_t x) {
      x = ~x;
      x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
      x = ((x >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((x & 0x0F0F0F0F0F0F0F0FULL) << 4);
      return __builtin_bswap64(x);
    };
    const std::uint64_t hi = rev(w_[0]), lo = rev(w_[1]);
    const int shift = 2 * (kMaxSeedLen - k_);  // 0..126
    Kmer m;
    m.k_ = k_;
    if (shift == 0) {
      m.w_ = {lo, hi};
    } else if (shift < 64) {
      m.w_ = {(lo >> shift) | (hi << (64 - shift)), hi >> shift};
    } else {
      m.w_ = {hi >> (shift - 64), 0};
    }
    return m;
  }

  /// djb2 over the packed bytes of the seed — the paper's seed-to-processor
  /// hash (Section VI-C1): h = h * 33 + byte over the (k + 3) / 4 bytes.
  /// Evaluated a word at a time, so the bytes' products do not wait on each
  /// other: m bytes add sum(byte_i * 33^(m-1-i)) to h * 33^m, which is the
  /// byte loop's value exactly (all arithmetic is mod 2^64).
  [[nodiscard]] std::uint64_t djb2() const noexcept {
    constexpr auto pow33 = [] {
      std::array<std::uint64_t, 9> p{1};
      for (std::size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * 33u;
      return p;
    }();
    std::uint64_t h = 5381;
    int left = (k_ + 3) / 4;
    for (const std::uint64_t w : w_) {
      if (left <= 0) break;
      const int m = left < 8 ? left : 8;
      std::uint64_t sum = 0;
      for (int i = 0; i < m; ++i)
        sum += ((w >> (8 * i)) & 0xffu) * pow33[static_cast<std::size_t>(m - 1 - i)];
      h = h * pow33[static_cast<std::size_t>(m)] + sum;
      left -= m;
    }
    return h;
  }

  /// Independent, well-mixed hash for bucket placement *within* a rank, so
  /// bucket choice is uncorrelated with the (djb2 mod nranks) owner choice.
  [[nodiscard]] std::uint64_t mixed_hash() const noexcept {
    return mixed_hash(w_, k_);
  }
  /// mixed_hash() of the k-mer with these words.
  [[nodiscard]] static std::uint64_t mixed_hash(
      const std::array<std::uint64_t, 2>& w, int k) noexcept {
    std::uint64_t x = w[0] ^ (w[1] * 0x9e3779b97f4a7c15ULL) ^
                      (static_cast<std::uint64_t>(k) << 56);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  friend bool operator==(const Kmer& a, const Kmer& b) noexcept {
    return a.k_ == b.k_ && a.w_ == b.w_;
  }
  friend bool operator<(const Kmer& a, const Kmer& b) noexcept {
    if (a.w_[1] != b.w_[1]) return a.w_[1] < b.w_[1];
    if (a.w_[0] != b.w_[0]) return a.w_[0] < b.w_[0];
    return a.k_ < b.k_;
  }

 private:
  void set_code(int i, std::uint8_t code) noexcept {
    const std::size_t word = static_cast<std::size_t>(i) >> 5;
    const unsigned shift = (i & 31) * 2;
    w_[word] &= ~(std::uint64_t{3} << shift);
    w_[word] |= static_cast<std::uint64_t>(code & 3u) << shift;
  }

  std::array<std::uint64_t, 2> w_{0, 0};
  int k_ = 0;

  friend struct StrandedKmer;
};

/// A seed and its reverse complement, rolled together.
struct StrandedKmer {
  Kmer fwd;
  Kmer rc;  ///< fwd.reverse_complement()

  [[nodiscard]] static StrandedKmer of(const Kmer& m) noexcept {
    return {m, m.reverse_complement()};
  }
  /// Both strands' O(1) rolling update for `code` appended to fwd.
  void roll(std::uint8_t code) noexcept {
    fwd.roll(code);
    rc.roll_front(complement_code(code));
  }
  /// The strand-independent form: the lesser of fwd and rc. Which one wins
  /// is a coin flip per seed, so it is picked by masking, not by a branch.
  [[nodiscard]] Kmer canonical() const noexcept {
    const std::uint64_t take_rc = 0 - static_cast<std::uint64_t>(flipped());
    Kmer m = fwd;
    m.w_[0] ^= (fwd.w_[0] ^ rc.w_[0]) & take_rc;
    m.w_[1] ^= (fwd.w_[1] ^ rc.w_[1]) & take_rc;
    return m;
  }
  /// True when fwd is not the canonical form (rc < fwd).
  [[nodiscard]] bool flipped() const noexcept {
    const auto& r = rc.w_;
    const auto& f = fwd.w_;
    return (r[1] < f[1]) | ((r[1] == f[1]) & (r[0] < f[0]));
  }
  /// A seed that is its own reverse complement (possible only for even k).
  [[nodiscard]] bool palindrome() const noexcept {
    return fwd.words() == rc.words();
  }
};

/// Extract all k-length seeds of an ASCII sequence, skipping windows that
/// contain a non-ACGT base. Calls fn(offset, stranded_kmer) for each valid
/// window.
template <typename Fn>
void for_each_stranded_seed(std::string_view s, int k, Fn&& fn) {
  if (k <= 0 || k > kMaxSeedLen || s.size() < static_cast<std::size_t>(k))
    return;
  // Track the most recent invalid position to skip tainted windows in O(n).
  std::ptrdiff_t last_bad = -1;
  StrandedKmer m;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::uint8_t c = encode_base(s[i]);
    if (c == kInvalidBase) {
      last_bad = static_cast<std::ptrdiff_t>(i);
      continue;
    }
    if (i + 1 < static_cast<std::size_t>(k)) continue;
    const std::size_t start = i + 1 - static_cast<std::size_t>(k);
    if (static_cast<std::ptrdiff_t>(start) <= last_bad) continue;
    if (static_cast<std::ptrdiff_t>(start) == last_bad + 1) {
      // First clean window after a bad base (or the very first window):
      // build it from scratch; subsequent windows roll in O(1).
      auto fresh = Kmer::from_ascii(s.substr(start, static_cast<std::size_t>(k)));
      m = StrandedKmer::of(*fresh);  // window verified clean above
    } else {
      m.roll(c);
    }
    fn(start, std::as_const(m));
  }
}

/// for_each_stranded_seed's forward strand only: fn(offset, kmer).
template <typename Fn>
void for_each_seed(std::string_view s, int k, Fn&& fn) {
  for_each_stranded_seed(s, k, [&fn](std::size_t off, const StrandedKmer& m) {
    fn(off, m.fwd);
  });
}

/// Seed extraction over a PackedSeq (always valid bases): fn(offset, kmer).
template <typename Fn>
void for_each_seed(const PackedSeq& s, int k, Fn&& fn) {
  if (k <= 0 || k > kMaxSeedLen || s.size() < static_cast<std::size_t>(k))
    return;
  Kmer m = Kmer::from_packed(s, 0, k);
  fn(std::size_t{0}, m);
  for (std::size_t start = 1; start + static_cast<std::size_t>(k) <= s.size();
       ++start) {
    m.roll(s.code_at(start + static_cast<std::size_t>(k) - 1));
    fn(start, m);
  }
}

}  // namespace mera::seq
