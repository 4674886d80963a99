#include "crypto/sha256.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "util/cpu.hpp"
#include "util/status.hpp"

#if !defined(CSHIELD_FORCE_SCALAR) && (defined(__x86_64__) || defined(__i386__))
#define CSHIELD_HAVE_SHA_NI 1
#include <immintrin.h>
#endif

namespace cshield::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

using State = std::array<std::uint32_t, 8>;

// FIPS 180-4 reference compression over `blocks` consecutive 64-byte blocks.
void compress_portable(State& state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::array<std::uint32_t, 64> w{};
    for (std::size_t i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#if defined(CSHIELD_HAVE_SHA_NI)
// The same compression on the x86 SHA extensions. The state lives in two
// registers as (A,B,E,F) and (C,D,G,H), the layout sha256rnds2 wants; each
// sha256rnds2 runs two rounds, so a 4-word message group costs two. Once
// group W[i..i+3] is consumed its register takes the group 16 words on:
//   W[i+16..i+19] = msg2(msg1(W[i..i+3], W[i+4..i+7]) + W[i+9..i+12],
//                        W[i+12..i+15])
__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    State& state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);           // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);         // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);       // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
#pragma GCC unroll 4
    for (std::size_t i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          bswap);
    }
#pragma GCC unroll 16
    for (std::size_t g = 0; g < 16; ++g) {
      __m128i msg = _mm_add_epi32(
          m[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
      if (g < 12) {
        const __m128i carry = _mm_alignr_epi8(m[(g + 3) % 4], m[(g + 2) % 4], 4);
        m[g % 4] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(m[g % 4], m[(g + 1) % 4]), carry),
            m[(g + 3) % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);          // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);         // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);      // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);         // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), cdgh);
}
#endif  // CSHIELD_HAVE_SHA_NI

std::atomic<Sha256Arm> g_active{cpu::preferred_sha_ni() ? Sha256Arm::kShaNi
                                                        : Sha256Arm::kPortable};

void compress(State& state, const std::uint8_t* data, std::size_t blocks) {
#if defined(CSHIELD_HAVE_SHA_NI)
  if (g_active.load(std::memory_order_relaxed) == Sha256Arm::kShaNi) {
    compress_sha_ni(state, data, blocks);
    return;
  }
#endif
  compress_portable(state, data, blocks);
}

}  // namespace

bool sha256_arm_available(Sha256Arm arm) {
  return arm == Sha256Arm::kPortable || cpu::hardware_sha_ni();
}

Sha256Arm sha256_active_arm() { return g_active.load(std::memory_order_relaxed); }

Sha256Arm set_sha256_arm(Sha256Arm arm) {
  CS_REQUIRE(sha256_arm_available(arm), "set_sha256_arm: arm not available");
  return g_active.exchange(arm, std::memory_order_relaxed);
}

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::update(BytesView data) {
  if (data.empty()) return;  // data() may be null: no memcpy from it
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(left, std::size_t{64} - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    left -= take;
    if (buffered_ < 64) return;
    compress(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  if (left >= 64) {
    compress(state_, p, left / 64);
    p += left / 64 * 64;
    left %= 64;
  }
  std::memcpy(buffer_.data(), p, left);
  buffered_ = left;
}

Digest Sha256::finish() {
  // Pad with 0x80, zeros to 56 mod 64, then the big-endian bit length.
  std::array<std::uint8_t, 72> pad{};
  pad[0] = 0x80;
  const std::size_t zeros = (buffered_ < 56 ? 56 : 120) - buffered_;
  const std::uint64_t bit_len = total_bytes_ * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    pad[zeros + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(BytesView(pad.data(), zeros + 8));
  Digest out{};
  for (std::size_t i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  reset();
  return out;
}

Digest sha256(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::string digest_hex(const Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

}  // namespace cshield::crypto
