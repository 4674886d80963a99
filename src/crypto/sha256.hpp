// SHA-256 (FIPS 180-4).
//
// Used for chunk integrity digests: the distributor stores a digest per chunk
// so silent corruption at a provider is detected on read (the paper's threat
// model includes providers an attacker has compromised). Verified against the
// FIPS test vectors in tests/crypto_test.cpp.
//
// The block compression has two arms, bound once at startup like the GF(256)
// kernels (util/cpu.hpp): the x86 SHA extensions (sha256rnds2/msg1/msg2)
// when the host has them, and a portable FIPS 180-4 reference everywhere
// else. -DCSHIELD_FORCE_SCALAR=ON compiles the SHA-NI arm out, and the
// CSHIELD_FORCE_SCALAR environment variable binds the portable arm without a
// rebuild. Both arms are bit-identical by test (tests/crypto_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "util/bytes.hpp"

namespace cshield::crypto {

/// SHA-256 compression arms.
enum class Sha256Arm { kPortable, kShaNi };

[[nodiscard]] constexpr std::string_view sha256_arm_name(Sha256Arm arm) {
  return arm == Sha256Arm::kShaNi ? "sha_ni" : "portable";
}

/// True when `arm` can execute on this host (portable always can).
[[nodiscard]] bool sha256_arm_available(Sha256Arm arm);

/// The arm every Sha256 currently compresses with. Defaults to SHA-NI when
/// cpu::preferred_sha_ni(), else portable.
[[nodiscard]] Sha256Arm sha256_active_arm();

/// Rebinds the dispatcher (test/bench hook; thread-safe, takes effect on the
/// next update). Requires sha256_arm_available(arm). Returns the previous arm.
Sha256Arm set_sha256_arm(Sha256Arm arm);

/// 32-byte SHA-256 digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental hasher; also see the one-shot sha256() below.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(BytesView data);
  [[nodiscard]] Digest finish();

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// One-shot digest.
[[nodiscard]] Digest sha256(BytesView data);

/// Hex rendering for logs/tests.
[[nodiscard]] std::string digest_hex(const Digest& d);

}  // namespace cshield::crypto
