// CPU feature detection for the runtime-dispatched SIMD kernels.
//
// The erasure-code data plane (crypto/gf256_kernels) picks its widest usable
// arm once per process: AVX2 when the host has it, SSSE3 below that, and a
// portable 64-bit SWAR arm everywhere else. SHA-256 (crypto/sha256) picks
// its SHA-NI compress arm when the host has the SHA extensions and the
// portable arm otherwise. Detection is a one-time CPUID probe; the result is
// cached in a function-local static so the hot paths never re-query.
//
// Overrides, strongest first:
//   * CMake -DCSHIELD_FORCE_SCALAR=ON compiles the SIMD arms out entirely
//     (the macro CSHIELD_FORCE_SCALAR is defined; hardware_level() reports
//     kScalar and hardware_sha_ni() false).
//   * Environment CSHIELD_FORCE_SCALAR=1 (any value other than "0"/"swar")
//     forces the byte-at-a-time scalar arm at startup.
//   * CSHIELD_FORCE_SCALAR=swar forces the portable word-wide arm, which is
//     what non-x86 hosts get by default.
//   * Any CSHIELD_FORCE_SCALAR value other than "0" also forces the portable
//     SHA-256 arm.
#pragma once

#include <cstdlib>
#include <string_view>

#if !defined(CSHIELD_FORCE_SCALAR) && (defined(__x86_64__) || defined(__i386__))
#include <cpuid.h>
#endif

namespace cshield::cpu {

/// Kernel arms, ordered weakest to widest.
enum class SimdLevel { kScalar, kSwar, kSsse3, kAvx2 };

[[nodiscard]] constexpr std::string_view simd_level_name(SimdLevel l) {
  switch (l) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kSwar: return "swar64";
    case SimdLevel::kSsse3: return "ssse3";
    case SimdLevel::kAvx2: return "avx2";
  }
  return "invalid";
}

/// Raw hardware capability (ignores every override). On non-x86 builds the
/// ceiling is the portable SWAR arm.
[[nodiscard]] inline SimdLevel hardware_level() {
#if defined(CSHIELD_FORCE_SCALAR)
  return SimdLevel::kScalar;
#elif defined(__x86_64__) || defined(__i386__)
  static const SimdLevel level = [] {
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
    if (__builtin_cpu_supports("ssse3")) return SimdLevel::kSsse3;
    return SimdLevel::kSwar;
  }();
  return level;
#else
  return SimdLevel::kSwar;
#endif
}

/// The CSHIELD_FORCE_SCALAR environment override: its value when set to
/// anything other than "0", else nullptr.
[[nodiscard]] inline const char* force_scalar_env() {
  const char* force = std::getenv("CSHIELD_FORCE_SCALAR");
  return force != nullptr && std::string_view(force) != "0" ? force : nullptr;
}

/// Hardware level clamped by the CSHIELD_FORCE_SCALAR environment override.
/// This is what the kernel dispatcher binds at startup.
[[nodiscard]] inline SimdLevel preferred_level() {
  static const SimdLevel level = [] {
    if (const char* force = force_scalar_env()) {
      return std::string_view(force) == "swar" ? SimdLevel::kSwar
                                               : SimdLevel::kScalar;
    }
    return hardware_level();
  }();
  return level;
}

/// True when the host can run the SHA-NI SHA-256 arm: the SHA extensions
/// (CPUID leaf 7, sub-leaf 0, EBX bit 29) plus SSE4.1 for the state
/// shuffles. Ignores the environment override.
[[nodiscard]] inline bool hardware_sha_ni() {
#if defined(CSHIELD_FORCE_SCALAR) || !(defined(__x86_64__) || defined(__i386__))
  return false;
#else
  static const bool sha = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    return ((ebx >> 29) & 1U) != 0 && __builtin_cpu_supports("sse4.1");
  }();
  return sha;
#endif
}

/// hardware_sha_ni() unless the CSHIELD_FORCE_SCALAR environment override
/// forces the portable arm. What the SHA-256 dispatcher binds at startup.
[[nodiscard]] inline bool preferred_sha_ni() {
  static const bool sha = hardware_sha_ni() && force_scalar_env() == nullptr;
  return sha;
}

}  // namespace cshield::cpu
