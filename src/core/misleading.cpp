#include "core/misleading.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace cshield::core {
namespace {

/// Copies the `n`-byte run src[0, n) to dst. Runs between chaff positions
/// are a few bytes long, so a short one is copied as a fixed 16 bytes when
/// both buffers have that much room left: the bytes written past the run
/// belong to later positions, which the caller writes afterwards.
void copy_run(std::uint8_t* dst, std::size_t dst_room, const std::uint8_t* src,
              std::size_t src_room, std::size_t n) {
  if (n <= 16 && dst_room >= 16 && src_room >= 16) {
    std::memcpy(dst, src, 16);
  } else if (n > 0) {
    std::memcpy(dst, src, n);
  }
}

}  // namespace

MisleadingCodec::Encoded MisleadingCodec::inject(BytesView data,
                                                 double fraction, Rng& rng) {
  CS_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
             "misleading fraction outside [0,1]");
  Encoded out;
  if (fraction == 0.0 || data.empty()) {
    out.data.assign(data.begin(), data.end());
    return out;
  }
  const std::size_t chaff = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(data.size())));
  const std::size_t total = data.size() + chaff;

  // Choose chaff positions uniformly over the final buffer with Floyd's
  // algorithm for a sample of `chaff` distinct indices in [0, total), kept
  // as a bitmap so the positions come out sorted.
  std::vector<std::uint64_t> chosen((total + 63) / 64, 0);
  const auto take = [&chosen](std::size_t i) {
    std::uint64_t& word = chosen[i / 64];
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    const bool fresh = (word & bit) == 0;
    word |= bit;
    return fresh;
  };
  for (std::size_t j = total - chaff; j < total; ++j) {
    if (!take(static_cast<std::size_t>(rng.below(j + 1)))) take(j);
  }

  // Copy the real bytes between chaff positions run by run. Each chaff byte
  // is sampled from the real payload's byte distribution so it is
  // statistically indistinguishable from data; they are drawn in position
  // order.
  out.positions.reserve(chaff);
  out.data.resize(total);
  std::uint8_t* dst = out.data.data();
  std::size_t at = 0;    // next output byte
  std::size_t from = 0;  // next real byte
  for (std::size_t w = 0; w < chosen.size(); ++w) {
    for (std::uint64_t bits = chosen[w]; bits != 0; bits &= bits - 1) {
      const std::size_t pos =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      const std::size_t run = pos - at;
      copy_run(dst + at, total - at, data.data() + from, data.size() - from,
               run);
      from += run;
      dst[pos] = data[rng.below(data.size())];
      out.positions.push_back(static_cast<std::uint32_t>(pos));
      at = pos + 1;
    }
  }
  copy_run(dst + at, total - at, data.data() + from, data.size() - from,
           data.size() - from);
  CS_REQUIRE(total - at == data.size() - from && out.positions.size() == chaff,
             "misleading inject accounting error");
  return out;
}

Bytes MisleadingCodec::strip(BytesView data,
                             const std::vector<std::uint32_t>& positions) {
  if (positions.empty()) return Bytes(data.begin(), data.end());
  CS_REQUIRE(positions.size() <= data.size(),
             "strip: more chaff positions than bytes");
  // Validate the whole list before copying: the runs only fit the output
  // when every position is in range and strictly above the one before.
  for (std::size_t i = 0; i < positions.size(); ++i) {
    CS_REQUIRE(positions[i] < data.size(), "strip: position beyond buffer end");
    CS_REQUIRE(i == 0 || positions[i] > positions[i - 1],
               "strip: positions not strictly increasing");
  }
  Bytes out(data.size() - positions.size());
  std::size_t at = 0;    // next output byte
  std::size_t from = 0;  // first byte after the previous chaff position
  for (std::uint32_t pos : positions) {
    const std::size_t run = pos - from;
    copy_run(out.data() + at, out.size() - at, data.data() + from,
             data.size() - from, run);
    at += run;
    from = std::size_t{pos} + 1;
  }
  copy_run(out.data() + at, out.size() - at, data.data() + from,
           data.size() - from, data.size() - from);
  return out;
}

}  // namespace cshield::core
