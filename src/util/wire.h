#pragma once

/// Minimal explicit-little-endian wire primitives shared by every binary
/// format of the project: the snapshot image, and the *sealed* images —
/// shard bundles, `campaign.bin`, recorded-run envelopes, event schedules
/// and checkpoint-ring entries. The writer is append-only; the reader is
/// bounds-checked and throws std::invalid_argument on truncation, so
/// corrupted images can never read out of range.
///
/// A sealed image is an 8-byte magic, a u32 format version, the payload,
/// and a trailing FNV-1a 64 of everything before it (`seal`/`unseal`).
/// `fnv1a64` is the project-wide content hash and `hex64` its text form.

#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ulpsync::util {

/// The FNV-1a 64 offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// The FNV-1a 64 prime: each byte is XORed in, then multiplied by it.
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a 64-bit hash. `seed` continues a running hash.
[[nodiscard]] inline std::uint64_t fnv1a64(
    std::span<const std::uint8_t> bytes,
    std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t hash = seed;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= kFnvPrime;
  }
  return hash;
}

/// The same hash over the bytes of `text`.
[[nodiscard]] inline std::uint64_t fnv1a64(
    std::string_view text, std::uint64_t seed = kFnvOffsetBasis) {
  return fnv1a64({reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()},
                 seed);
}

/// `value` as 16 lower-case hex digits (how hashes appear in text).
[[nodiscard]] inline std::string hex64(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

/// Little-endian append-only byte sink.
class WireWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (const char c : s) u8(static_cast<std::uint8_t>(c));
  }
  void blob(std::span<const std::uint8_t> bytes) {
    u64(bytes.size());
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader (see the file comment).
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    if (pos_ >= bytes_.size()) {
      throw std::invalid_argument("wire: truncated image");
    }
    return bytes_[pos_++];
  }
  std::uint16_t u16() {
    const auto lo = u8();
    return static_cast<std::uint16_t>(lo | (u8() << 8));
  }
  std::uint32_t u32() {
    const auto lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() {
    const auto lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  bool boolean() {
    const auto v = u8();
    if (v > 1) throw std::invalid_argument("wire: invalid boolean field");
    return v != 0;
  }
  std::string str() {
    const std::uint32_t size = u32();
    require(size);
    std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_), size);
    pos_ += size;
    return out;
  }
  std::vector<std::uint8_t> blob() {
    const std::uint64_t size = u64();
    require(size);
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + size));
    pos_ += size;
    return out;
  }

  [[nodiscard]] bool at_end() const { return pos_ == bytes_.size(); }

 private:
  void require(std::uint64_t size) const {
    if (size > bytes_.size() - pos_) {
      throw std::invalid_argument("wire: truncated image");
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// The 8-byte magic that opens a sealed image.
using Magic = std::array<std::uint8_t, 8>;

/// Builds a sealed image: `magic`, the u32 `version`, whatever `payload`
/// writes into the writer it is handed, then the trailing FNV-1a 64.
template <typename Payload>
[[nodiscard]] std::vector<std::uint8_t> seal(const Magic& magic,
                                             std::uint32_t version,
                                             const Payload& payload) {
  WireWriter w;
  for (const std::uint8_t byte : magic) w.u8(byte);
  w.u32(version);
  payload(w);
  w.u64(fnv1a64(w.bytes()));
  return w.take();
}

/// Checks a sealed image and returns a reader positioned at its payload
/// (which ends where the trailing hash begins). The hash is verified
/// first, so corruption is reported as corruption rather than as a random
/// field error; then the magic and the version. Throws
/// std::invalid_argument naming `what`.
[[nodiscard]] inline WireReader unseal(std::span<const std::uint8_t> image,
                                       const Magic& magic,
                                       std::uint32_t version,
                                       const std::string& what) {
  if (image.size() < magic.size() + 4 + 8) {
    throw std::invalid_argument(what + ": truncated image");
  }
  const std::span<const std::uint8_t> sealed = image.first(image.size() - 8);
  if (WireReader(image.last(8)).u64() != fnv1a64(sealed)) {
    throw std::invalid_argument(what +
                                ": trailing hash mismatch (corrupt image)");
  }
  WireReader r(sealed);
  for (const std::uint8_t byte : magic) {
    if (r.u8() != byte) throw std::invalid_argument(what + ": bad magic");
  }
  const std::uint32_t found = r.u32();
  if (found != version) {
    throw std::invalid_argument(what + ": unsupported version " +
                                std::to_string(found));
  }
  return r;
}

}  // namespace ulpsync::util
