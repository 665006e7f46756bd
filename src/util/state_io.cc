#include "util/state_io.h"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace diurnal::util {

namespace {

constexpr std::array<char, 8> kMagic = {'D', 'I', 'U', 'R', 'N', 'C', 'K', 'P'};
constexpr std::uint32_t kEndianSentinel = 0x01020304u;
constexpr std::uint32_t kFlagVarint = 1u << 0;

/// Per-array tags of f64_span's packing decision.
constexpr std::uint8_t kF64Raw = 0;
constexpr std::uint8_t kF64Varint = 1;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

}  // namespace

const char* to_string(StateErrorKind kind) noexcept {
  switch (kind) {
    case StateErrorKind::kIo:
      return "io";
    case StateErrorKind::kBadMagic:
      return "bad-magic";
    case StateErrorKind::kBadEndian:
      return "bad-endian";
    case StateErrorKind::kBadVersion:
      return "bad-version";
    case StateErrorKind::kTruncated:
      return "truncated";
    case StateErrorKind::kBadCrc:
      return "bad-crc";
    case StateErrorKind::kBadSection:
      return "bad-section";
    case StateErrorKind::kBadValue:
      return "bad-value";
  }
  return "unknown";
}

void bad_value(const char* what) {
  throw StateError(StateErrorKind::kBadValue,
                   std::string("state image: ") + what);
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

StateWriter::StateWriter(bool varint) : varint_(varint) {
  buf_.reserve(64);
  for (const char c : kMagic) buf_.push_back(static_cast<std::uint8_t>(c));
  raw32(kEndianSentinel);
  raw32(kStateFormatVersion);
  raw32(varint_ ? kFlagVarint : 0u);
}

void StateWriter::raw32(std::uint32_t v) {
  std::uint8_t b[4];
  std::memcpy(b, &v, 4);
  buf_.insert(buf_.end(), b, b + 4);
}

void StateWriter::raw64(std::uint64_t v) {
  std::uint8_t b[8];
  std::memcpy(b, &v, 8);
  buf_.insert(buf_.end(), b, b + 8);
}

void StateWriter::var64(std::uint64_t v) {
  while (v >= 0x80u) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void StateWriter::begin_section(std::uint32_t tag) {
  if (section_open_) {
    throw StateError(StateErrorKind::kBadSection,
                     "begin_section with a section already open");
  }
  // Frame fields are fixed-width so end_section() can patch in place.
  raw32(tag);
  raw64(0);  // payload length, patched
  raw32(0);  // payload crc, patched
  payload_start_ = buf_.size();
  section_open_ = true;
}

void StateWriter::end_section() {
  if (!section_open_) {
    throw StateError(StateErrorKind::kBadSection,
                     "end_section without an open section");
  }
  const std::uint64_t len = buf_.size() - payload_start_;
  const std::uint32_t crc = crc32(
      std::span<const std::uint8_t>(buf_.data() + payload_start_, len));
  std::memcpy(buf_.data() + payload_start_ - 12, &len, 8);
  std::memcpy(buf_.data() + payload_start_ - 4, &crc, 4);
  section_open_ = false;
}

void StateWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void StateWriter::u32(std::uint32_t v) {
  if (varint_) {
    var64(v);
  } else {
    raw32(v);
  }
}

void StateWriter::u64(std::uint64_t v) {
  if (varint_) {
    var64(v);
  } else {
    raw64(v);
  }
}

void StateWriter::i64(std::int64_t v) {
  // Zigzag: small magnitudes of either sign stay short.
  const std::uint64_t z = (static_cast<std::uint64_t>(v) << 1) ^
                          static_cast<std::uint64_t>(v >> 63);
  u64(z);
}

void StateWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  raw64(bits);
}

void StateWriter::boolean(bool v) { u8(v ? 1 : 0); }

void StateWriter::str(std::string_view s) {
  u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void StateWriter::f64_span(std::span<const double> v) {
  u64(v.size());
  bool integral = varint_;
  if (integral) {
    constexpr double kMax = 4503599627370496.0;  // 2^52
    for (const double x : v) {
      if (!(x >= 0.0 && x < kMax) || std::nearbyint(x) != x ||
          std::signbit(x)) {
        integral = false;
        break;
      }
    }
  }
  u8(integral ? kF64Varint : kF64Raw);
  if (integral) {
    for (const double x : v) var64(static_cast<std::uint64_t>(x));
  } else {
    for (const double x : v) f64(x);
  }
}

const std::vector<std::uint8_t>& StateWriter::bytes() const {
  if (section_open_) {
    throw StateError(StateErrorKind::kBadSection,
                     "bytes() with a section still open");
  }
  return buf_;
}

std::vector<std::uint8_t> StateWriter::take() {
  if (section_open_) {
    throw StateError(StateErrorKind::kBadSection,
                     "take() with a section still open");
  }
  return std::move(buf_);
}

StateReader::StateReader(std::span<const std::uint8_t> image)
    : image_(image) {
  if (image_.size() < kMagic.size() + 12) {
    fail(StateErrorKind::kTruncated, "image shorter than the header");
  }
  if (std::memcmp(image_.data(), kMagic.data(), kMagic.size()) != 0) {
    fail(StateErrorKind::kBadMagic, "not a state image");
  }
  pos_ = kMagic.size();
  if (raw32() != kEndianSentinel) {
    fail(StateErrorKind::kBadEndian, "image endianness does not match host");
  }
  version_ = raw32();
  if (version_ != kStateFormatVersion) {
    fail(StateErrorKind::kBadVersion, "unsupported state format version");
  }
  const std::uint32_t flags = raw32();
  if ((flags & ~kFlagVarint) != 0) {
    // A flag bit this reader does not understand changes decoding rules
    // in ways it cannot honour; accepting it would be silent garbage.
    fail(StateErrorKind::kBadValue, "unknown header flag bits");
  }
  varint_ = (flags & kFlagVarint) != 0;
}

void StateReader::fail(StateErrorKind kind, const char* what) const {
  throw StateError(kind, std::string("state image: ") + what);
}

std::size_t StateReader::remaining() const noexcept {
  const std::size_t limit = section_open_ ? section_end_ : image_.size();
  return pos_ < limit ? limit - pos_ : 0;
}

void StateReader::need(std::size_t n) const {
  if (n > remaining()) {
    fail(StateErrorKind::kTruncated, "read past the end of the data");
  }
}

void StateReader::count(std::size_t& n) {
  const std::uint64_t v = u64();
  if (v > remaining()) {
    fail(StateErrorKind::kTruncated, "count exceeds what the data holds");
  }
  n = static_cast<std::size_t>(v);
}

std::uint32_t StateReader::raw32() {
  need(4);
  std::uint32_t v;
  std::memcpy(&v, image_.data() + pos_, 4);
  pos_ += 4;
  return v;
}

std::uint64_t StateReader::raw64() {
  need(8);
  std::uint64_t v;
  std::memcpy(&v, image_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

std::uint64_t StateReader::var64() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    need(1);
    const std::uint8_t b = image_[pos_++];
    if (shift == 63 && b > 1) {
      fail(StateErrorKind::kBadValue, "varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) return v;
    shift += 7;
    if (shift > 63) {
      fail(StateErrorKind::kBadValue, "varint overflows 64 bits");
    }
  }
}

void StateReader::begin_section(std::uint32_t expected_tag) {
  if (section_open_) {
    fail(StateErrorKind::kBadSection, "begin_section inside a section");
  }
  const std::uint32_t tag = raw32();
  if (tag != expected_tag) {
    fail(StateErrorKind::kBadSection, "unexpected section tag");
  }
  const std::uint64_t len = raw64();
  const std::uint32_t crc = raw32();
  if (len > image_.size() - pos_) {
    fail(StateErrorKind::kTruncated, "section payload exceeds the image");
  }
  const auto payload = image_.subspan(pos_, static_cast<std::size_t>(len));
  if (crc32(payload) != crc) {
    fail(StateErrorKind::kBadCrc, "section payload fails its checksum");
  }
  section_end_ = pos_ + static_cast<std::size_t>(len);
  section_open_ = true;
}

std::uint32_t StateReader::next_tag() const {
  if (section_open_) {
    fail(StateErrorKind::kBadSection, "next_tag inside a section");
  }
  need(4);
  std::uint32_t tag;
  std::memcpy(&tag, image_.data() + pos_, 4);
  return tag;
}

void StateReader::skip_section() {
  begin_section(next_tag());  // framing + CRC validation
  pos_ = section_end_;
  section_open_ = false;
}

void StateReader::end_section() {
  if (!section_open_) {
    fail(StateErrorKind::kBadSection, "end_section without an open section");
  }
  if (pos_ != section_end_) {
    fail(StateErrorKind::kBadSection, "section payload not fully consumed");
  }
  section_open_ = false;
}

std::uint8_t StateReader::u8() {
  need(1);
  return image_[pos_++];
}

std::uint32_t StateReader::u32() {
  if (!varint_) return raw32();
  const std::uint64_t v = var64();
  if (v > 0xFFFFFFFFull) {
    fail(StateErrorKind::kBadValue, "u32 value out of range");
  }
  return static_cast<std::uint32_t>(v);
}

std::uint64_t StateReader::u64() { return varint_ ? var64() : raw64(); }

std::int64_t StateReader::i64() {
  const std::uint64_t z = u64();
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

double StateReader::f64() {
  const std::uint64_t bits = raw64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

bool StateReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) fail(StateErrorKind::kBadValue, "boolean byte not 0/1");
  return v != 0;
}

std::string StateReader::str() {
  const std::uint64_t n = u64();
  need(static_cast<std::size_t>(n));
  std::string s(reinterpret_cast<const char*>(image_.data() + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

void StateReader::f64_span(std::vector<double>& out) {
  std::size_t n = 0;
  count(n);
  out.resize(n);
  f64_values(out);
}

std::size_t StateReader::f64_span_into(std::span<double> out) {
  const std::uint64_t n = u64();
  if (n > out.size()) {
    fail(StateErrorKind::kBadValue, "f64 span longer than its storage");
  }
  f64_values(out.first(static_cast<std::size_t>(n)));
  return static_cast<std::size_t>(n);
}

void StateReader::f64_values(std::span<double> out) {
  const std::uint8_t mode = u8();
  if (mode != kF64Varint && mode != kF64Raw) {
    fail(StateErrorKind::kBadValue, "unknown f64 span packing mode");
  }
  for (double& x : out) {
    x = mode == kF64Varint ? static_cast<double>(var64()) : f64();
  }
}

void write_state_file(const std::string& path,
                      std::span<const std::uint8_t> bytes) {
  // The temp name must be unique per writer: two processes (or threads)
  // flushing the same manifest concurrently — e.g. a capped run's final
  // flush racing a freshly launched --resume — must each stage a private
  // file and rename a complete image into place, never truncate or
  // rename each other's half-written staging file.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw StateError(StateErrorKind::kIo, "cannot open for write: " + tmp);
  }
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    throw StateError(StateErrorKind::kIo, "short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw StateError(StateErrorKind::kIo, "cannot rename into place: " + path);
  }
}

std::vector<std::uint8_t> read_state_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw StateError(StateErrorKind::kIo, "cannot open for read: " + path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const std::size_t got = std::fread(chunk, 1, sizeof(chunk), f);
    bytes.insert(bytes.end(), chunk, chunk + got);
    if (got < sizeof(chunk)) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    throw StateError(StateErrorKind::kIo, "read error: " + path);
  }
  return bytes;
}

}  // namespace diurnal::util
