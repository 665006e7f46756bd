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

/// The longest LEB128 encoding of a 64-bit value.
constexpr std::size_t kMaxVarintBytes = 10;

/// Per-array tags of f64_span's packing decision.
constexpr std::uint8_t kF64Raw = 0;
constexpr std::uint8_t kF64Varint = 1;

/// Slice-by-16 tables: t[0] is the bytewise table; t[k][i] is the CRC
/// of byte i followed by k zero bytes, so one step folds sixteen bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

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
  const CrcTables& t = kCrcTables;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 16; p += 16, n -= 16) {
    // Byte j of the step has 15 - j bytes after it; the running CRC
    // folds into the first four.
    std::uint32_t next = 0;
    for (std::size_t j = 0; j < 16; ++j) {
      const std::uint32_t b = j < 4 ? (p[j] ^ (c >> (8 * j))) & 0xFFu : p[j];
      next ^= t[15 - j][b];
    }
    c = next;
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

StateWriter::StateWriter() {
  buf_.reserve(64);
  append(kMagic.data(), kMagic.size());
  raw32(kEndianSentinel);
  raw32(kStateFormatVersion);
  raw32(kFlagVarint);
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

void StateWriter::str(std::string_view s) {
  u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void StateWriter::f64_span(std::span<const double> v) {
  u64(v.size());
  // The range and sign tests reject NaN, infinities and -0.0 before
  // the integer round trip, which then decides integrality exactly.
  constexpr double kMax = 4503599627370496.0;  // 2^52
  bool integral = true;
  for (const double x : v) {
    if (!(x >= 0.0 && x < kMax) || std::signbit(x) ||
        static_cast<double>(static_cast<std::int64_t>(x)) != x) {
      integral = false;
      break;
    }
  }
  if (integral) {
    u8(kF64Varint);
    for (const double x : v) var64(static_cast<std::uint64_t>(x));
    return;
  }
  u8(kF64Raw);
  if (buf_.capacity() - buf_.size() >= v.size_bytes()) {
    append(v.data(), v.size_bytes());
    return;
  }
  // Growing: a value at a time, so the buffer reallocates where
  // per-value appends would and the image's capacity (its footprint in
  // a snapshot) does not depend on the one-insert path.
  for (const double x : v) f64(x);
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
  // Every writer sets bit 0 (LEB128 integers) and no other.  An unknown
  // bit changes decoding rules this reader cannot honour, and bit 0
  // clear asks for fixed-width integers, which it no longer decodes:
  // accepting either would be silent garbage.
  if (raw32() != kFlagVarint) {
    fail(StateErrorKind::kBadValue, "unsupported header flags");
  }
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
  // With room for the longest varint left, no byte of this one can run
  // past the data, so that one check covers them all.
  const bool checked = remaining() < kMaxVarintBytes;
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    if (checked) need(1);
    const std::uint8_t b = image_[pos_++];
    // The tenth byte carries bit 63 alone, and no continuation.
    if (shift == 63 && b > 1) {
      fail(StateErrorKind::kBadValue, "varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) return v;
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
  const std::uint64_t v = var64();
  if (v > 0xFFFFFFFFull) {
    fail(StateErrorKind::kBadValue, "u32 value out of range");
  }
  return static_cast<std::uint32_t>(v);
}

std::uint64_t StateReader::u64() { return var64(); }

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
  if (mode == kF64Raw) {
    need(out.size_bytes());
    if (!out.empty()) {
      std::memcpy(out.data(), image_.data() + pos_, out.size_bytes());
    }
    pos_ += out.size_bytes();
    return;
  }
  if (mode != kF64Varint) {
    fail(StateErrorKind::kBadValue, "unknown f64 span packing mode");
  }
  for (double& x : out) x = static_cast<double>(var64());
}

void write_state_file(const std::string& path,
                      std::span<const std::uint8_t> bytes) {
  // The temp name must be unique per writer: two processes (or threads)
  // writing the same file concurrently — e.g. a capped run's last shard
  // racing a freshly launched --resume that recomputes it — must each
  // stage a private file and rename a complete image into place, never
  // truncate or rename each other's half-written staging file.
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
