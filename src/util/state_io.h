// Framed binary state serialization: the checkpoint/restore substrate
// every pipeline layer shares (DESIGN.md section 11).
//
// A state image is a header plus a sequence of framed sections:
//
//   header   "DIURNCKP" | endian sentinel u32 | format version u32 |
//            flags u32 (bit 0, always set: LEB128 integer packing)
//   section  tag u32 | payload length u64 | payload CRC32 u32 | payload
//
// The header fields are fixed-width native-endian; the sentinel detects
// a cross-endian image (we reject instead of byte-swapping — every
// supported target is little-endian, and a wrong-endian file must never
// be silently misread).  Each section's CRC covers its payload, so a
// flipped byte anywhere surfaces as StateErrorKind::kBadCrc before any
// value is trusted.  Readers consume a section completely or fail: a
// version that writes more fields than the reader understands is a
// format break and bumps kStateFormatVersion (see the compat policy in
// DESIGN.md).
//
// All failures throw StateError — never UB, never a partial overwrite
// of caller state that has already validated.  Callers that can
// recompute (the shard scheduler, the CLI resume path) catch it and
// fall back; callers that cannot (tests) let it propagate.
//
// Field lists (DESIGN.md section 11): each serialized type states its
// layout once, in one function templated over the direction — w.u64(x)
// writes x, r.u64(x) reads into x — and branches on IO::kReading only
// where a wire encoding differs from its C++ field.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace diurnal::util {

/// Current image format version.  Bump on any layout change; readers
/// reject images whose version differs (checkpoints are cheap to
/// regenerate, so there is no cross-version migration path).
inline constexpr std::uint32_t kStateFormatVersion = 1;

enum class StateErrorKind : std::uint8_t {
  kIo,          ///< file missing/unreadable/unwritable
  kBadMagic,    ///< not a state image
  kBadEndian,   ///< written on an incompatible-endian machine
  kBadVersion,  ///< format version mismatch
  kTruncated,   ///< image ends before the data it promises
  kBadCrc,      ///< section payload fails its checksum
  kBadSection,  ///< wrong tag, or payload not fully consumed
  kBadValue,    ///< decoded value violates an invariant
};

const char* to_string(StateErrorKind kind) noexcept;

/// The one failure type of the state layer.  kind() routes recovery:
/// kIo on a checkpoint file usually means "no checkpoint yet"; everything
/// else means "discard and recompute".
class StateError : public std::runtime_error {
 public:
  StateError(StateErrorKind kind, std::string what)
      : std::runtime_error(std::move(what)), kind_(kind) {}
  StateErrorKind kind() const noexcept { return kind_; }

 private:
  StateErrorKind kind_;
};

/// Four-character section tag, e.g. state_tag("FLET").
constexpr std::uint32_t state_tag(const char (&s)[5]) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24);
}

/// CRC-32 (IEEE 802.3 polynomial, reflected; initial value and final
/// xor 0xFFFFFFFF) over a byte span, sixteen bytes per table step
/// (slice-by-16).
std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;

/// Throws StateError(kBadValue, what): the range checks a restore runs
/// after its field list.
[[noreturn]] void bad_value(const char* what);

/// A field of type T as a field list over IO sees it: const when writing.
template <class IO, class T>
using Field = std::conditional_t<IO::kReading, T, const T>;

/// The composite verbs of a field list, one body for both directions:
/// the CRTP base of StateWriter and StateReader.
template <class IO>
class FieldVerbs {
 public:
  /// A checked field, encoded by its type (signed as i64, one byte as
  /// u8, wider unsigned as u64): a reader fails with kBadValue (`what`)
  /// unless it reads back `value`.
  template <std::integral T>
  void expect(T value, const char* what) {
    T v = value;
    if constexpr (std::is_signed_v<T>) {
      io().i64(v);
    } else if constexpr (sizeof(T) == 1) {
      io().u8(v);
    } else {
      io().u64(v);
    }
    if (v != value) bad_value(what);
  }

  /// An index (u64) that a reader accepts only in [lo, end), failing
  /// with kBadValue otherwise: the form of every restored index that
  /// later code uses to address a restored buffer.
  template <std::integral T>
  void index(T& field, std::uint64_t lo, std::uint64_t end) {
    io().u64(field);
    if (IO::kReading && (field < lo || field >= end)) {
      bad_value("index outside the buffer it addresses");
    }
  }

  /// A length-prefixed sequence: count, then each(element) in order.
  /// Reading replaces the contents with default-constructed elements.
  template <class Seq, class Fn>
  void seq(Seq& s, Fn&& each) {
    std::size_t n = s.size();
    io().count(n);
    if constexpr (IO::kReading) {
      s.clear();
      s.resize(n);
    }
    for (auto& e : s) each(e);
  }

  /// A map: count, then each(key, value) per entry.  Reading fills a
  /// default-constructed pair per entry and stores it under its key.
  template <class Map, class Fn>
  void entries(Map& m, Fn&& each) {
    std::size_t n = m.size();
    io().count(n);
    if constexpr (IO::kReading) {
      m.clear();
      for (; n > 0; --n) {
        typename Map::key_type k{};
        typename Map::mapped_type v{};
        each(k, v);
        m.insert_or_assign(k, std::move(v));
      }
    } else {
      for (const auto& [k, v] : m) each(k, v);
    }
  }

  /// Booleans packed into one byte, the first in bit 0; a reader fails
  /// with kBadValue on a set bit past the last.
  template <class... Bits>
  void flags(Bits&... bits) {
    unsigned bit = 0;
    std::uint8_t packed = 0;
    ((packed |= static_cast<std::uint8_t>((bits ? 1u : 0u) << bit++)), ...);
    io().u8(packed);
    if constexpr (IO::kReading) {
      if ((packed >> sizeof...(Bits)) != 0) bad_value("unknown flag bits");
      bit = 0;
      ((bits = ((packed >> bit++) & 1u) != 0), ...);
    }
  }

  /// A member object with its own layout: obj.save() or obj.restore().
  template <class T>
  void nested(T& obj) {
    if constexpr (IO::kReading) {
      obj.restore(io());
    } else {
      obj.save(io());
    }
  }

 private:
  IO& io() { return static_cast<IO&>(*this); }
};

/// Serializes values into an in-memory image.  Integers are LEB128
/// (u32, u64) and zigzag-LEB128 (i64).  f64 is always the raw 8-byte
/// bit pattern — checkpoints must round-trip bitwise, so floating-point
/// values are never re-encoded — except through f64_span's integral
/// fast path, which is exact by construction.
///
/// The value verbs are inline: the field lists that call them are
/// compiled in every layer's translation unit, and an image is mostly
/// one- and two-byte fields.  Bytes are appended through the vector's
/// own push_back/insert growth, which never touches pages past what has
/// been written; a raw f64 array is one insert only when it fits the
/// capacity, so it grows the vector exactly as appending each value
/// alone would.
class StateWriter : public FieldVerbs<StateWriter> {
 public:
  static constexpr bool kReading = false;

  StateWriter();

  /// Opens a framed section; every value lands in it.  Sections do not
  /// nest.
  void begin_section(std::uint32_t tag);
  /// Closes the open section, patching its length and CRC.
  void end_section();

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { var64(v); }
  void u64(std::uint64_t v) { var64(v); }
  void i64(std::int64_t v) {
    // Zigzag: small magnitudes of either sign stay short.
    var64((static_cast<std::uint64_t>(v) << 1) ^
          static_cast<std::uint64_t>(v >> 63));
  }
  void f64(double v) { raw64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);

  /// A double array with a transparent packing decision: when every
  /// value is an exactly representable non-negative integer below 2^52
  /// (active-address counts always are), the values travel as varints;
  /// otherwise as raw doubles.  Both round-trip bitwise.
  void f64_span(std::span<const double> v);

  /// An element count (u64).  The reader bounds it by what the rest of
  /// the section can hold.
  void count(std::size_t n) { u64(n); }

  /// The finished image.  No section may be open.
  const std::vector<std::uint8_t>& bytes() const;
  std::vector<std::uint8_t> take();
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  void append(const void* data, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), b, b + n);
  }
  void raw32(std::uint32_t v) { append(&v, sizeof(v)); }
  void raw64(std::uint64_t v) { append(&v, sizeof(v)); }
  void var64(std::uint64_t v) {
    for (; v >= 0x80u; v >>= 7) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  std::vector<std::uint8_t> buf_;
  std::size_t payload_start_ = 0;  ///< open section's payload offset
  bool section_open_ = false;
};

/// Deserializes an image produced by StateWriter.  The constructor
/// validates magic, endianness, and version; begin_section() validates
/// the tag and payload CRC before any value is read; end_section()
/// requires the payload to be fully consumed.  Every decode error is a
/// StateError — a corrupt image can never produce silent garbage.
class StateReader : public FieldVerbs<StateReader> {
 public:
  static constexpr bool kReading = true;

  /// Borrows `image` for the reader's lifetime.
  explicit StateReader(std::span<const std::uint8_t> image);

  std::uint32_t version() const noexcept { return version_; }

  void begin_section(std::uint32_t expected_tag);
  void end_section();

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();
  void f64_span(std::vector<double>& out);
  /// Reads a span serialized by f64_span into the front of caller
  /// storage and returns its length; a span longer than `out` fails
  /// with kBadValue.
  std::size_t f64_span_into(std::span<double> out);

  // By-reference forms: the field-list spelling.  A decoded integer
  // that does not fit its field fails with kBadValue.
  template <std::integral T>
  void u8(T& field) { field = narrow<T>(u8()); }
  template <std::integral T>
  void u32(T& field) { field = narrow<T>(u32()); }
  template <std::integral T>
  void u64(T& field) { field = narrow<T>(u64()); }
  template <std::integral T>
  void i64(T& field) { field = narrow<T>(i64()); }
  void f64(double& field) { field = f64(); }
  void boolean(bool& field) { field = boolean(); }

  /// Reads an element count, failing with kTruncated unless the rest of
  /// the open section holds at least a byte per element — so a corrupt
  /// count never sizes an allocation beyond the image.
  void count(std::size_t& n);

 private:
  /// Bytes left in the open section (the whole remaining image when
  /// none is open).
  std::size_t remaining() const noexcept;
  template <class T, class V>
  T narrow(V v) const {
    if (!std::in_range<T>(v)) bad_value("value does not fit its field");
    return static_cast<T>(v);
  }

  [[noreturn]] void fail(StateErrorKind kind, const char* what) const;
  void need(std::size_t n) const;
  /// The packing tag and values of an f64_span whose count was read.
  void f64_values(std::span<double> out);
  std::uint32_t raw32();
  std::uint64_t raw64();
  std::uint64_t var64();

  std::span<const std::uint8_t> image_;
  std::size_t pos_ = 0;
  std::size_t section_end_ = 0;
  bool section_open_ = false;
  std::uint32_t version_ = 0;
};

/// Writes an image to `path` atomically: the bytes land in a staging
/// file with a per-process unique suffix and are renamed over the
/// destination, so a reader (or a crash, or a concurrent writer of the
/// same path) sees either the old complete file or a new complete
/// file, never a torn one.  Throws StateError(kIo) on failure.
void write_state_file(const std::string& path,
                      std::span<const std::uint8_t> bytes);

/// Reads a whole file.  Throws StateError(kIo) when missing/unreadable.
std::vector<std::uint8_t> read_state_file(const std::string& path);

}  // namespace diurnal::util
