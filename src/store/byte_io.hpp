#pragma once

// Little-endian byte encoding helpers of the DMVA artifact writer and
// reader (artifact_store.cpp). Every multi-byte integer on disk is
// little-endian regardless of host order — scalars are assembled
// bytewise and bulk words go through to_little_endian, so the files
// are portable across hosts.
//
// ByteReader is the single funnel every decode path goes through:
// need() bounds-checks before touching memory, so a truncated or
// corrupt file surfaces as std::runtime_error, never as an
// out-of-bounds read (the reader-robustness suite and the ASan job
// depend on this).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "dmv/sim/sim.hpp"
#include "dmv/util/fnv1a.hpp"

namespace dmv::store::detail {

/// Byte order of an unsigned word flipped to little-endian (and back:
/// the conversion is its own inverse). A no-op on little-endian hosts.
template <class Word>
inline Word to_little_endian(Word value) {
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(Word) == 2) return __builtin_bswap16(value);
    if constexpr (sizeof(Word) == 4) return __builtin_bswap32(value);
    if constexpr (sizeof(Word) == 8) return __builtin_bswap64(value);
  }
  return value;
}

/// memcpy + compile-time byteswap compiles to a single load on
/// little-endian hosts, where a bytewise shift loop defeats the
/// optimizer (~10ns/word measured) — u64 reads and the checksum use it.
inline std::uint64_t load_le64(const char* p) {
  std::uint64_t value;
  std::memcpy(&value, p, 8);
  return to_little_endian(value);
}

inline void put_u8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

inline void put_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

inline void put_u64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

inline void put_i64(std::string& out, std::int64_t value) {
  put_u64(out, static_cast<std::uint64_t>(value));
}

// ---------------------------------------------------------------------
// Frame-of-reference bit packing: the i64 vector record of the DMVA
// metrics codec (artifact_store.cpp).
//
//   u64 count | u8 width | i64 base | ceil(count * width / 8) bytes
//
// `base` is the vector's minimum and `width` the smallest of 1, 2, 4,
// 8, 16, 32 and 64 bits that holds max - min in wrapping uint64
// arithmetic, so every int64 range round-trips exactly. Value i is
// stored as v[i] - base in bits [i * width, (i + 1) * width) of the
// payload, LSB first: sub-byte widths fill each byte from bit 0, wider
// ones are little-endian words. Per-element counts are small and often
// zero, so a count vector typically packs into 1 to 4 bits per value.
//
// The sub-byte kernels are byte-major: unpack loads each source byte
// into a local before expanding it. A per-value `src[i / per]` form
// reloads the byte after every store (an unsigned char source may alias
// the int64 output), which blocks vectorization: on 1M values (-O3,
// 4-vCPU Xeon) it unpacks 1.4-1.8x slower than a raw int64 copy, while
// the byte-major form matches the copy.

/// Smallest supported width whose values hold `range` (max - min).
inline unsigned packed_width(std::uint64_t range) {
  unsigned width = 1;
  while (width < 64 && (range >> width) != 0) width *= 2;
  return width;
}

/// Payload bytes of `count` values at `width` bits: ceil(count*width/8).
inline std::size_t packed_bytes(std::size_t count, unsigned width) {
  if (width >= 8) return count * (width / 8);
  const std::size_t per_byte = 8 / width;
  return count / per_byte + (count % per_byte != 0 ? 1 : 0);
}

/// count <= bytes * 8 / width, evaluated without overflow for any
/// untrusted count.
inline bool packed_fits(std::uint64_t count, unsigned width,
                        std::size_t bytes) {
  if (width >= 8) return count <= bytes / (width / 8);
  const std::uint64_t per_byte = 8 / width;
  return count / per_byte + (count % per_byte != 0 ? 1 : 0) <= bytes;
}

template <unsigned Width>
using PackedWord = std::conditional_t<
    Width == 8, std::uint8_t,
    std::conditional_t<Width == 16, std::uint16_t,
                       std::conditional_t<Width == 32, std::uint32_t,
                                          std::uint64_t>>>;

/// One byte holding `n` (<= 8 / Width) consecutive sub-byte values.
template <unsigned Width, class Value>
inline unsigned char pack_byte(const Value* values, std::size_t n,
                               std::uint64_t base) {
  unsigned byte = 0;
  for (std::size_t k = 0; k < n; ++k) {
    byte |= static_cast<unsigned>(static_cast<std::uint64_t>(values[k]) -
                                  base)
            << (k * Width);
  }
  return static_cast<unsigned char>(byte);
}

template <unsigned Width, class Value>
inline void unpack_byte(unsigned byte, std::uint64_t base, Value* dest,
                        std::size_t n) {
  constexpr unsigned kMask = (1u << Width) - 1;
  for (std::size_t k = 0; k < n; ++k) {
    dest[k] = static_cast<Value>(base + ((byte >> (k * Width)) & kMask));
  }
}

// The kernels read or write int64 values (base subtracted or added) or,
// with base 0, a CountColumn's one-byte words.
template <unsigned Width, class Value>
void pack_bits(const Value* __restrict values, std::size_t count,
               std::uint64_t base, unsigned char* __restrict dest) {
  if constexpr (Width < 8) {
    constexpr std::size_t kPerByte = 8 / Width;
    const std::size_t full = count / kPerByte;
    for (std::size_t b = 0; b < full; ++b) {
      dest[b] = pack_byte<Width>(values + b * kPerByte, kPerByte, base);
    }
    if (count % kPerByte != 0) {
      dest[full] = pack_byte<Width>(values + full * kPerByte,
                                    count % kPerByte, base);
    }
  } else {
    using Word = PackedWord<Width>;
    for (std::size_t i = 0; i < count; ++i) {
      const Word word = to_little_endian(static_cast<Word>(
          static_cast<std::uint64_t>(values[i]) - base));
      std::memcpy(dest + i * sizeof(Word), &word, sizeof(Word));
    }
  }
}

template <unsigned Width, class Value>
void unpack_bits(const unsigned char* __restrict src, std::size_t count,
                 std::uint64_t base, Value* __restrict dest) {
  if constexpr (Width < 8) {
    constexpr std::size_t kPerByte = 8 / Width;
    const std::size_t full = count / kPerByte;
    for (std::size_t b = 0; b < full; ++b) {
      const unsigned byte = src[b];
      unpack_byte<Width>(byte, base, dest + b * kPerByte, kPerByte);
    }
    if (count % kPerByte != 0) {
      unpack_byte<Width>(src[full], base, dest + full * kPerByte,
                         count % kPerByte);
    }
  } else {
    using Word = PackedWord<Width>;
    for (std::size_t i = 0; i < count; ++i) {
      Word word;
      std::memcpy(&word, src + i * sizeof(Word), sizeof(Word));
      dest[i] = static_cast<Value>(base + to_little_endian(word));
    }
  }
}

/// Calls `kernel(std::integral_constant<unsigned, width>{})` for a
/// supported width (callers validate it first; 64 is the fallback).
template <class Kernel>
inline void with_packed_width(unsigned width, Kernel&& kernel) {
  switch (width) {
    case 1: return kernel(std::integral_constant<unsigned, 1>{});
    case 2: return kernel(std::integral_constant<unsigned, 2>{});
    case 4: return kernel(std::integral_constant<unsigned, 4>{});
    case 8: return kernel(std::integral_constant<unsigned, 8>{});
    case 16: return kernel(std::integral_constant<unsigned, 16>{});
    case 32: return kernel(std::integral_constant<unsigned, 32>{});
    default: return kernel(std::integral_constant<unsigned, 64>{});
  }
}

/// Appends one packed vector record (header and payload).
inline void put_packed_i64s(std::string& out,
                            const std::vector<std::int64_t>& values) {
  std::int64_t lo = values.empty() ? 0 : values[0];
  std::int64_t hi = lo;
  for (const std::int64_t value : values) {
    lo = value < lo ? value : lo;
    hi = value > hi ? value : hi;
  }
  const std::uint64_t base = static_cast<std::uint64_t>(lo);
  const unsigned width = packed_width(static_cast<std::uint64_t>(hi) - base);
  put_u64(out, values.size());
  put_u8(out, static_cast<std::uint8_t>(width));
  put_i64(out, lo);
  const std::size_t offset = out.size();
  out.resize(offset + packed_bytes(values.size(), width));
  auto* dest = reinterpret_cast<unsigned char*>(out.data() + offset);
  with_packed_width(width, [&](auto w) {
    pack_bits<decltype(w)::value>(values.data(), values.size(), base, dest);
  });
}

/// Appends one packed record of a column: the bytes put_packed_i64s
/// writes for its values. A column is already in the record's frame of
/// reference — its base is the minimum and its largest word is
/// max - min — so a record of 8 bits or more is the column's words,
/// copied little-endian, and a narrower one packs its one-byte words.
inline void put_packed_column(std::string& out,
                              const sim::CountColumn& column) {
  column.visit([&](auto words) {
    using Word = typename decltype(words)::value_type;
    Word hi = 0;
    for (const Word word : words) hi = word > hi ? word : hi;
    const unsigned width = packed_width(hi);
    put_u64(out, words.size());
    put_u8(out, static_cast<std::uint8_t>(width));
    put_i64(out, column.base());
    const std::size_t offset = out.size();
    out.resize(offset + packed_bytes(words.size(), width));
    auto* dest = reinterpret_cast<unsigned char*>(out.data() + offset);
    if (width >= 8) {
      // A narrowed column's word is the narrowest holding max - min.
      pack_bits<8 * sizeof(Word)>(words.data(), words.size(), 0, dest);
    } else {
      with_packed_width(width, [&](auto w) {
        if constexpr (decltype(w)::value < 8) {
          pack_bits<decltype(w)::value>(words.data(), words.size(), 0, dest);
        }
      });
    }
  });
}

class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size, const char* what)
      : data_(data), size_(size), what_(what) {}

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }

  const char* need(std::size_t n) {
    if (n > size_ - pos_) fail("truncated input");
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  std::uint8_t u8() { return static_cast<std::uint8_t>(*need(1)); }

  std::uint32_t u32() {
    const char* p = need(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
               << (8 * i);
    }
    return value;
  }

  std::uint64_t u64() { return load_le64(need(8)); }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  /// Reads one packed vector record (put_packed_i64s). The width must
  /// be a power of two in 1..64 and the count must fit the remaining
  /// input; both are checked before anything is allocated, so a hostile
  /// count cannot trigger a runaway allocation.
  std::vector<std::int64_t> packed_i64s() {
    const std::uint64_t count = u64();
    const unsigned width = u8();
    const std::uint64_t base = u64();
    if (width == 0 || width > 64 || (width & (width - 1)) != 0) {
      fail("bad packed width");
    }
    if (!packed_fits(count, width, remaining())) {
      fail("packed vector overruns input");
    }
    std::vector<std::int64_t> values(static_cast<std::size_t>(count));
    const auto* src = reinterpret_cast<const unsigned char*>(
        need(packed_bytes(values.size(), width)));
    with_packed_width(width, [&](auto w) {
      unpack_bits<decltype(w)::value>(src, values.size(), base,
                                      values.data());
    });
    return values;
  }

  /// Reads one packed record (put_packed_column) into a column: a
  /// record of 8 bits or more copies its little-endian words, a
  /// narrower one unpacks into one-byte words. Checked like
  /// packed_i64s, and the column must come out narrowed, as every
  /// encoder writes it: its base the minimum, its values fitting no
  /// narrower column (sim::CountColumn::from_words).
  sim::CountColumn packed_column() {
    const std::uint64_t count = u64();
    const unsigned width = u8();
    const std::int64_t base = i64();
    if (width == 0 || width > 64 || (width & (width - 1)) != 0) {
      fail("bad packed width");
    }
    if (!packed_fits(count, width, remaining())) {
      fail("packed vector overruns input");
    }
    const std::size_t size = static_cast<std::size_t>(count);
    const auto* src = reinterpret_cast<const unsigned char*>(
        need(packed_bytes(size, width)));
    sim::CountColumn column;
    try {
      with_packed_width(width, [&](auto w) {
        constexpr unsigned kWidth = decltype(w)::value;
        using Word = PackedWord<kWidth < 8 ? 8 : kWidth>;
        std::vector<Word> words(size);
        unpack_bits<kWidth>(src, size, 0, words.data());
        column = sim::CountColumn::from_words(base, std::move(words));
      });
    } catch (const std::invalid_argument&) {
      fail("packed column is not narrowed");
    }
    return column;
  }

  std::string str(std::size_t n) {
    const char* p = need(n);
    return std::string(p, n);
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error(std::string(what_) + ": " + message);
  }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* what_;
};

/// Byte-buffer checksum, mixed per 64-bit little-endian word (the tail
/// is zero-padded and the byte length folded in last, so buffers that
/// differ only in trailing zero bytes still hash differently). Word
/// granularity keeps whole-file checksums cheap on multi-megabyte
/// artifacts.
inline std::uint64_t fnv1a_bytes(std::uint64_t hash, const char* data,
                                 std::size_t size) {
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    hash = util::fnv1a(hash, load_le64(data + i));
  }
  std::uint64_t tail = 0;
  for (int b = 0; i < size; ++i, ++b) {
    tail |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i]))
            << (8 * b);
  }
  hash = util::fnv1a(hash, tail);
  return util::fnv1a(hash, static_cast<std::uint64_t>(size));
}

}  // namespace dmv::store::detail
