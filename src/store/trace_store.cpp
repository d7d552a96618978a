#include "dmv/store/trace_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "byte_io.hpp"
#include "dmv/par/par.hpp"
#include "dmv/util/fnv1a.hpp"

namespace dmv::store {
namespace {

using detail::ByteReader;

// Column section tags. The writer picks whichever encoding is smallest
// for the data at hand; the reader is tag-driven, so any integer column
// may arrive under any integer tag.
constexpr std::uint8_t kTagConst = 0;
constexpr std::uint8_t kTagPacked = 1;
constexpr std::uint8_t kTagDict = 2;
constexpr std::uint8_t kTagBitset = 3;

// Dictionary encoding stops paying for itself once the alphabet stops
// being tiny; past this, fall back to delta bit-packing.
constexpr std::size_t kMaxDict = 4096;

constexpr std::size_t kDirectoryEntryBytes = 56;

/// Appends bits LSB-first; byte layout is independent of host order.
struct BitWriter {
  explicit BitWriter(std::string& out) : out(out) {}

  void push(std::uint64_t value, int width) {
    acc |= value << bits;
    if (bits + width >= 64) {
      for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<char>((acc >> (8 * i)) & 0xff));
      }
      const int consumed = 64 - bits;
      acc = consumed >= 64 ? 0 : value >> consumed;
      bits = bits + width - 64;
    } else {
      bits += width;
    }
  }

  void flush() {
    const int pending = (bits + 7) / 8;
    for (int i = 0; i < pending; ++i) {
      out.push_back(static_cast<char>((acc >> (8 * i)) & 0xff));
    }
    acc = 0;
    bits = 0;
  }

  std::string& out;
  std::uint64_t acc = 0;
  int bits = 0;
};

/// Pulls bits LSB-first through the bounds-checked ByteReader, so a
/// truncated bitstream fails like any other truncation.
struct BitReader {
  explicit BitReader(ByteReader& reader) : reader(reader) {}

  std::uint64_t pull(int width) {
    while (bits < width && bits <= 56) {
      acc |= static_cast<std::uint64_t>(reader.u8()) << bits;
      bits += 8;
    }
    if (bits >= width) {
      const std::uint64_t value =
          width == 64 ? acc : acc & ((std::uint64_t{1} << width) - 1);
      acc = width == 64 ? 0 : acc >> width;
      bits -= width;
      return value;
    }
    // width > bits with a near-full accumulator: take what we have and
    // recurse for the remainder (at most once).
    const std::uint64_t low = acc;
    const int have = bits;
    acc = 0;
    bits = 0;
    return low | (pull(width - have) << have);
  }

  ByteReader& reader;
  std::uint64_t acc = 0;
  int bits = 0;
};

/// tag + u64 size prefix with the size patched in on close().
class Section {
 public:
  Section(std::string& out, std::uint8_t tag) : out_(out) {
    detail::put_u8(out_, tag);
    size_pos_ = out_.size();
    detail::put_u64(out_, 0);
  }
  void close() { detail::patch_u64(out_, size_pos_, out_.size() - size_pos_ - 8); }

 private:
  std::string& out_;
  std::size_t size_pos_ = 0;
};

inline std::uint64_t zigzag(std::uint64_t wrapped_delta) {
  const std::int64_t signed_delta = static_cast<std::int64_t>(wrapped_delta);
  return (wrapped_delta << 1) ^ static_cast<std::uint64_t>(signed_delta >> 63);
}

inline std::uint64_t unzigzag(std::uint64_t encoded) {
  return (encoded >> 1) ^ (~(encoded & 1) + 1);
}

template <typename T>
std::uint64_t widened(T value) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(value));
}

/// Detects v[i] == base + i*delta in wrapping u64 arithmetic (the
/// timestep column — the global event index — always matches).
template <typename T>
bool is_arithmetic_seq(std::span<const T> values, std::int64_t& base,
                       std::uint64_t& delta) {
  base = static_cast<std::int64_t>(values[0]);
  delta = values.size() > 1 ? widened(values[1]) - widened(values[0]) : 0;
  for (std::size_t i = 2; i < values.size(); ++i) {
    if (widened(values[i]) - widened(values[i - 1]) != delta) return false;
  }
  return true;
}

template <typename T>
void encode_int_column(std::span<const T> values, bool try_dict,
                       std::string& out) {
  if (values.empty()) {
    Section section(out, kTagConst);
    section.close();
    return;
  }
  std::int64_t base = 0;
  std::uint64_t delta = 0;
  if (is_arithmetic_seq(values, base, delta)) {
    Section section(out, kTagConst);
    detail::put_i64(out, base);
    detail::put_u64(out, delta);
    section.close();
    return;
  }
  if (try_dict) {
    std::vector<std::int64_t> dict;
    dict.reserve(64);
    for (const T value : values) {
      dict.push_back(static_cast<std::int64_t>(value));
    }
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
    if (dict.size() <= kMaxDict) {
      Section section(out, kTagDict);
      detail::put_u32(out, static_cast<std::uint32_t>(dict.size()));
      for (const std::int64_t entry : dict) detail::put_i64(out, entry);
      const int width =
          dict.size() == 1 ? 0 : std::bit_width(dict.size() - 1);
      detail::put_u8(out, static_cast<std::uint8_t>(width));
      if (width > 0) {
        BitWriter bits(out);
        for (const T value : values) {
          const auto it = std::lower_bound(dict.begin(), dict.end(),
                                           static_cast<std::int64_t>(value));
          bits.push(static_cast<std::uint64_t>(it - dict.begin()), width);
        }
        bits.flush();
      }
      section.close();
      return;
    }
  }
  // Delta + zigzag, bit-packed at the chunk's minimal width.
  int width = 1;
  std::uint64_t prev = widened(values[0]);
  for (std::size_t i = 1; i < values.size(); ++i) {
    const std::uint64_t current = widened(values[i]);
    width = std::max(width, static_cast<int>(std::bit_width(
                                zigzag(current - prev) | 1)));
    prev = current;
  }
  Section section(out, kTagPacked);
  detail::put_i64(out, static_cast<std::int64_t>(values[0]));
  detail::put_u8(out, static_cast<std::uint8_t>(width));
  BitWriter bits(out);
  prev = widened(values[0]);
  for (std::size_t i = 1; i < values.size(); ++i) {
    const std::uint64_t current = widened(values[i]);
    bits.push(zigzag(current - prev), width);
    prev = current;
  }
  bits.flush();
  section.close();
}

void encode_bitset_column(std::span<const std::uint8_t> values,
                          std::string& out) {
  Section section(out, kTagBitset);
  for (std::size_t i = 0; i < values.size(); i += 8) {
    std::uint8_t byte = 0;
    for (std::size_t j = 0; j < 8 && i + j < values.size(); ++j) {
      if (values[i + j] != 0) byte |= static_cast<std::uint8_t>(1u << j);
    }
    out.push_back(static_cast<char>(byte));
  }
  section.close();
}

void decode_int_column(ByteReader& reader, std::int64_t n,
                       std::vector<std::int64_t>& out) {
  const std::uint8_t tag = reader.u8();
  const std::uint64_t size = reader.u64();
  if (size > reader.remaining()) {
    reader.fail("column section overruns chunk payload");
  }
  const std::size_t start = reader.position();
  out.assign(static_cast<std::size_t>(n), 0);
  switch (tag) {
    case kTagConst: {
      if (n == 0) break;
      const std::int64_t base = reader.i64();
      const std::uint64_t delta = reader.u64();
      std::uint64_t value = static_cast<std::uint64_t>(base);
      for (std::int64_t i = 0; i < n; ++i) {
        out[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(value);
        value += delta;
      }
      break;
    }
    case kTagPacked: {
      if (n == 0) reader.fail("packed column in empty chunk");
      const std::int64_t base = reader.i64();
      const int width = reader.u8();
      if (width < 1 || width > 64) reader.fail("bad packed column width");
      BitReader bits(reader);
      std::uint64_t value = static_cast<std::uint64_t>(base);
      out[0] = base;
      for (std::int64_t i = 1; i < n; ++i) {
        value += unzigzag(bits.pull(width));
        out[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(value);
      }
      break;
    }
    case kTagDict: {
      if (n == 0) reader.fail("dictionary column in empty chunk");
      const std::uint32_t dict_size = reader.u32();
      if (dict_size == 0 || dict_size > kMaxDict) {
        reader.fail("bad dictionary size");
      }
      std::vector<std::int64_t> dict(dict_size);
      for (std::uint32_t i = 0; i < dict_size; ++i) dict[i] = reader.i64();
      const int width = reader.u8();
      if (width > 32) reader.fail("bad dictionary index width");
      if (width == 0) {
        for (std::int64_t i = 0; i < n; ++i) {
          out[static_cast<std::size_t>(i)] = dict[0];
        }
      } else {
        BitReader bits(reader);
        for (std::int64_t i = 0; i < n; ++i) {
          const std::uint64_t index = bits.pull(width);
          if (index >= dict_size) reader.fail("dictionary index out of range");
          out[static_cast<std::size_t>(i)] = dict[index];
        }
      }
      break;
    }
    default:
      reader.fail("unknown column tag " + std::to_string(tag));
  }
  if (reader.position() - start != size) {
    reader.fail("column section size mismatch");
  }
}

void decode_bitset_column(ByteReader& reader, std::int64_t n,
                          std::vector<std::uint8_t>& out) {
  const std::uint8_t tag = reader.u8();
  const std::uint64_t size = reader.u64();
  if (tag != kTagBitset) reader.fail("is_write column is not a bitset");
  const std::uint64_t expected = static_cast<std::uint64_t>((n + 7) / 8);
  if (size != expected) reader.fail("bitset section size mismatch");
  out.assign(static_cast<std::size_t>(n), 0);
  for (std::int64_t i = 0; i < n; i += 8) {
    const std::uint8_t byte = reader.u8();
    for (std::int64_t j = 0; j < 8 && i + j < n; ++j) {
      out[static_cast<std::size_t>(i + j)] =
          (byte >> j) & 1 ? std::uint8_t{1} : std::uint8_t{0};
    }
  }
}

/// FNV-1a over the DECODED values of all six columns (widened to 64
/// bits), in column order — the quantity the per-chunk checksum gates.
template <typename C, typename F, typename W, typename T, typename E,
          typename K>
std::uint64_t columns_checksum(std::int64_t n, C container, F flat, W write,
                               T timestep, E execution, K tasklet) {
  std::uint64_t hash = util::kFnvOffset;
  hash = util::fnv1a(hash, static_cast<std::uint64_t>(n));
  for (std::int64_t i = 0; i < n; ++i) hash = util::fnv1a(hash, container(i));
  for (std::int64_t i = 0; i < n; ++i) hash = util::fnv1a(hash, flat(i));
  for (std::int64_t i = 0; i < n; ++i) hash = util::fnv1a(hash, write(i));
  for (std::int64_t i = 0; i < n; ++i) hash = util::fnv1a(hash, timestep(i));
  for (std::int64_t i = 0; i < n; ++i) hash = util::fnv1a(hash, execution(i));
  for (std::int64_t i = 0; i < n; ++i) hash = util::fnv1a(hash, tasklet(i));
  return hash;
}

struct ChunkBound {
  std::int64_t event_offset = 0;
  std::int64_t event_count = 0;
  std::int64_t execution_offset = 0;
  std::int64_t execution_count = 0;
};

struct EncodedChunk {
  std::string payload;
  std::uint64_t checksum = 0;
};

EncodedChunk encode_chunk(const sim::EventList& events, std::int64_t offset,
                          std::int64_t count) {
  const auto off = static_cast<std::size_t>(offset);
  const auto cnt = static_cast<std::size_t>(count);
  const auto container = events.container_column().subspan(off, cnt);
  const auto flat = events.flat_column().subspan(off, cnt);
  const auto write = events.write_column().subspan(off, cnt);
  const auto timestep = events.timestep_column().subspan(off, cnt);
  const auto execution = events.execution_column().subspan(off, cnt);
  const auto tasklet = events.tasklet_column().subspan(off, cnt);

  EncodedChunk chunk;
  encode_int_column(container, /*try_dict=*/true, chunk.payload);
  encode_int_column(flat, /*try_dict=*/false, chunk.payload);
  encode_bitset_column(write, chunk.payload);
  encode_int_column(timestep, /*try_dict=*/false, chunk.payload);
  encode_int_column(execution, /*try_dict=*/false, chunk.payload);
  encode_int_column(tasklet, /*try_dict=*/true, chunk.payload);
  chunk.checksum = columns_checksum(
      count, [&](std::int64_t i) { return widened(container[i]); },
      [&](std::int64_t i) { return widened(flat[i]); },
      [&](std::int64_t i) { return std::uint64_t{write[i] != 0 ? 1u : 0u}; },
      [&](std::int64_t i) { return widened(timestep[i]); },
      [&](std::int64_t i) { return widened(execution[i]); },
      [&](std::int64_t i) { return widened(tasklet[i]); });
  return chunk;
}

/// Chunk boundaries: the trace plan's chunks when one is supplied (its
/// event/execution offsets are exact and free), otherwise fixed event
/// slices with execution offsets read off the execution column.
std::vector<ChunkBound> chunk_bounds(const sim::EventList& events,
                                     const StoreOptions& options,
                                     const sim::TracePlan* plan) {
  const std::int64_t total = static_cast<std::int64_t>(events.size());
  const std::int64_t target = std::max<std::int64_t>(1, options.chunk_events);
  const auto execution = events.execution_column();
  const auto fill_execution = [&](ChunkBound& bound) {
    const std::int64_t first =
        execution[static_cast<std::size_t>(bound.event_offset)];
    const std::int64_t last = execution[static_cast<std::size_t>(
        bound.event_offset + bound.event_count - 1)];
    bound.execution_offset = first;
    bound.execution_count = std::max<std::int64_t>(0, last - first + 1);
  };

  std::vector<ChunkBound> bounds;
  if (plan != nullptr && plan->parallelizable && plan->total_events == total) {
    for (const sim::TraceChunk& chunk : plan->chunks) {
      if (chunk.event_count <= 0) continue;
      if (chunk.event_count <= 2 * target) {
        bounds.push_back({chunk.event_offset, chunk.event_count,
                          chunk.execution_offset, chunk.execution_count});
        continue;
      }
      // Oversized plan chunk: split into target-sized slices whose
      // execution offsets come from the column.
      for (std::int64_t begin = chunk.event_offset;
           begin < chunk.event_offset + chunk.event_count; begin += target) {
        ChunkBound bound;
        bound.event_offset = begin;
        bound.event_count =
            std::min(target, chunk.event_offset + chunk.event_count - begin);
        fill_execution(bound);
        bounds.push_back(bound);
      }
    }
    // Plans tile the event stream by construction; if this one does
    // not (foreign plan, mismatched trace), fall back to plain slices
    // so the directory invariant holds.
    std::int64_t covered = 0;
    bool tiled = true;
    for (const ChunkBound& bound : bounds) {
      if (bound.event_offset != covered) {
        tiled = false;
        break;
      }
      covered += bound.event_count;
    }
    if (tiled && covered == total) return bounds;
    bounds.clear();
  }
  for (std::int64_t begin = 0; begin < total; begin += target) {
    ChunkBound bound;
    bound.event_offset = begin;
    bound.event_count = std::min(target, total - begin);
    fill_execution(bound);
    bounds.push_back(bound);
  }
  return bounds;
}

void write_bytes_file(const std::string& bytes, const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  if (target.has_parent_path()) fs::create_directories(target.parent_path());
  // Temp + rename: readers (including concurrent processes sharing a
  // cache directory) never observe a partially written file.
  fs::path temp = target;
  temp += ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("trace_store: cannot write " + temp.string());
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) {
      std::error_code ec;
      fs::remove(temp, ec);
      throw std::runtime_error("trace_store: short write to " + temp.string());
    }
  }
  fs::rename(temp, target);
}

}  // namespace

std::string pack_trace(const sim::AccessTrace& trace,
                       const StoreOptions& options,
                       const sim::TracePlan* plan) {
  const sim::EventList& events = trace.events;
  if (trace.containers.size() != trace.layouts.size()) {
    throw std::invalid_argument(
        "trace_store: container/layout tables differ in size");
  }
  const std::vector<ChunkBound> bounds = chunk_bounds(events, options, plan);

  // Encode chunks in parallel into private buffers; assembly below is
  // serial, so the file bytes are identical at any thread count.
  std::vector<EncodedChunk> encoded(bounds.size());
  par::parallel_for(bounds.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      encoded[i] = encode_chunk(events, bounds[i].event_offset,
                                bounds[i].event_count);
    }
  });

  std::string out;
  out += "DMVS";
  detail::put_u32(out, kTraceFormatVersion);
  const std::size_t file_bytes_pos = out.size();
  detail::put_u64(out, 0);  // patched below
  detail::put_i64(out, static_cast<std::int64_t>(events.size()));
  detail::put_i64(out, trace.executions);
  detail::put_u32(out, static_cast<std::uint32_t>(trace.containers.size()));
  detail::put_u32(out, static_cast<std::uint32_t>(bounds.size()));
  for (std::size_t c = 0; c < trace.containers.size(); ++c) {
    const std::string& name = trace.containers[c];
    const layout::ConcreteLayout& layout = trace.layouts[c];
    if (layout.shape.size() != layout.strides.size()) {
      throw std::invalid_argument("trace_store: layout " + name +
                                  " has mismatched shape/stride ranks");
    }
    detail::put_u32(out, static_cast<std::uint32_t>(name.size()));
    out += name;
    detail::put_u32(out, static_cast<std::uint32_t>(layout.shape.size()));
    detail::put_i64(out, layout.element_size);
    detail::put_i64(out, layout.start_offset);
    detail::put_i64(out, layout.base_address);
    for (const std::int64_t extent : layout.shape) detail::put_i64(out, extent);
    for (const std::int64_t stride : layout.strides) {
      detail::put_i64(out, stride);
    }
  }
  std::uint64_t payload_offset =
      out.size() + bounds.size() * kDirectoryEntryBytes;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    detail::put_i64(out, bounds[i].event_offset);
    detail::put_i64(out, bounds[i].event_count);
    detail::put_i64(out, bounds[i].execution_offset);
    detail::put_i64(out, bounds[i].execution_count);
    detail::put_u64(out, payload_offset);
    detail::put_u64(out, encoded[i].payload.size());
    detail::put_u64(out, encoded[i].checksum);
    payload_offset += encoded[i].payload.size();
  }
  for (const EncodedChunk& chunk : encoded) out += chunk.payload;
  detail::patch_u64(out, file_bytes_pos, out.size());
  return out;
}

void write_trace_file(const sim::AccessTrace& trace, const std::string& path,
                      const StoreOptions& options,
                      const sim::TracePlan* plan) {
  write_bytes_file(pack_trace(trace, options, plan), path);
}

struct TraceStoreReader::Impl {
  void* map = nullptr;
  std::size_t map_size = 0;
  std::string owned;
  const char* data = nullptr;
  std::size_t size = 0;

  std::int64_t total_events = 0;
  std::int64_t executions = 0;
  std::vector<std::string> containers;
  std::vector<layout::ConcreteLayout> layouts;
  std::vector<std::int64_t> elements;  ///< Per container, checked.
  std::vector<ChunkInfo> chunks;
  std::size_t payload_bytes = 0;

  ~Impl() {
    if (map != nullptr) ::munmap(map, map_size);
  }

  void parse() {
    ByteReader reader(data, size, "trace_store");
    if (size == 0) reader.fail("empty file");
    if (reader.str(4) != "DMVS") {
      reader.fail("bad magic (not a DMVS trace store)");
    }
    const std::uint32_t version = reader.u32();
    if (version != kTraceFormatVersion) {
      reader.fail("unsupported format version " + std::to_string(version) +
                  " (this reader handles version " +
                  std::to_string(kTraceFormatVersion) + ")");
    }
    const std::uint64_t declared = reader.u64();
    if (declared != size) {
      reader.fail("truncated file: header declares " +
                  std::to_string(declared) + " bytes, file has " +
                  std::to_string(size));
    }
    total_events = reader.i64();
    executions = reader.i64();
    if (total_events < 0 || executions < 0) {
      reader.fail("negative count in header");
    }
    const std::uint32_t container_count = reader.u32();
    const std::uint32_t chunk_count = reader.u32();
    if (std::uint64_t{chunk_count} * kDirectoryEntryBytes > size) {
      reader.fail("chunk directory larger than file");
    }
    containers.reserve(container_count);
    layouts.reserve(container_count);
    elements.reserve(container_count);
    for (std::uint32_t c = 0; c < container_count; ++c) {
      const std::uint32_t name_length = reader.u32();
      layout::ConcreteLayout layout;
      layout.name = reader.str(name_length);
      const std::uint32_t rank = reader.u32();
      if (rank > 255) reader.fail("implausible container rank");
      layout.element_size = static_cast<int>(reader.i64());
      if (layout.element_size <= 0) {
        reader.fail("non-positive element size for container " + layout.name);
      }
      layout.start_offset = reader.i64();
      layout.base_address = reader.i64();
      layout.shape.resize(rank);
      layout.strides.resize(rank);
      for (std::uint32_t d = 0; d < rank; ++d) layout.shape[d] = reader.i64();
      for (std::uint32_t d = 0; d < rank; ++d) layout.strides[d] = reader.i64();
      const std::optional<std::int64_t> count = layout.checked_total_elements();
      if (!count) {
        reader.fail("negative extent or element count overflowing int64 "
                    "for container " + layout.name);
      }
      elements.push_back(*count);
      containers.push_back(layout.name);
      layouts.push_back(std::move(layout));
    }
    chunks.resize(chunk_count);
    std::int64_t covered = 0;
    for (std::uint32_t i = 0; i < chunk_count; ++i) {
      ChunkInfo& chunk = chunks[i];
      chunk.event_offset = reader.i64();
      chunk.event_count = reader.i64();
      chunk.execution_offset = reader.i64();
      chunk.execution_count = reader.i64();
      chunk.payload_offset = reader.u64();
      chunk.payload_size = reader.u64();
      chunk.checksum = reader.u64();
      if (chunk.event_count <= 0 || chunk.event_offset != covered) {
        reader.fail("chunk directory does not tile the event stream");
      }
      covered += chunk.event_count;
      if (chunk.payload_offset > size ||
          chunk.payload_size > size - chunk.payload_offset) {
        reader.fail("chunk " + std::to_string(i) + " payload out of bounds");
      }
      payload_bytes += chunk.payload_size;
    }
    if (covered != total_events) {
      reader.fail("chunk directory covers " + std::to_string(covered) +
                  " of " + std::to_string(total_events) + " events");
    }
  }

  void decode_chunk(std::size_t index, sim::EventList& out) const {
    const ChunkInfo& info = chunks[index];
    if (out.size() <
        static_cast<std::size_t>(info.event_offset + info.event_count)) {
      throw std::runtime_error(
          "trace_store: output list smaller than chunk slice");
    }
    ByteReader reader(data + info.payload_offset,
                      static_cast<std::size_t>(info.payload_size),
                      "trace_store");
    const std::int64_t n = info.event_count;
    std::vector<std::int64_t> container, flat, timestep, execution, tasklet;
    std::vector<std::uint8_t> write;
    decode_int_column(reader, n, container);
    decode_int_column(reader, n, flat);
    decode_bitset_column(reader, n, write);
    decode_int_column(reader, n, timestep);
    decode_int_column(reader, n, execution);
    decode_int_column(reader, n, tasklet);
    if (reader.remaining() != 0) {
      reader.fail("trailing bytes after chunk columns");
    }
    const std::uint64_t actual = columns_checksum(
        n, [&](std::int64_t i) { return static_cast<std::uint64_t>(container[i]); },
        [&](std::int64_t i) { return static_cast<std::uint64_t>(flat[i]); },
        [&](std::int64_t i) { return std::uint64_t{write[i] != 0 ? 1u : 0u}; },
        [&](std::int64_t i) { return static_cast<std::uint64_t>(timestep[i]); },
        [&](std::int64_t i) { return static_cast<std::uint64_t>(execution[i]); },
        [&](std::int64_t i) { return static_cast<std::uint64_t>(tasklet[i]); });
    if (actual != info.checksum) {
      reader.fail("chunk " + std::to_string(index) +
                  " checksum mismatch (corrupt payload)");
    }
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t raw_container = container[static_cast<std::size_t>(i)];
      const std::int64_t raw_tasklet = tasklet[static_cast<std::size_t>(i)];
      if (raw_container != static_cast<std::int32_t>(raw_container) ||
          raw_tasklet != static_cast<std::int32_t>(raw_tasklet)) {
        reader.fail("32-bit column value out of range in chunk " +
                    std::to_string(index));
      }
      // Every event must index its container the way the simulator's
      // would: the metric engine trusts both columns as array indices.
      const std::int64_t raw_flat = flat[static_cast<std::size_t>(i)];
      if (raw_container < 0 ||
          raw_container >= static_cast<std::int64_t>(elements.size())) {
        reader.fail("container index out of range in chunk " +
                    std::to_string(index));
      }
      if (raw_flat < 0 ||
          raw_flat >= elements[static_cast<std::size_t>(raw_container)]) {
        reader.fail("element index out of range in chunk " +
                    std::to_string(index));
      }
      sim::AccessEvent event;
      event.container = static_cast<std::int32_t>(raw_container);
      event.flat = raw_flat;
      event.is_write = write[static_cast<std::size_t>(i)] != 0;
      event.timestep = timestep[static_cast<std::size_t>(i)];
      event.execution = execution[static_cast<std::size_t>(i)];
      event.tasklet = static_cast<ir::NodeId>(raw_tasklet);
      out.set(static_cast<std::size_t>(info.event_offset + i), event);
    }
  }
};

TraceStoreReader::TraceStoreReader() = default;
TraceStoreReader::~TraceStoreReader() = default;
TraceStoreReader::TraceStoreReader(TraceStoreReader&& other) noexcept = default;
TraceStoreReader& TraceStoreReader::operator=(TraceStoreReader&& other) noexcept =
    default;

TraceStoreReader::TraceStoreReader(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("trace_store: cannot open " + path);
  }
  struct stat status {};
  if (::fstat(fd, &status) != 0) {
    ::close(fd);
    throw std::runtime_error("trace_store: cannot stat " + path);
  }
  const std::size_t size = static_cast<std::size_t>(status.st_size);
  if (size == 0) {
    ::close(fd);
    throw std::runtime_error("trace_store: empty file " + path);
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map != MAP_FAILED) {
    impl_->map = map;
    impl_->map_size = size;
    impl_->data = static_cast<const char*>(map);
    impl_->size = size;
    ::close(fd);
  } else {
    // Filesystems without mmap support: buffered read of the whole file.
    impl_->owned.resize(size);
    std::size_t have = 0;
    while (have < size) {
      const ::ssize_t got =
          ::read(fd, impl_->owned.data() + have, size - have);
      if (got <= 0) {
        ::close(fd);
        throw std::runtime_error("trace_store: short read on " + path);
      }
      have += static_cast<std::size_t>(got);
    }
    ::close(fd);
    impl_->data = impl_->owned.data();
    impl_->size = size;
  }
  impl_->parse();
}

TraceStoreReader TraceStoreReader::from_bytes(std::string bytes) {
  TraceStoreReader reader;
  reader.impl_ = std::make_unique<Impl>();
  reader.impl_->owned = std::move(bytes);
  reader.impl_->data = reader.impl_->owned.data();
  reader.impl_->size = reader.impl_->owned.size();
  reader.impl_->parse();
  return reader;
}

std::int64_t TraceStoreReader::total_events() const {
  return impl_->total_events;
}
std::int64_t TraceStoreReader::executions() const { return impl_->executions; }
const std::vector<std::string>& TraceStoreReader::containers() const {
  return impl_->containers;
}
const std::vector<layout::ConcreteLayout>& TraceStoreReader::layouts() const {
  return impl_->layouts;
}
std::size_t TraceStoreReader::chunk_count() const {
  return impl_->chunks.size();
}
const ChunkInfo& TraceStoreReader::chunk(std::size_t index) const {
  return impl_->chunks.at(index);
}
std::size_t TraceStoreReader::file_bytes() const { return impl_->size; }
std::size_t TraceStoreReader::payload_bytes() const {
  return impl_->payload_bytes;
}

void TraceStoreReader::read_chunk_into(std::size_t index,
                                       sim::EventList& out) const {
  impl_->decode_chunk(index, out);
}

void TraceStoreReader::read_events(sim::EventList& out) const {
  out.clear();
  out.resize(static_cast<std::size_t>(impl_->total_events));
  // Chunks decode into disjoint absolute slices, so blocks may run in
  // any order; when several fail, the pool rethrows the lowest-index
  // chunk's error, keeping the surfaced message deterministic.
  par::parallel_for(impl_->chunks.size(), 1,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        impl_->decode_chunk(i, out);
                      }
                    });
}

sim::AccessTrace TraceStoreReader::read_trace() const {
  sim::AccessTrace trace;
  trace.containers = impl_->containers;
  trace.layouts = impl_->layouts;
  trace.executions = impl_->executions;
  read_events(trace.events);
  return trace;
}

void TraceStoreReader::verify() const {
  sim::EventList scratch;
  read_events(scratch);
}

}  // namespace dmv::store
