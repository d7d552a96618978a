#include "dmv/store/artifact_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "byte_io.hpp"
#include "dmv/par/par.hpp"
#include "dmv/util/fnv1a.hpp"

namespace dmv::store {
namespace {

namespace fs = std::filesystem;
using detail::ByteReader;

constexpr char kArtifactExtension[] = ".dmva";

std::string hex16(std::uint64_t value) {
  static const char digits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

bool is_artifact_file(const fs::directory_entry& entry) {
  return entry.is_regular_file() &&
         entry.path().extension() == kArtifactExtension;
}

}  // namespace

std::string encode_artifact_key(const session::ArtifactKey& key) {
  std::string out;
  detail::put_u8(out, key.kind);
  // Earlier builds encoded an always -1 key field here; writing the
  // same eight bytes keeps the disk keys they wrote valid.
  detail::put_i64(out, -1);
  detail::put_u64(out, key.program_hash);
  detail::put_u64(out, key.config_hash);
  detail::put_u32(out, static_cast<std::uint32_t>(key.binding.size()));
  for (const auto& [symbol, value] : key.binding) {
    detail::put_u32(out, static_cast<std::uint32_t>(symbol.size()));
    out += symbol;
    detail::put_i64(out, value);
  }
  return out;
}

std::uint64_t artifact_key_hash64(const session::ArtifactKey& key) {
  const std::string bytes = encode_artifact_key(key);
  return detail::fnv1a_bytes(util::kFnvOffset, bytes.data(), bytes.size());
}

DiskArtifactCache::DiskArtifactCache(Config config)
    : config_(std::move(config)) {
  if (config_.dir.empty()) {
    throw std::invalid_argument("artifact_store: empty cache directory");
  }
  fs::create_directories(config_.dir);
  for (const fs::directory_entry& entry : fs::directory_iterator(config_.dir)) {
    if (!is_artifact_file(entry)) continue;
    std::error_code ec;
    const std::uintmax_t size = entry.file_size(ec);
    if (ec) continue;
    stats_.bytes += static_cast<std::size_t>(size);
    stats_.files += 1;
  }
}

std::string DiskArtifactCache::path_for(
    const session::ArtifactKey& key) const {
  return config_.dir + "/" + hex16(artifact_key_hash64(key)) +
         kArtifactExtension;
}

bool DiskArtifactCache::load(const session::ArtifactKey& key,
                             std::string& payload_out) {
  const std::string path = path_for(key);
  std::string file;
  {
    // One bulk read — artifacts run to tens of megabytes and a
    // byte-at-a-time streambuf walk dominates warm-start latency.
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.misses;
      return false;
    }
    const std::streamsize size = in.tellg();
    in.seekg(0);
    file.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
    if (!file.empty() && !in.read(file.data(), size)) {
      file.clear();  // Short read: parse below as truncated → corrupt path.
    }
  }
  const std::string expected_key = encode_artifact_key(key);
  try {
    // Parse in place — the checksum and key comparison run over spans
    // of `file`, and the payload is copied out exactly once.
    ByteReader reader(file.data(), file.size(), "artifact_store");
    if (reader.str(4) != "DMVA") reader.fail("bad magic");
    if (reader.u32() != kArtifactFormatVersion) {
      reader.fail("unsupported version");
    }
    const std::uint64_t key_size = reader.u64();
    const char* stored_key = reader.need(key_size);
    const std::uint64_t payload_size = reader.u64();
    const char* payload = reader.need(payload_size);
    const std::uint64_t stored_checksum = reader.u64();
    if (reader.remaining() != 0) reader.fail("trailing bytes");
    std::uint64_t checksum =
        detail::fnv1a_bytes(util::kFnvOffset, stored_key, key_size);
    checksum = detail::fnv1a_bytes(checksum, payload, payload_size);
    if (checksum != stored_checksum) reader.fail("checksum mismatch");
    if (key_size != expected_key.size() ||
        std::memcmp(stored_key, expected_key.data(), key_size) != 0) {
      // Filename-hash collision: a DIFFERENT key's artifact lives here.
      // Not corruption — leave the file, report a miss.
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.misses;
      return false;
    }
    payload_out.assign(payload, payload_size);
  } catch (const std::exception&) {
    // Corrupt or truncated file (e.g. a crashed writer on a filesystem
    // without atomic rename, bit rot): delete it so the slot heals on
    // the next write, and report a miss so the caller recomputes.
    std::lock_guard<std::mutex> lock(mutex_);
    std::error_code ec;
    fs::remove(path, ec);
    if (!ec) {
      stats_.bytes -= std::min(stats_.bytes, file.size());
      stats_.files -= stats_.files > 0 ? 1 : 0;
    }
    ++stats_.dropped_corrupt;
    ++stats_.misses;
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.hits;
  return true;
}

void DiskArtifactCache::store(const session::ArtifactKey& key,
                              std::string_view payload) {
  const std::string key_bytes = encode_artifact_key(key);
  std::string file;
  file += "DMVA";
  detail::put_u32(file, kArtifactFormatVersion);
  detail::put_u64(file, key_bytes.size());
  file += key_bytes;
  detail::put_u64(file, payload.size());
  file.append(payload.data(), payload.size());
  std::uint64_t checksum = detail::fnv1a_bytes(
      util::kFnvOffset, key_bytes.data(), key_bytes.size());
  checksum = detail::fnv1a_bytes(checksum, payload.data(), payload.size());
  detail::put_u64(file, checksum);

  const std::string path = path_for(key);
  std::lock_guard<std::mutex> lock(mutex_);
  std::error_code ec;
  const std::uintmax_t previous = fs::file_size(path, ec);
  const std::size_t previous_bytes =
      ec ? 0 : static_cast<std::size_t>(previous);

  // Temp + rename keeps concurrent readers (and other processes
  // sharing the directory) from ever seeing a partial file.
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return;  // Unwritable cache dir degrades to RAM-only.
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.close();
    if (!out) {
      fs::remove(temp, ec);
      return;
    }
  }
  fs::rename(temp, path, ec);
  if (ec) {
    fs::remove(temp, ec);
    return;
  }
  if (previous_bytes > 0) {
    stats_.bytes -= std::min(stats_.bytes, previous_bytes);
  } else {
    stats_.files += 1;
  }
  stats_.bytes += file.size();
  ++stats_.writes;
  if (stats_.bytes > config_.budget_bytes) evict_locked(path);
}

void DiskArtifactCache::evict_locked(const std::string& keep_path) {
  struct Candidate {
    fs::file_time_type mtime;
    std::string path;
    std::size_t size = 0;
  };
  std::vector<Candidate> candidates;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(config_.dir, ec)) {
    if (!is_artifact_file(entry)) continue;
    if (entry.path().string() == keep_path) continue;
    std::error_code entry_ec;
    Candidate candidate;
    candidate.mtime = entry.last_write_time(entry_ec);
    if (entry_ec) continue;
    candidate.size = static_cast<std::size_t>(entry.file_size(entry_ec));
    if (entry_ec) continue;
    candidate.path = entry.path().string();
    candidates.push_back(std::move(candidate));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.mtime != b.mtime ? a.mtime < b.mtime
                                        : a.path < b.path;
            });
  for (const Candidate& candidate : candidates) {
    if (stats_.bytes <= config_.budget_bytes) break;
    std::error_code remove_ec;
    if (fs::remove(candidate.path, remove_ec) && !remove_ec) {
      stats_.bytes -= std::min(stats_.bytes, candidate.size);
      stats_.files -= stats_.files > 0 ? 1 : 0;
    }
  }
}

DiskArtifactCache::Stats DiskArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

namespace {

// Below this many vector values in all, the records are packed on the
// calling thread: a pool job's dispatch would cost more than it saves.
constexpr std::size_t kMinParallelValues = std::size_t{1} << 15;

// One packed record of the body: an int64 vector or a count column.
struct Record {
  const std::vector<std::int64_t>* vector = nullptr;
  const sim::CountColumn* column = nullptr;

  std::size_t size() const { return vector ? vector->size() : column->size(); }
  void put(std::string& out) const {
    if (vector) {
      detail::put_packed_i64s(out, *vector);
    } else {
      detail::put_packed_column(out, *column);
    }
  }
};

template <class PutRecord>
void put_columns(std::string& out, const std::vector<sim::CountColumn>& rows,
                 PutRecord& put_record) {
  detail::put_u64(out, rows.size());
  for (const sim::CountColumn& row : rows) {
    put_record(out, Record{nullptr, &row});
  }
}

void put_miss_stats(std::string& out, const sim::MissStats& stats) {
  detail::put_i64(out, stats.cold);
  detail::put_i64(out, stats.capacity);
  detail::put_i64(out, stats.hits);
}

// Nested sizes are sanity-bounded against the remaining input (and
// packed records by ByteReader::packed_column) so a corrupt length cannot
// trigger a pathological allocation before the truncation check fires.
std::vector<sim::CountColumn> get_columns(ByteReader& reader) {
  const std::uint64_t count = reader.u64();
  if (count > reader.remaining()) reader.fail("nested vector overruns input");
  std::vector<sim::CountColumn> rows(static_cast<std::size_t>(count));
  for (sim::CountColumn& row : rows) row = reader.packed_column();
  return rows;
}

sim::MissStats get_miss_stats(ByteReader& reader) {
  sim::MissStats stats;
  stats.cold = reader.i64();
  stats.capacity = reader.i64();
  stats.hits = reader.i64();
  return stats;
}

// Writes a DMVR bundle up to its checksum, in the one order the decoder
// reads; `put_record(out, record)` writes each packed record.
template <class PutRecord>
void put_body(std::string& out, const sim::PipelineResult& result,
              PutRecord&& put_record) {
  const auto put_vector = [&](const std::vector<std::int64_t>& values) {
    put_record(out, Record{&values, nullptr});
  };
  out += "DMVR";
  detail::put_u32(out, kArtifactFormatVersion);
  detail::put_i64(out, result.events);
  detail::put_i64(out, result.executions);
  detail::put_u64(out, result.containers.size());
  for (const std::string& name : result.containers) {
    detail::put_u32(out, static_cast<std::uint32_t>(name.size()));
    out += name;
  }
  put_columns(out, result.counts.reads, put_record);
  put_columns(out, result.counts.writes, put_record);
  detail::put_i64(out, result.distances.line_size);
  put_vector(result.distances.distances);
  detail::put_i64(out, result.misses.threshold_lines);
  detail::put_u64(out, result.misses.per_container.size());
  for (const sim::MissStats& stats : result.misses.per_container) {
    put_miss_stats(out, stats);
  }
  put_columns(out, result.misses.element_misses, put_record);
  put_miss_stats(out, result.misses.total);
  detail::put_u64(out, result.element_stats.size());
  for (const sim::ElementDistanceStats& stats : result.element_stats) {
    put_vector(stats.min);
    put_vector(stats.median);
    put_vector(stats.max);
    put_record(out, Record{nullptr, &stats.cold_count});
  }
  detail::put_i64(out, result.cache.config.line_size);
  detail::put_i64(out, result.cache.config.total_size);
  detail::put_i64(out, result.cache.config.ways);
  detail::put_u64(out, result.cache.per_container.size());
  for (const sim::MissStats& stats : result.cache.per_container) {
    put_miss_stats(out, stats);
  }
  put_miss_stats(out, result.cache.total);
  detail::put_i64(out, result.movement.line_size);
  put_vector(result.movement.bytes_per_container);
  detail::put_i64(out, result.movement.total_bytes);
}

}  // namespace

std::string encode_pipeline_result(const sim::PipelineResult& result) {
  // The first pass lists the packed records; each is packed in its own
  // task, and the second pass appends them in body order, so the bytes
  // do not depend on the thread count.
  std::vector<Record> listed;
  std::string scalars;
  put_body(scalars, result, [&](std::string&, const Record& record) {
    listed.push_back(record);
  });
  std::size_t values = 0;
  for (const Record& record : listed) values += record.size();
  std::vector<std::string> records(listed.size());
  const auto pack = [&](std::size_t i) { listed[i].put(records[i]); };
  if (values < kMinParallelValues) {
    for (std::size_t i = 0; i < listed.size(); ++i) pack(i);
  } else {
    par::parallel_tasks(listed.size(), pack);
  }
  std::size_t bytes = scalars.size() + 8;
  for (const std::string& record : records) bytes += record.size();
  std::string out;
  out.reserve(bytes);
  std::size_t next = 0;
  put_body(out, result, [&](std::string& body, const Record&) {
    body += records[next++];
  });
  // Trailing checksum over everything before it — lets the codec stand
  // alone (the disk cache file adds its own whole-file checksum on top).
  detail::put_u64(out,
                  detail::fnv1a_bytes(util::kFnvOffset, out.data(),
                                      out.size()));
  return out;
}

std::shared_ptr<const sim::PipelineResult> decode_pipeline_result(
    const std::string& bytes) {
  try {
    if (bytes.size() < 16) return nullptr;
    const std::size_t body_size = bytes.size() - 8;
    ByteReader reader(bytes.data(), bytes.size(), "artifact_store");
    if (reader.str(4) != "DMVR") return nullptr;
    if (reader.u32() != kArtifactFormatVersion) return nullptr;
    auto result = std::make_shared<sim::PipelineResult>();
    result->events = reader.i64();
    result->executions = reader.i64();
    const std::uint64_t container_count = reader.u64();
    if (container_count > reader.remaining()) return nullptr;
    result->containers.reserve(static_cast<std::size_t>(container_count));
    for (std::uint64_t i = 0; i < container_count; ++i) {
      const std::uint32_t length = reader.u32();
      result->containers.push_back(reader.str(length));
    }
    result->counts.reads = get_columns(reader);
    result->counts.writes = get_columns(reader);
    result->distances.line_size = static_cast<int>(reader.i64());
    result->distances.distances = reader.packed_i64s();
    result->misses.threshold_lines = reader.i64();
    const std::uint64_t miss_containers = reader.u64();
    if (miss_containers > reader.remaining()) return nullptr;
    result->misses.per_container.resize(
        static_cast<std::size_t>(miss_containers));
    for (auto& stats : result->misses.per_container) {
      stats = get_miss_stats(reader);
    }
    result->misses.element_misses = get_columns(reader);
    result->misses.total = get_miss_stats(reader);
    const std::uint64_t element_stat_count = reader.u64();
    if (element_stat_count > reader.remaining()) return nullptr;
    result->element_stats.resize(
        static_cast<std::size_t>(element_stat_count));
    for (auto& stats : result->element_stats) {
      stats.min = reader.packed_i64s();
      stats.median = reader.packed_i64s();
      stats.max = reader.packed_i64s();
      stats.cold_count = reader.packed_column();
    }
    result->cache.config.line_size = static_cast<int>(reader.i64());
    result->cache.config.total_size = reader.i64();
    result->cache.config.ways = static_cast<int>(reader.i64());
    const std::uint64_t cache_containers = reader.u64();
    if (cache_containers > reader.remaining()) return nullptr;
    result->cache.per_container.resize(
        static_cast<std::size_t>(cache_containers));
    for (auto& stats : result->cache.per_container) {
      stats = get_miss_stats(reader);
    }
    result->cache.total = get_miss_stats(reader);
    result->movement.line_size = static_cast<int>(reader.i64());
    result->movement.bytes_per_container = reader.packed_i64s();
    result->movement.total_bytes = reader.i64();
    if (reader.position() != body_size) return nullptr;
    const std::uint64_t stored_checksum = reader.u64();
    if (reader.remaining() != 0) return nullptr;
    if (stored_checksum !=
        detail::fnv1a_bytes(util::kFnvOffset, bytes.data(), body_size)) {
      return nullptr;
    }
    return result;
  } catch (const std::exception&) {
    return nullptr;
  }
}

namespace {

std::string codec_encode(const void* artifact) {
  return encode_pipeline_result(
      *static_cast<const sim::PipelineResult*>(artifact));
}

std::shared_ptr<const void> codec_decode(const std::string& bytes) {
  return decode_pipeline_result(bytes);
}

std::size_t codec_bytes(const void* artifact) {
  return sim::approx_size_bytes(
      *static_cast<const sim::PipelineResult*>(artifact));
}

}  // namespace

session::ArtifactCodec pipeline_result_codec() {
  return {&codec_encode, &codec_decode, &codec_bytes};
}

}  // namespace dmv::store
