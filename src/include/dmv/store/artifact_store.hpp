#pragma once

// Persistent artifact storage — the disk tier behind
// session::SharedArtifactCache, plus the binary codec for the metrics
// bundle (sim::PipelineResult) the serving layer persists.
//
// One file per artifact under the cache directory, named by the 64-bit
// FNV-1a hash of the canonical key encoding (16 hex digits + ".dmva").
// Each file embeds the FULL canonical key and an FNV-1a checksum over
// key + payload ("DMVA" v2):
//
//   magic "DMVA" | u32 version | u64 key_size | key bytes |
//   u64 payload_size | payload bytes | u64 checksum
//
// so a filename hash collision decodes as a key mismatch (a miss, never
// a wrong artifact) and a corrupt or truncated file is detected,
// deleted, and re-treated as a miss — the recovery story is "recompute
// and overwrite", never "serve garbage". Writes go through a temp file
// + rename, so concurrent processes sharing a directory never observe
// partial files. Artifact keys hash process-independently (program
// content hash, config fingerprint, restricted binding values), which
// is what makes warm starts across restarts work at all.
//
// The metrics payload ("DMVR", same version) writes every per-element
// vector frame-of-reference bit packed — u64 count | u8 width | i64 base
// | packed bytes, with base = min and width the smallest power of two
// in 1..64 bits holding max - min — so a count vector costs 1 to 4 bits
// per element instead of 64. A sim::CountColumn is stored in the same
// frame, so a count record of 8 bits or more is the column's words,
// copied little-endian both ways. A file of another version (v1 wrote raw
// int64 vectors) fails the version check and takes the corrupt-file
// path: deleted, counted in dropped_corrupt, recomputed.
//
// docs/storage.md covers the lifecycle (population, eviction by oldest
// mtime past the byte budget, corruption recovery); docs/serving.md
// covers the ops side (--cache-dir).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "dmv/session/artifact_cache.hpp"
#include "dmv/sim/pipeline.hpp"

namespace dmv::store {

inline constexpr std::uint32_t kArtifactFormatVersion = 2;

/// Canonical byte encoding of an ArtifactKey (kind, a constant -1,
/// program hash, config hash, sorted binding). Stable across processes
/// and hosts — both the disk filename hash and the embedded
/// key-equality check are computed over these bytes.
std::string encode_artifact_key(const session::ArtifactKey& key);

/// FNV-1a 64 over encode_artifact_key(key) — the disk filename stem.
std::uint64_t artifact_key_hash64(const session::ArtifactKey& key);

class DiskArtifactCache {
 public:
  struct Config {
    std::string dir;
    /// Oldest-mtime files are evicted once the directory exceeds this.
    std::size_t budget_bytes = std::size_t{1} << 30;
  };

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t writes = 0;
    std::int64_t dropped_corrupt = 0;  ///< Files deleted on bad checksum.
    std::size_t bytes = 0;             ///< Current bytes on disk.
    std::size_t files = 0;             ///< Current artifact files.
  };

  /// Creates the directory if missing and scans existing artifacts for
  /// byte accounting (a warm directory from a previous process).
  explicit DiskArtifactCache(Config config);

  /// Reads the artifact stored under `key` into `payload_out`. Returns
  /// false (a miss) when there is no file, the file is corrupt (then
  /// also deletes it), or the embedded key differs (filename-hash
  /// collision).
  bool load(const session::ArtifactKey& key, std::string& payload_out);

  /// Persists `payload` under `key`, overwriting any previous version,
  /// then evicts oldest files while over budget (the fresh file is
  /// exempt, mirroring the RAM tiers' newest-entry exemption).
  void store(const session::ArtifactKey& key, std::string_view payload);

  Stats stats() const;

 private:
  std::string path_for(const session::ArtifactKey& key) const;
  void evict_locked(const std::string& keep_path);

  Config config_;
  mutable std::mutex mutex_;
  Stats stats_;
};

/// Exact binary round trip for the metrics bundle: every field of
/// PipelineResult is integral and every vector and column is packed
/// losslessly, so decode(encode(r)) == r bit for bit (each column at
/// its width) and serve-layer checksums are stable across a disk round
/// trip.
std::string encode_pipeline_result(const sim::PipelineResult& result);

/// Null when `bytes` is not a valid encoding (wrong magic/version,
/// truncation, a packed width that is not a power of two in 1..64, a
/// count the remaining bytes cannot hold, a count record that is not
/// narrowed — its base not the minimum, or its values fitting a
/// narrower column (sim::CountColumn::from_words) — checksum mismatch).
std::shared_ptr<const sim::PipelineResult> decode_pipeline_result(
    const std::string& bytes);

/// The (kind = session::metrics_artifact_kind()) codec registration for
/// SharedArtifactCache::Config::codecs; its `bytes` is
/// sim::approx_size_bytes, the charge computed artifacts take too.
session::ArtifactCodec pipeline_result_codec();

}  // namespace dmv::store
