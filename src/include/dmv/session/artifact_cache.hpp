#pragma once

// Byte-budgeted artifact cache: one class, two tiers.
//
// Every Session (session.hpp) memoizes its artifacts in a private,
// RAM-only instance of this class: one client, one LRU. The serving
// layer (serve/) multiplexes MANY clients onto one process, and their
// artifacts are highly redundant — every client dragging the hdiff
// `size` slider recomputes the same keyed results. So it also builds
// one process-wide instance, keyed the same way — (artifact kind,
// program content hash, pipeline-config hash, binding restricted to
// the artifact's reachable symbols) — that sessions consult between
// their private tier and a real computation:
//
//   private tier hit -> return (counts as hit)
//   shared tier hit  -> insert the shared_ptr into the private tier,
//                       return (counts as hit + shared_hit)
//   miss             -> compute, insert into BOTH tiers
//
// One mutex guards one LRU under one byte budget. Under the lock a
// request does one hash lookup and one list splice; disk I/O runs
// outside it.
//
// Determinism: artifacts are immutable and every producer computes the
// same bytes for the same key (the session determinism contract), so
// which session populates an entry — or whether eviction forces a
// recomputation — can never change returned values, only timing.
//
// Thread safety: all methods are safe to call concurrently.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dmv::store {
class DiskArtifactCache;
}  // namespace dmv::store

namespace dmv::session {

/// The one cache key of the private and the shared tier.
/// `binding` must be RESTRICTED to the artifact's reachable symbols and
/// sorted by symbol name — restriction is the invalidation story
/// (session.hpp); sorting makes equal bindings compare equal.
struct ArtifactKey {
  std::uint8_t kind = 0;  ///< session-internal Kind discriminator.
  std::uint64_t program_hash = 0;
  std::uint64_t config_hash = 0;
  std::vector<std::pair<std::string, std::int64_t>> binding;

  bool operator==(const ArtifactKey&) const = default;
};

struct ArtifactKeyHash {
  std::size_t operator()(const ArtifactKey& key) const;
};

/// Serializer for one artifact kind, consumed by the optional disk
/// tier. encode() must be exact — decode(encode(x)) reproduces a
/// bit-identical artifact, extending the determinism contract to disk.
/// decode() returns null on malformed bytes; the tier treats that as a
/// miss. bytes() is the decoded artifact's in-memory size: a promoted
/// disk hit is charged that, the same figure producers pass to
/// insert(), never its (compressed) payload size. The disk read path
/// needs both decode and bytes. Plain function pointers: a codec is
/// registered once in Config and must not capture state.
struct ArtifactCodec {
  std::string (*encode)(const void* artifact) = nullptr;
  std::shared_ptr<const void> (*decode)(const std::string& bytes) = nullptr;
  std::size_t (*bytes)(const void* artifact) = nullptr;
};

/// Counters, cumulative since construction. The RAM fields are one
/// consistent snapshot; the disk fields are read under the disk tier's
/// own lock.
struct SharedCacheStats {
  std::int64_t hits = 0;        ///< lookup() found the key.
  std::int64_t misses = 0;      ///< lookup() did not.
  std::int64_t insertions = 0;  ///< Entries actually added (not races).
  std::int64_t evictions = 0;   ///< Entries dropped by the byte budget.
  std::size_t bytes = 0;        ///< Current payload bytes.
  std::size_t entries = 0;      ///< Current entry count.
  // Disk tier (all zero when Config::disk_dir is empty).
  std::int64_t disk_hits = 0;    ///< RAM misses satisfied from disk.
  std::int64_t disk_misses = 0;  ///< Disk probes that found nothing.
  std::int64_t disk_writes = 0;  ///< Artifacts persisted.
  std::size_t disk_bytes = 0;    ///< Current bytes in the cache dir.
  std::size_t disk_entries = 0;  ///< Current files in the cache dir.
};

/// Byte-budgeted LRU of immutable artifacts, keyed by ArtifactKey,
/// holding type-erased shared ownership (the key's `kind` field
/// discriminates the payload type). One class serves as each session's
/// private tier (RAM only, SessionConfig::cache_budget_bytes) and as
/// the process-wide tier the server shares among its sessions.
class SharedArtifactCache {
 public:
  struct Config {
    /// Byte budget of the RAM tier. The most recently inserted entry is
    /// always kept, even when it alone exceeds the budget.
    std::size_t budget_bytes = std::size_t{256} << 20;
    /// Persistent warm-start tier (store::DiskArtifactCache): empty
    /// disables it. When set, a RAM miss whose kind has a codec probes
    /// this directory (and promotes a hit into the RAM tier), and every
    /// fresh insert of such a kind writes through — so a restarted
    /// process re-serves prior artifacts without recomputing them.
    std::string disk_dir;
    /// Byte budget of the disk tier; oldest files evicted beyond it.
    std::size_t disk_budget_bytes = std::size_t{1} << 30;
    /// (kind, codec) registrations. Kinds without a codec stay
    /// RAM-only regardless of disk_dir.
    std::vector<std::pair<std::uint8_t, ArtifactCodec>> codecs;
  };

  SharedArtifactCache();  ///< Default Config.
  explicit SharedArtifactCache(Config config);
  ~SharedArtifactCache();
  SharedArtifactCache(const SharedArtifactCache&) = delete;
  SharedArtifactCache& operator=(const SharedArtifactCache&) = delete;

  /// Returns the cached value and refreshes its LRU position, or
  /// nullptr on miss. On a hit, `*bytes_out` (when non-null) receives
  /// the entry's charge — the size passed to insert(), or for a
  /// promoted disk hit the codec's in-memory bytes() — which sessions
  /// use to charge the entry when promoting it into their private tier.
  std::shared_ptr<const void> lookup(const ArtifactKey& key,
                                     std::size_t* bytes_out = nullptr);

  /// Inserts unless the key is already present (first writer wins —
  /// racing producers computed identical bytes anyway). `bytes` is the
  /// caller's approx payload size, the same charge in either tier.
  void insert(const ArtifactKey& key, std::shared_ptr<const void> value,
              std::size_t bytes);

  SharedCacheStats stats() const;
  /// Drops the RAM tier. The disk tier is deliberately untouched —
  /// persistence across clear() (and process restart) is its purpose.
  void clear();

 private:
  struct Entry {
    ArtifactKey key;
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };

  Config config_;
  std::unique_ptr<store::DiskArtifactCache> disk_;

  mutable std::mutex mutex_;  ///< Guards the RAM tier: every member below.
  std::list<Entry> lru_;      ///< Front = most recently used.
  std::unordered_map<ArtifactKey, std::list<Entry>::iterator, ArtifactKeyHash>
      index_;
  std::size_t bytes_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t insertions_ = 0;
  std::int64_t evictions_ = 0;

  const ArtifactCodec* codec_for(std::uint8_t kind) const;
  bool insert_ram(const ArtifactKey& key, std::shared_ptr<const void> value,
                  std::size_t bytes);
};

}  // namespace dmv::session
