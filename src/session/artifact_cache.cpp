#include "dmv/session/artifact_cache.hpp"

#include <list>
#include <mutex>
#include <unordered_map>

#include "dmv/store/artifact_store.hpp"

namespace dmv::session {

namespace {

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  hash ^= value;
  hash *= 1099511628211ull;
  return hash;
}

std::uint64_t hash_bytes(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) hash = fnv1a(hash, static_cast<unsigned char>(c));
  return hash;
}

}  // namespace

std::size_t ArtifactKeyHash::operator()(const ArtifactKey& key) const {
  std::uint64_t hash = 1469598103934665603ull;
  hash = fnv1a(hash, key.kind);
  hash = fnv1a(hash,
               static_cast<std::uint64_t>(static_cast<std::int64_t>(key.aux)));
  hash = fnv1a(hash, key.program_hash);
  hash = fnv1a(hash, key.config_hash);
  for (const auto& [name, value] : key.binding) {
    hash = fnv1a(hash, hash_bytes(name));
    hash = fnv1a(hash, static_cast<std::uint64_t>(value));
  }
  return static_cast<std::size_t>(hash);
}

struct SharedArtifactCache::Shard {
  struct Entry {
    ArtifactKey key;
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };

  mutable std::mutex mutex;
  std::list<Entry> lru;  ///< Front = most recently used.
  std::unordered_map<ArtifactKey, std::list<Entry>::iterator, ArtifactKeyHash>
      index;
  std::size_t bytes = 0;
  std::size_t budget = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
};

SharedArtifactCache::SharedArtifactCache() : SharedArtifactCache(Config{}) {}

SharedArtifactCache::SharedArtifactCache(Config config)
    : config_(std::move(config)) {
  if (config_.shards == 0) config_.shards = 1;
  const std::size_t per_shard = config_.budget_bytes / config_.shards;
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->budget = per_shard;
  }
  if (!config_.disk_dir.empty()) {
    store::DiskArtifactCache::Config disk_config;
    disk_config.dir = config_.disk_dir;
    disk_config.budget_bytes = config_.disk_budget_bytes;
    disk_ = std::make_unique<store::DiskArtifactCache>(std::move(disk_config));
  }
}

SharedArtifactCache::~SharedArtifactCache() = default;

SharedArtifactCache::Shard& SharedArtifactCache::shard_for(
    const ArtifactKey& key) const {
  return *shards_[ArtifactKeyHash{}(key) % shards_.size()];
}

const ArtifactCodec* SharedArtifactCache::codec_for(std::uint8_t kind) const {
  for (const auto& [registered_kind, codec] : config_.codecs) {
    if (registered_kind == kind) return &codec;
  }
  return nullptr;
}

std::shared_ptr<const void> SharedArtifactCache::lookup(
    const ArtifactKey& key, std::size_t* bytes_out) {
  {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      ++shard.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      if (bytes_out) *bytes_out = it->second->bytes;
      return it->second->value;
    }
    ++shard.misses;
  }
  // RAM miss: probe the persistent tier (outside the shard lock — disk
  // I/O must not serialize unrelated keys). A decode failure is a miss;
  // a hit is promoted into the RAM shard WITHOUT writing back to disk,
  // charged its in-memory size like a computed artifact (the packed
  // payload is many times smaller than what the RAM tiers hold).
  if (!disk_) return nullptr;
  const ArtifactCodec* codec = codec_for(key.kind);
  if (codec == nullptr || codec->decode == nullptr ||
      codec->bytes == nullptr) {
    return nullptr;
  }
  std::string payload;
  if (!disk_->load(key, payload)) return nullptr;
  std::shared_ptr<const void> value = codec->decode(payload);
  if (value == nullptr) return nullptr;
  const std::size_t bytes = codec->bytes(value.get());
  insert_ram(key, value, bytes);
  if (bytes_out) *bytes_out = bytes;
  return value;
}

bool SharedArtifactCache::contains(const ArtifactKey& key) const {
  {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.index.contains(key)) return true;
  }
  return disk_ != nullptr && codec_for(key.kind) != nullptr &&
         disk_->contains(key);
}

bool SharedArtifactCache::insert_ram(const ArtifactKey& key,
                                     std::shared_ptr<const void> value,
                                     std::size_t bytes) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.index.contains(key)) return false;  // First writer won the race.
  shard.lru.push_front(Shard::Entry{key, std::move(value), bytes});
  shard.index.emplace(shard.lru.front().key, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.insertions;
  // Same exemption as the session LRU: the freshly inserted entry stays
  // even when it alone blows the shard budget.
  while (shard.bytes > shard.budget && shard.lru.size() > 1) {
    const Shard::Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  return true;
}

void SharedArtifactCache::insert(const ArtifactKey& key,
                                 std::shared_ptr<const void> value,
                                 std::size_t bytes) {
  const bool inserted = insert_ram(key, value, bytes);
  // Write-through on fresh inserts only (a racing loser's artifact is
  // bit-identical by the determinism contract, so one write suffices).
  if (!inserted || !disk_) return;
  const ArtifactCodec* codec = codec_for(key.kind);
  if (codec == nullptr || codec->encode == nullptr) return;
  disk_->store(key, codec->encode(value.get()));
}

SharedCacheStats SharedArtifactCache::stats() const {
  SharedCacheStats stats;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.insertions += shard->insertions;
    stats.evictions += shard->evictions;
    stats.bytes += shard->bytes;
    stats.entries += shard->lru.size();
  }
  if (disk_) {
    const store::DiskArtifactCache::Stats disk = disk_->stats();
    stats.disk_hits = disk.hits;
    stats.disk_misses = disk.misses;
    stats.disk_writes = disk.writes;
    stats.disk_bytes = disk.bytes;
    stats.disk_entries = disk.files;
  }
  return stats;
}

void SharedArtifactCache::clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

}  // namespace dmv::session
