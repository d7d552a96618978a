#include "dmv/session/artifact_cache.hpp"

#include "dmv/store/artifact_store.hpp"
#include "dmv/util/fnv1a.hpp"

namespace dmv::session {

std::size_t ArtifactKeyHash::operator()(const ArtifactKey& key) const {
  using util::fnv1a;
  std::uint64_t hash = util::kFnvOffset;
  hash = fnv1a(hash, key.kind);
  hash = fnv1a(hash,
               static_cast<std::uint64_t>(static_cast<std::int64_t>(key.aux)));
  hash = fnv1a(hash, key.program_hash);
  hash = fnv1a(hash, key.config_hash);
  for (const auto& [name, value] : key.binding) {
    hash = fnv1a(hash, util::fnv1a_string(name));
    hash = fnv1a(hash, static_cast<std::uint64_t>(value));
  }
  return static_cast<std::size_t>(hash);
}

SharedArtifactCache::SharedArtifactCache() : SharedArtifactCache(Config{}) {}

SharedArtifactCache::SharedArtifactCache(Config config)
    : config_(std::move(config)) {
  if (!config_.disk_dir.empty()) {
    store::DiskArtifactCache::Config disk_config;
    disk_config.dir = config_.disk_dir;
    disk_config.budget_bytes = config_.disk_budget_bytes;
    disk_ = std::make_unique<store::DiskArtifactCache>(std::move(disk_config));
  }
}

SharedArtifactCache::~SharedArtifactCache() = default;

const ArtifactCodec* SharedArtifactCache::codec_for(std::uint8_t kind) const {
  for (const auto& [registered_kind, codec] : config_.codecs) {
    if (registered_kind == kind) return &codec;
  }
  return nullptr;
}

std::shared_ptr<const void> SharedArtifactCache::lookup(
    const ArtifactKey& key, std::size_t* bytes_out) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      if (bytes_out) *bytes_out = it->second->bytes;
      return it->second->value;
    }
    ++misses_;
  }
  // RAM miss: probe the persistent tier (outside the lock — disk I/O
  // must not serialize unrelated keys). A decode failure is a miss;
  // a hit is promoted into the RAM tier WITHOUT writing back to disk,
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

bool SharedArtifactCache::insert_ram(const ArtifactKey& key,
                                     std::shared_ptr<const void> value,
                                     std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_.contains(key)) return false;  // First writer won the race.
  lru_.push_front(Entry{key, std::move(value), bytes});
  index_.emplace(lru_.front().key, lru_.begin());
  bytes_ += bytes;
  ++insertions_;
  // Same exemption as the session LRU: the freshly inserted entry stays
  // even when it alone blows the budget.
  while (bytes_ > config_.budget_bytes && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
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
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.hits = hits_;
    stats.misses = misses_;
    stats.insertions = insertions_;
    stats.evictions = evictions_;
    stats.bytes = bytes_;
    stats.entries = lru_.size();
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
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

}  // namespace dmv::session
