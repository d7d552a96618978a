// Persistent artifact tier tests: the DMVA file framing, the metrics
// codec, and the disk tier under the shared cache and the server.
//
// The store's contract is exact: every codec round trip is
// bit-identical, every hostile artifact is rejected cleanly, and the
// disk artifact tier re-serves prior results byte for byte across
// process "restarts" (new cache/server objects over the same
// directory).

#include "dmv/store/artifact_store.hpp"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dmv/par/par.hpp"
#include "dmv/serve/server.hpp"
#include "dmv/session/session.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/util/fnv1a.hpp"
#include "dmv/util/json.hpp"
#include "dmv/workloads/workloads.hpp"
#include "sweep_cases.hpp"

namespace dmv {
namespace {

namespace fs = std::filesystem;

/// Fresh empty scratch directory, removed and recreated per call.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("dmv_store_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------
// Persistent artifact tier.

session::ArtifactKey test_key(std::uint8_t kind, std::int64_t k) {
  session::ArtifactKey key;
  key.kind = kind;
  key.program_hash = 0x1234abcdu;
  key.config_hash = 0x9876u;
  key.binding = {{"I", 8}, {"K", k}};
  return key;
}

std::array<std::int64_t, 3> miss_fields(const sim::MissStats& stats) {
  return {stats.cold, stats.capacity, stats.hits};
}

std::vector<std::array<std::int64_t, 3>> miss_fields(
    const std::vector<sim::MissStats>& stats) {
  std::vector<std::array<std::int64_t, 3>> fields;
  for (const sim::MissStats& entry : stats) {
    fields.push_back(miss_fields(entry));
  }
  return fields;
}

/// Field-for-field equality of two metric bundles.
void expect_results_equal(const sim::PipelineResult& actual,
                          const sim::PipelineResult& expected) {
  EXPECT_EQ(actual.events, expected.events);
  EXPECT_EQ(actual.executions, expected.executions);
  EXPECT_EQ(actual.containers, expected.containers);
  EXPECT_EQ(actual.counts.reads, expected.counts.reads);
  EXPECT_EQ(actual.counts.writes, expected.counts.writes);
  EXPECT_EQ(actual.distances.line_size, expected.distances.line_size);
  EXPECT_EQ(actual.distances.distances, expected.distances.distances);
  EXPECT_EQ(actual.misses.threshold_lines, expected.misses.threshold_lines);
  EXPECT_EQ(miss_fields(actual.misses.per_container),
            miss_fields(expected.misses.per_container));
  EXPECT_EQ(actual.misses.element_misses, expected.misses.element_misses);
  EXPECT_EQ(miss_fields(actual.misses.total),
            miss_fields(expected.misses.total));
  ASSERT_EQ(actual.element_stats.size(), expected.element_stats.size());
  for (std::size_t c = 0; c < expected.element_stats.size(); ++c) {
    EXPECT_EQ(actual.element_stats[c].min, expected.element_stats[c].min)
        << "container " << c;
    EXPECT_EQ(actual.element_stats[c].median,
              expected.element_stats[c].median)
        << "container " << c;
    EXPECT_EQ(actual.element_stats[c].max, expected.element_stats[c].max)
        << "container " << c;
    EXPECT_EQ(actual.element_stats[c].cold_count,
              expected.element_stats[c].cold_count)
        << "container " << c;
  }
  EXPECT_EQ(actual.cache.config.line_size, expected.cache.config.line_size);
  EXPECT_EQ(actual.cache.config.total_size, expected.cache.config.total_size);
  EXPECT_EQ(actual.cache.config.ways, expected.cache.config.ways);
  EXPECT_EQ(miss_fields(actual.cache.per_container),
            miss_fields(expected.cache.per_container));
  EXPECT_EQ(miss_fields(actual.cache.total), miss_fields(expected.cache.total));
  EXPECT_EQ(actual.movement.line_size, expected.movement.line_size);
  EXPECT_EQ(actual.movement.bytes_per_container,
            expected.movement.bytes_per_container);
  EXPECT_EQ(actual.movement.total_bytes, expected.movement.total_bytes);
}

void expect_round_trip_exact(const sim::PipelineResult& original) {
  const std::shared_ptr<const sim::PipelineResult> restored =
      store::decode_pipeline_result(store::encode_pipeline_result(original));
  ASSERT_NE(restored, nullptr);
  expect_results_equal(*restored, original);
}

constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// `count` (>= 2) values spanning exactly [lo, lo + range]: lo, the top,
/// then halvings of the range. lo + range must not pass kInt64Max.
std::vector<std::int64_t> spanning(std::int64_t lo, std::uint64_t range,
                                   std::size_t count) {
  std::vector<std::int64_t> values{lo};
  for (std::size_t i = 1; i < count; ++i) {
    values.push_back(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(lo) + (range >> ((i - 1) % 8))));
  }
  return values;
}

/// Every edge the packed vectors must survive: empty, one element, all
/// equal, negative, the full int64 range, and ranges at and just past
/// each width's limit, at lengths that are not multiples of 8.
std::vector<std::vector<std::int64_t>> edge_vectors() {
  std::vector<std::vector<std::int64_t>> vectors = {
      {},
      {-9},
      std::vector<std::int64_t>(9, 42),
      {-7, -1, -100},
      {kInt64Min, kInt64Max, 0, -1, 1},
      {kInt64Max, kInt64Max - 3},
  };
  for (const unsigned width : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const std::uint64_t limit = (std::uint64_t{1} << width) - 1;
    vectors.push_back(spanning(-3, limit, 13));
    vectors.push_back(spanning(1000, limit + 1, 11));
  }
  vectors.push_back(spanning(kInt64Min, ~std::uint64_t{0}, 67));
  return vectors;
}

/// A bundle with every field set, its vectors drawn from edge_vectors().
sim::PipelineResult hand_built_result() {
  const std::vector<std::vector<std::int64_t>> vectors = edge_vectors();
  const std::size_t n = vectors.size();
  sim::PipelineResult result;
  result.events = 123456789;
  result.executions = -42;
  result.distances.line_size = 128;
  result.misses.threshold_lines = 512;
  result.misses.total = {11, 22, 33};
  result.cache.config = {32, 4096, 0};
  result.cache.total = {kInt64Max, kInt64Min, -1};
  result.movement.line_size = 256;
  result.movement.total_bytes = 1 << 20;
  for (std::size_t c = 0; c < n; ++c) {
    const auto i = static_cast<std::int64_t>(c);
    result.containers.push_back("c" + std::to_string(c));
    result.counts.reads.emplace_back(vectors[c]);
    result.counts.writes.emplace_back(vectors[n - 1 - c]);
    result.misses.per_container.push_back({i, 2 * i, -3 * i});
    result.misses.element_misses.emplace_back(vectors[(c + 1) % n]);
    result.element_stats.push_back({vectors[(c + 2) % n], vectors[(c + 3) % n],
                                    vectors[(c + 4) % n],
                                    sim::CountColumn(vectors[(c + 5) % n])});
    result.cache.per_container.push_back({-i, i * i, 7});
    result.movement.bytes_per_container.push_back(i * 64 - 5);
    result.distances.distances.insert(result.distances.distances.end(),
                                      vectors[c].begin(), vectors[c].end());
  }
  return result;
}

/// The low `n` bytes of `value`, little-endian.
std::string le_bytes(std::uint64_t value, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
  return out;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/// The store's checksum, written out independently: FNV-1a 64 mixed per
/// 64-bit little-endian word, the tail zero-padded, then the byte length.
std::uint64_t store_checksum(std::uint64_t hash, const std::string& bytes) {
  auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    word |= std::uint64_t{static_cast<unsigned char>(bytes[i])}
            << (8 * (i % 8));
    if (i % 8 == 7) {
      mix(word);
      word = 0;
    }
  }
  mix(word);
  mix(bytes.size());
  return hash;
}

/// `body` with a valid DMVR trailer, so only the decoder's structural
/// checks can reject an edit made to it.
std::string sealed(const std::string& body) {
  return body + le_bytes(store_checksum(kFnvOffset, body), 8);
}

std::string reseal(const std::string& bytes) {
  return sealed(bytes.substr(0, bytes.size() - 8));
}

/// A small bundle whose first packed vector, counts.reads[0], has width
/// 64: read at any other width it cannot decode to a valid bundle.
sim::PipelineResult small_result() {
  sim::PipelineResult result;
  result.events = 10;
  result.executions = 4;
  result.containers = {"A", "B"};
  result.counts.reads = {{kInt64Min, 0, kInt64Max, 1}, {0, 1, 2, 3}};
  result.counts.writes = {{1}, {}};
  result.distances.distances = {3, -1, 0, 70000};
  result.misses.per_container = {{1, 2, 3}, {4, 5, 6}};
  result.misses.element_misses = {{0, 1, 0, 1}, {2, 2}};
  result.element_stats = {{{1}, {2}, {3}, {0}}, {{}, {}, {}, {}}};
  result.movement.bytes_per_container = {64, 128};
  return result;
}

// Offsets into encode_pipeline_result(small_result()): "DMVR", version,
// events, executions and the container count, the names "A" and "B"
// (u32 length + 1 byte each) and the reads row count come before the
// first packed vector's u64 count; its u8 width and i64 base follow.
constexpr std::size_t kFirstCountAt = 4 + 4 + 8 + 8 + 8 + 5 + 5 + 8;
constexpr std::size_t kFirstWidthAt = kFirstCountAt + 8;
constexpr std::size_t kFirstPayloadAt = kFirstWidthAt + 1 + 8;

/// Encoded payload bytes of one vector: the growth of a one-container
/// encoding when its read counts go from empty to `values`.
std::size_t packed_payload_bytes(const std::vector<std::int64_t>& values) {
  sim::PipelineResult result;
  result.containers = {"A"};
  result.counts.writes = {{}};
  result.counts.reads = {{}};
  const std::size_t empty = store::encode_pipeline_result(result).size();
  result.counts.reads = {sim::CountColumn(values)};
  return store::encode_pipeline_result(result).size() - empty;
}

TEST(StoreDiskCacheTest, ArtifactSurvivesCacheRestart) {
  const fs::path dir = scratch_dir("disk_restart");
  const std::string payload = "payload bytes \x01\x02\x03";
  {
    store::DiskArtifactCache cache({dir.string()});
    cache.store(test_key(9, 5), payload);
    EXPECT_EQ(cache.stats().writes, 1);
  }
  store::DiskArtifactCache reopened({dir.string()});
  EXPECT_EQ(reopened.stats().files, 1u);
  std::string loaded;
  ASSERT_TRUE(reopened.load(test_key(9, 5), loaded));
  EXPECT_EQ(loaded, payload);
  EXPECT_FALSE(reopened.load(test_key(9, 6), loaded));
  EXPECT_EQ(reopened.stats().hits, 1);
  EXPECT_EQ(reopened.stats().misses, 1);
  fs::remove_all(dir);
}

// Artifact files in `dir` as (count, bytes): what stats() must report.
std::pair<std::size_t, std::size_t> directory_totals(const fs::path& dir) {
  std::size_t files = 0;
  std::size_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".dmva") continue;
    ++files;
    bytes += static_cast<std::size_t>(entry.file_size());
  }
  return {files, bytes};
}

// The byte budget evicts by last write time, oldest first, until the
// directory fits, and never the file just written. Each file's time is
// set explicitly, in an order that is neither write order nor name
// order, so the test does not depend on the clock.
TEST(StoreDiskCacheTest, EvictsOldestFilesBeyondBudget) {
  const fs::path dir = scratch_dir("disk_evict");
  const std::string payload(1000, 'p');
  std::size_t artifact = 0;  // Every key below encodes to the same size.
  {
    store::DiskArtifactCache unbounded({dir.string()});
    for (std::int64_t k = 1; k <= 4; ++k) {
      unbounded.store(test_key(9, k), payload);
    }
    artifact = unbounded.stats().bytes / 4;
  }
  ASSERT_EQ(directory_totals(dir),
            std::make_pair(std::size_t{4}, 4 * artifact));
  // Oldest to newest: k = 3, 1, 4, 2.
  const auto base = fs::file_time_type::clock::now() - std::chrono::hours(24);
  const std::int64_t age_order[] = {3, 1, 4, 2};
  for (int rank = 0; rank < 4; ++rank) {
    char stem[17];
    std::snprintf(stem, sizeof stem, "%016llx",
                  static_cast<unsigned long long>(store::artifact_key_hash64(
                      test_key(9, age_order[rank]))));
    fs::last_write_time(dir / (std::string(stem) + ".dmva"),
                        base + std::chrono::minutes(rank));
  }

  // About two artifacts: storing a fifth evicts the three oldest.
  const std::size_t budget = 2 * artifact + artifact / 2;
  store::DiskArtifactCache cache({dir.string(), budget});
  EXPECT_EQ(cache.stats().files, 4u) << "opening evicts nothing";
  cache.store(test_key(9, 5), payload);
  std::string loaded;
  for (const std::int64_t gone : {3, 1, 4}) {
    EXPECT_FALSE(cache.load(test_key(9, gone), loaded)) << "k=" << gone;
  }
  for (const std::int64_t kept : {2, 5}) {
    ASSERT_TRUE(cache.load(test_key(9, kept), loaded)) << "k=" << kept;
    EXPECT_EQ(loaded, payload);
  }
  auto expect_stats_match = [&](const store::DiskArtifactCache& disk,
                                const std::string& where) {
    const auto [files, bytes] = directory_totals(dir);
    EXPECT_EQ(disk.stats().files, files) << where;
    EXPECT_EQ(disk.stats().bytes, bytes) << where;
  };
  expect_stats_match(cache, "after the first eviction");
  EXPECT_EQ(cache.stats().files, 2u);

  // A file larger than the whole budget evicts every other file and
  // survives alone.
  const std::string large(3 * budget, 'L');
  cache.store(test_key(9, 6), large);
  EXPECT_EQ(directory_totals(dir).first, 1u);
  ASSERT_TRUE(cache.load(test_key(9, 6), loaded));
  EXPECT_EQ(loaded, large);
  EXPECT_GT(cache.stats().bytes, budget);
  expect_stats_match(cache, "after the oversized write");

  store::DiskArtifactCache reopened({dir.string(), budget});
  expect_stats_match(reopened, "reopened");
  EXPECT_EQ(reopened.stats().files, cache.stats().files);
  EXPECT_EQ(reopened.stats().bytes, cache.stats().bytes);
  fs::remove_all(dir);
}

TEST(StoreDiskCacheTest, CorruptArtifactDroppedCleanly) {
  const fs::path dir = scratch_dir("disk_corrupt");
  store::DiskArtifactCache cache({dir.string()});
  cache.store(test_key(9, 5), "precious artifact bytes");
  fs::path file;
  for (const auto& entry : fs::directory_iterator(dir)) {
    file = entry.path();
  }
  ASSERT_FALSE(file.empty());
  {
    std::fstream patch(file,
                       std::ios::in | std::ios::out | std::ios::binary);
    patch.seekp(-3, std::ios::end);
    patch.put('\x5a');
  }
  std::string loaded;
  EXPECT_FALSE(cache.load(test_key(9, 5), loaded));
  EXPECT_EQ(cache.stats().dropped_corrupt, 1);
  EXPECT_FALSE(fs::exists(file)) << "corrupt file must be removed";
  fs::remove_all(dir);
}

TEST(StoreDiskCacheTest, PipelineResultCodecIsExact) {
  ir::Sdfg sdfg = workloads::matmul();
  sim::PipelineConfig config;
  config.miss_threshold_lines = 8;
  config.element_stats = true;
  config.movement = true;
  config.keep_distances = true;
  sim::CacheConfig cache_config;
  config.cache = cache_config;
  sim::MetricPipeline pipeline(config);
  sim::PipelineResult original =
      pipeline.run(sdfg, workloads::matmul_fig5());

  const session::ArtifactCodec codec = store::pipeline_result_codec();
  const std::string bytes = codec.encode(&original);
  std::shared_ptr<const void> decoded = codec.decode(bytes);
  ASSERT_NE(decoded, nullptr);
  const auto& restored =
      *static_cast<const sim::PipelineResult*>(decoded.get());
  expect_results_equal(restored, original);
  EXPECT_EQ(serve::result_checksum(restored),
            serve::result_checksum(original));
  // The first result of each interactive slider sweep.
  for (const sweep_cases::Sweep& sweep : sweep_cases::sweeps()) {
    sim::MetricPipeline sweep_pipeline(sweep_cases::sweep_config());
    const sim::PipelineResult result =
        sweep_pipeline.run(sweep.sdfg, sweep.bindings.front());
    const std::shared_ptr<const void> round =
        codec.decode(codec.encode(&result));
    ASSERT_NE(round, nullptr) << sweep.name;
    expect_results_equal(*static_cast<const sim::PipelineResult*>(round.get()),
                         result);
  }

  // Any bit flip makes decode() report malformation, not garbage.
  for (const std::size_t at : {std::size_t{6}, bytes.size() / 2}) {
    std::string damaged = bytes;
    damaged[at] ^= 0x10;
    EXPECT_EQ(codec.decode(damaged), nullptr) << "flip at " << at;
  }
  EXPECT_EQ(codec.decode(std::string("DMVR")), nullptr);

  // Every field set, and packed vectors at every width and edge.
  expect_round_trip_exact(hand_built_result());
  expect_round_trip_exact(sim::PipelineResult{});
}

TEST(StoreDiskCacheTest, PackedWidthIsTheSmallestThatHoldsTheRange) {
  EXPECT_EQ(packed_payload_bytes({}), 0u);
  EXPECT_EQ(packed_payload_bytes({-9}), 1u);  // Width 1, zero bits used.
  EXPECT_EQ(packed_payload_bytes(std::vector<std::int64_t>(9, 42)), 2u);
  EXPECT_EQ(packed_payload_bytes({-7, -1, -100}), 3u);  // Range 99: 8 bits.
  EXPECT_EQ(packed_payload_bytes({kInt64Min, kInt64Max}), 16u);
  for (const unsigned width : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const std::uint64_t limit = (std::uint64_t{1} << width) - 1;
    for (const std::size_t count : {std::size_t{2}, std::size_t{9},
                                    std::size_t{13}, std::size_t{67}}) {
      EXPECT_EQ(packed_payload_bytes(spanning(-3, limit, count)),
                (count * width + 7) / 8)
          << "width " << width << ", count " << count;
      EXPECT_EQ(packed_payload_bytes(spanning(-3, limit + 1, count)),
                (count * 2 * width + 7) / 8)
          << "width " << 2 * width << ", count " << count;
    }
  }
}

TEST(StoreReaderTest, ArtifactDecodeRejectsEveryTruncation) {
  const std::string bytes = store::encode_pipeline_result(small_result());
  ASSERT_NE(store::decode_pipeline_result(bytes), nullptr);
  ASSERT_NE(store::decode_pipeline_result(reseal(bytes)), nullptr);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    const std::string prefix = bytes.substr(0, keep);
    EXPECT_EQ(store::decode_pipeline_result(prefix), nullptr)
        << "kept " << keep;
    // Sealed with a valid checksum: the parser itself must notice.
    if (keep + 8 < bytes.size()) {
      EXPECT_EQ(store::decode_pipeline_result(sealed(prefix)), nullptr)
          << "sealed after " << keep;
    }
  }
}

TEST(StoreReaderTest, ArtifactDecodeRejectsBadPackedWidth) {
  const std::string bytes = store::encode_pipeline_result(small_result());
  ASSERT_EQ(static_cast<unsigned char>(bytes[kFirstWidthAt]), 64u);
  for (const int width : {0, 3, 65, 128}) {
    std::string damaged = bytes;
    damaged[kFirstWidthAt] = static_cast<char>(width);
    EXPECT_EQ(store::decode_pipeline_result(reseal(damaged)), nullptr)
        << "width " << width;
  }
}

TEST(StoreReaderTest, ArtifactDecodeRejectsCountBeyondInput) {
  const std::string bytes = store::encode_pipeline_result(small_result());
  ASSERT_EQ(bytes.substr(kFirstCountAt, 8), le_bytes(4, 8));
  // Width 64: the bytes after the base hold at most one value per 8.
  const std::uint64_t most = (bytes.size() - kFirstPayloadAt) / 8;
  for (const std::uint64_t count :
       {most + 1, std::uint64_t{1} << 59, ~std::uint64_t{0}}) {
    std::string damaged = bytes;
    damaged.replace(kFirstCountAt, 8, le_bytes(count, 8));
    EXPECT_EQ(store::decode_pipeline_result(reseal(damaged)), nullptr)
        << "count " << count;
  }
}

TEST(StoreReaderTest, ArtifactDecodeRejectsUnnarrowedCountRecord) {
  // counts.reads[0] is a 64-bit record whose first word is 0, the
  // minimum's. With that word 1 the base is no longer the minimum.
  const std::string bytes = store::encode_pipeline_result(small_result());
  ASSERT_EQ(bytes.substr(kFirstPayloadAt, 8), le_bytes(0, 8));
  std::string damaged = bytes;
  damaged[kFirstPayloadAt] = 1;
  EXPECT_EQ(store::decode_pipeline_result(reseal(damaged)), nullptr);
}

/// Writes one artifact file in the DMVA framing with a valid checksum.
void write_artifact_file(const fs::path& path, std::uint32_t version,
                         const std::string& key_bytes,
                         const std::string& payload) {
  const std::uint64_t checksum =
      store_checksum(store_checksum(kFnvOffset, key_bytes), payload);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "DMVA" << le_bytes(version, 4) << le_bytes(key_bytes.size(), 8)
      << key_bytes << le_bytes(payload.size(), 8) << payload
      << le_bytes(checksum, 8);
}

TEST(StoreDiskCacheTest, VersionOneArtifactIsDroppedThenRewritten) {
  const fs::path dir = scratch_dir("v1_upgrade");
  const std::uint8_t kind = session::metrics_artifact_kind();
  const session::ArtifactKey key = test_key(kind, 5);
  const std::string key_bytes = store::encode_artifact_key(key);
  char stem[17];
  std::snprintf(stem, sizeof stem, "%016llx",
                static_cast<unsigned long long>(
                    store::artifact_key_hash64(key)));
  const fs::path file = dir / (std::string(stem) + ".dmva");
  // A v1 metrics payload: "DMVR", version 1, raw int64 fields.
  const std::string payload = "DMVR" + le_bytes(1, 4) + le_bytes(7, 8);

  // The hand-built framing is sound: at the current version it loads.
  write_artifact_file(file, store::kArtifactFormatVersion, key_bytes,
                      payload);
  {
    store::DiskArtifactCache disk({dir.string()});
    std::string loaded;
    ASSERT_TRUE(disk.load(key, loaded));
    EXPECT_EQ(loaded, payload);
  }
  // At version 1 it is a miss on the corrupt-file path: deleted, counted.
  write_artifact_file(file, 1, key_bytes, payload);
  {
    store::DiskArtifactCache disk({dir.string()});
    ASSERT_EQ(disk.stats().files, 1u);
    std::string loaded;
    EXPECT_FALSE(disk.load(key, loaded));
    EXPECT_EQ(disk.stats().misses, 1);
    EXPECT_EQ(disk.stats().dropped_corrupt, 1);
    EXPECT_EQ(disk.stats().files, 0u);
    EXPECT_FALSE(fs::exists(file));
  }

  // The recomputed artifact is written at the current version, and a
  // restarted cache over the directory loads it.
  ir::Sdfg sdfg = workloads::matmul();
  sim::MetricPipeline pipeline(sim::PipelineConfig{});
  auto artifact = std::make_shared<sim::PipelineResult>(
      pipeline.run(sdfg, workloads::matmul_fig5()));
  session::SharedArtifactCache::Config config;
  config.disk_dir = dir.string();
  config.codecs.emplace_back(kind, store::pipeline_result_codec());
  {
    session::SharedArtifactCache writer(config);
    EXPECT_EQ(writer.lookup(key), nullptr);
    writer.insert(key, artifact, sim::approx_size_bytes(*artifact));
    EXPECT_EQ(writer.stats().disk_writes, 1);
  }
  std::string header(8, '\0');
  std::ifstream(file, std::ios::binary).read(header.data(), 8);
  EXPECT_EQ(header, "DMVA" + le_bytes(store::kArtifactFormatVersion, 4));
  session::SharedArtifactCache reader(config);
  std::shared_ptr<const void> hit = reader.lookup(key);
  ASSERT_NE(hit, nullptr);
  expect_results_equal(*static_cast<const sim::PipelineResult*>(hit.get()),
                       *artifact);
  EXPECT_EQ(reader.stats().disk_hits, 1);
  fs::remove_all(dir);
}

TEST(StoreDiskCacheTest, SharedTierWarmStartsFromDisk) {
  const fs::path dir = scratch_dir("shared_warm");
  ir::Sdfg sdfg = workloads::matmul();
  sim::MetricPipeline pipeline(sim::PipelineConfig{});
  auto artifact = std::make_shared<sim::PipelineResult>(
      pipeline.run(sdfg, workloads::matmul_fig5()));
  const std::uint8_t kind = session::metrics_artifact_kind();

  session::SharedArtifactCache::Config config;
  config.disk_dir = dir.string();
  config.codecs.emplace_back(kind, store::pipeline_result_codec());
  {
    session::SharedArtifactCache first(config);
    first.insert(test_key(kind, 5), artifact, 1024);
    EXPECT_EQ(first.stats().disk_writes, 1);
  }

  // A new cache over the same directory — a restarted process — serves
  // the artifact from disk and promotes it into RAM.
  session::SharedArtifactCache second(config);
  std::size_t charged = 0;
  std::shared_ptr<const void> hit = second.lookup(test_key(kind, 5), &charged);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(serve::result_checksum(
                *static_cast<const sim::PipelineResult*>(hit.get())),
            serve::result_checksum(*artifact));
  EXPECT_EQ(second.stats().disk_hits, 1);
  // The promoted artifact is charged its in-memory size, as a computed
  // one is — not the packed payload size, which is far smaller.
  EXPECT_EQ(second.stats().bytes, sim::approx_size_bytes(*artifact));
  EXPECT_EQ(charged, sim::approx_size_bytes(*artifact));
  // Promoted: the next lookup is a RAM hit, no second disk probe.
  EXPECT_NE(second.lookup(test_key(kind, 5)), nullptr);
  EXPECT_EQ(second.stats().disk_hits, 1);
  // clear() keeps the disk tier (that persistence is its purpose).
  second.clear();
  EXPECT_NE(second.lookup(test_key(kind, 5)), nullptr);
  EXPECT_EQ(second.stats().disk_hits, 2);
  fs::remove_all(dir);
}

TEST(StoreDiskCacheTest, DiskKeysAreStableAcrossBuilds) {
  // A cache dir outlives the binary that filled it: DMVA file names and
  // embedded keys derive from these hashes, so each value below is
  // pinned. Changing one costs every existing cache dir a full refill.
  EXPECT_EQ(sim::fingerprint(sim::PipelineConfig{}), 0x46a9774f932f6798ull);
  EXPECT_EQ(sim::fingerprint(sim::SimulationOptions{}),
            0x9b429300c601833bull);
  session::ArtifactKey key;
  key.program_hash = 0x0123456789abcdefull;
  key.config_hash = 0xfedcba9876543210ull;
  key.binding = {{"I", 8}, {"J", 8}, {"K", 5}};
  EXPECT_EQ(store::artifact_key_hash64(key), 0x00bbfac163dd4ac1ull);

  serve::Server server;
  const json::Value opened = json::parse(server.handle(
      "{\"id\":1,\"method\":\"open_program\",\"params\":{\"session\":\"a\","
      "\"workload\":\"hdiff\"}}"));
  ASSERT_TRUE(opened.has("result")) << json::dump(opened);
  EXPECT_EQ(opened.at("result").at("program_hash").as_string(),
            "0x4ef9d30b57d6738d");
}

TEST(StoreDiskCacheTest, ArtifactBytesAreStableAcrossBuilds) {
  // Artifacts on disk outlive the build that wrote them, and past 2^15
  // vector values the encoder packs each record in its own pool task.
  // The bytes are pinned for the hand-built bundle (packed on the
  // calling thread) and for the counts of revisit-disk's largest
  // bookmark (packed on the pool), at 1 and at 8 threads.
  for (const int threads : {1, 8}) {
    par::ThreadScope scope(threads);
    EXPECT_EQ(util::fnv1a_string(
                  store::encode_pipeline_result(hand_built_result())),
              0x1e07a74efc8c51beull)
        << threads << " threads";
    const sim::PipelineResult counts =
        sim::MetricPipeline(sim::PipelineConfig{})
            .run(workloads::hdiff(workloads::HdiffVariant::Reordered),
                 {{"I", 64}, {"J", 64}, {"K", 40}});
    EXPECT_EQ(util::fnv1a_string(store::encode_pipeline_result(counts)),
              0x2ccb7f74d4428f9cull)
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------
// Server warm restart: the end-to-end acceptance path.

TEST(StoreServeTest, RestartedServerServesFromDiskWithoutSimulating) {
  const fs::path dir = scratch_dir("serve_restart");
  serve::ServerConfig config;
  config.shared_cache.disk_dir = dir.string();

  const std::string open_line =
      "{\"id\":1,\"method\":\"open_program\",\"params\":{\"session\":\"a\","
      "\"workload\":\"hdiff\",\"binding\":{\"I\":8,\"J\":8,\"K\":5}}}";
  const std::string step_line =
      "{\"id\":2,\"method\":\"step\",\"params\":{\"session\":\"a\","
      "\"symbol\":\"K\",\"value\":6}}";

  std::string cold_checksum;
  {
    serve::Server server(config);
    server.handle(open_line);
    const json::Value stepped = json::parse(server.handle(step_line));
    ASSERT_TRUE(stepped.has("result")) << json::dump(stepped);
    cold_checksum = stepped.at("result").at("checksum").as_string();
    EXPECT_EQ(stepped.at("result").at("served_by").as_string(), "compute");
  }

  serve::Server restarted(config);
  restarted.handle(open_line);
  const json::Value warm = json::parse(restarted.handle(step_line));
  ASSERT_TRUE(warm.has("result")) << json::dump(warm);
  EXPECT_EQ(warm.at("result").at("checksum").as_string(), cold_checksum);
  EXPECT_EQ(warm.at("result").at("served_by").as_string(), "shared_cache");
  const session::SharedCacheStats stats = restarted.shared_cache_stats();
  EXPECT_GT(stats.disk_hits, 0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dmv
