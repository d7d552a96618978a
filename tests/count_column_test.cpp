// Per-element count column tests (sim::CountColumn).
//
// A column stores v - min in the narrowest of 1, 2, 4 or 8 bytes that
// holds max - min. The suite pins that width rule at every boundary,
// for the int64 constructor and for from_values over every word type,
// the value interface readers use, the DMVR round trip (values and
// width survive, a promoted disk artifact is charged as the computed
// one), and that a MetricPipeline's reused int64 scratch never leaks
// into a result it handed out.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmv/par/par.hpp"
#include "dmv/session/artifact_cache.hpp"
#include "dmv/session/session.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/store/artifact_store.hpp"
#include "dmv/workloads/workloads.hpp"
#include "standalone_reference.hpp"

namespace dmv::sim {
namespace {

using reference::expect_results_equal;
using reference::standalone_result;
using symbolic::SymbolMap;

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// Eleven values from `base` up to base + range, both ends included,
/// computed in wrapping uint64 arithmetic.
std::vector<std::int64_t> spanning(std::int64_t base, std::uint64_t range) {
  std::vector<std::int64_t> values;
  for (std::uint64_t k = 0; k <= 10; ++k) {
    const std::uint64_t offset = k == 10 ? range : range / 10 * k;
    values.push_back(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(base) + offset));
  }
  return values;
}

struct WidthCase {
  std::uint64_t range;
  std::size_t width;
};

const WidthCase kWidthCases[] = {
    {0, 1},
    {255, 1},
    {256, 2},
    {65535, 2},
    {65536, 4},
    {(std::uint64_t{1} << 32) - 1, 4},
    {std::uint64_t{1} << 32, 8},
    {~std::uint64_t{0}, 8},
};

TEST(CountColumn, WidthIsTheNarrowestHoldingMaxMinusMin) {
  for (const WidthCase& c : kWidthCases) {
    EXPECT_EQ(CountColumn::width_for(c.range), c.width) << c.range;
    // At the bottom, around zero and at the top of the int64 range.
    for (const std::int64_t base :
         {kMin, std::int64_t{-3},
          static_cast<std::int64_t>(static_cast<std::uint64_t>(kMax) -
                                    c.range)}) {
      if (c.range > static_cast<std::uint64_t>(kMax) -
                        static_cast<std::uint64_t>(base)) {
        continue;  // base + range would pass INT64_MAX.
      }
      const std::vector<std::int64_t> values = spanning(base, c.range);
      const CountColumn column(values);
      EXPECT_EQ(column.byte_width(), c.width) << c.range << " from " << base;
      EXPECT_EQ(column.base(), base);
      EXPECT_EQ(column.values(), values);
    }
  }
}

TEST(CountColumn, NegativeMinimumIsTheBase) {
  const CountColumn column{-7, -1, -100};
  EXPECT_EQ(column.base(), -100);
  EXPECT_EQ(column.byte_width(), 1u);
  EXPECT_EQ(column.values(), (std::vector<std::int64_t>{-7, -1, -100}));
  EXPECT_EQ(column.sum(), -108);
}

TEST(CountColumn, EmptyColumn) {
  const CountColumn column;
  EXPECT_TRUE(column.empty());
  EXPECT_EQ(column.size(), 0u);
  EXPECT_EQ(column.base(), 0);
  EXPECT_EQ(column.byte_width(), 1u);
  EXPECT_EQ(column.begin(), column.end());
  EXPECT_TRUE(column.values().empty());
  EXPECT_EQ(column.sum(), 0);
  EXPECT_EQ(column, CountColumn(std::vector<std::int64_t>{}));
}

TEST(CountColumn, IndexingIterationAndSumReadTheValues) {
  for (const WidthCase& c : kWidthCases) {
    const std::vector<std::int64_t> values = spanning(-3, c.range);
    const CountColumn column(values);
    ASSERT_EQ(column.size(), values.size());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(column[i], values[i]) << c.range << " at " << i;
      sum += static_cast<std::uint64_t>(values[i]);
    }
    EXPECT_EQ(column.sum(), static_cast<std::int64_t>(sum)) << c.range;
    std::vector<std::int64_t> iterated;
    for (const std::int64_t value : column) iterated.push_back(value);
    EXPECT_EQ(iterated, values) << c.range;
    // The stored words are v - base.
    column.visit([&](auto words) {
      EXPECT_EQ(sizeof(words[0]), c.width);
      for (std::size_t i = 0; i < words.size(); ++i) {
        EXPECT_EQ(static_cast<std::uint64_t>(words[i]),
                  static_cast<std::uint64_t>(values[i]) -
                      static_cast<std::uint64_t>(column.base()));
      }
    });
  }
}

TEST(CountColumn, EqualityComparesValues) {
  const std::vector<std::int64_t> values = {3, 0, 300, 7};
  EXPECT_EQ(CountColumn(values), (CountColumn{3, 0, 300, 7}));
  EXPECT_NE(CountColumn(values), (CountColumn{3, 0, 300, 8}));
  EXPECT_NE(CountColumn(values), (CountColumn{3, 0, 300}));
  // Same stored words, another base.
  EXPECT_NE((CountColumn{0, 1}), (CountColumn{1, 2}));
  const CountColumn copy = CountColumn(values);
  CountColumn assigned;
  assigned = copy;
  EXPECT_EQ(assigned, copy);
}

TEST(CountColumn, FromWordsTakesOnlyNarrowedWords) {
  const CountColumn column = CountColumn::from_words(
      -5, std::vector<std::uint16_t>{0, 256, 9});
  EXPECT_EQ(column, (CountColumn{-5, 251, 4}));
  EXPECT_EQ(CountColumn::from_words(0, std::vector<std::uint8_t>{}),
            CountColumn());
  // Smallest word not 0: the base is not the minimum.
  EXPECT_THROW(CountColumn::from_words(0, std::vector<std::uint8_t>{1, 2}),
               std::invalid_argument);
  // Values that fit a narrower word.
  EXPECT_THROW(CountColumn::from_words(0, std::vector<std::uint16_t>{0, 255}),
               std::invalid_argument);
  EXPECT_THROW(CountColumn::from_words(0, std::vector<std::uint64_t>{0, 1}),
               std::invalid_argument);
  // A largest value past INT64_MAX.
  EXPECT_THROW(
      CountColumn::from_words(kMax, std::vector<std::uint8_t>{0, 1}),
      std::invalid_argument);
  EXPECT_NO_THROW(
      CountColumn::from_words(kMax - 1, std::vector<std::uint8_t>{0, 1}));
  // An empty column is base 0, one byte wide.
  EXPECT_THROW(CountColumn::from_words(4, std::vector<std::uint8_t>{}),
               std::invalid_argument);
  EXPECT_THROW(CountColumn::from_words(0, std::vector<std::uint32_t>{}),
               std::invalid_argument);
}

// from_values over Word, against the int64 constructor: every width
// case that fits Word and INT64_MAX, from minimum 0 and from minimum 3.
template <class Word>
void expect_from_values_narrows_by_the_rule() {
  const std::uint64_t top = std::min<std::uint64_t>(
      std::numeric_limits<Word>::max(), static_cast<std::uint64_t>(kMax));
  for (const WidthCase& c : kWidthCases) {
    for (const std::uint64_t base : {std::uint64_t{0}, std::uint64_t{3}}) {
      if (c.range > top - base) continue;
      const std::vector<std::int64_t> values =
          spanning(static_cast<std::int64_t>(base), c.range);
      const CountColumn column =
          CountColumn::from_values(std::vector<Word>(values.begin(),
                                                     values.end()));
      const std::string context = std::to_string(sizeof(Word)) +
                                  "-byte words, range " +
                                  std::to_string(c.range) + " from " +
                                  std::to_string(base);
      EXPECT_EQ(column, CountColumn(values)) << context;
      EXPECT_EQ(column.byte_width(), c.width) << context;
      EXPECT_EQ(column.base(), static_cast<std::int64_t>(base)) << context;
    }
  }
  EXPECT_EQ(CountColumn::from_values(std::vector<Word>{}), CountColumn());
}

TEST(CountColumn, FromValuesNarrowsByTheRule) {
  expect_from_values_narrows_by_the_rule<std::uint8_t>();
  expect_from_values_narrows_by_the_rule<std::uint16_t>();
  expect_from_values_narrows_by_the_rule<std::uint32_t>();
  expect_from_values_narrows_by_the_rule<std::uint64_t>();
  const auto top = static_cast<std::uint64_t>(kMax);
  EXPECT_EQ(CountColumn::from_values(std::vector<std::uint64_t>{0, top}),
            (CountColumn{0, kMax}));
  EXPECT_THROW(
      CountColumn::from_values(std::vector<std::uint64_t>{0, top + 1}),
      std::invalid_argument);
}

// A vector of Word that holds `wide`, which needs every byte of Word,
// becomes the column without a copy: as is from minimum 0, and rebased
// in place from minimum 5.
template <class Word>
void expect_from_values_keeps_storage(Word wide) {
  for (const Word base : {Word{0}, Word{5}}) {
    std::vector<Word> values = {base, wide, static_cast<Word>(base + 7)};
    const CountColumn expected{static_cast<std::int64_t>(base),
                               static_cast<std::int64_t>(wide),
                               static_cast<std::int64_t>(base + 7)};
    const void* storage = values.data();
    const CountColumn column = CountColumn::from_values(std::move(values));
    const std::string context = std::to_string(sizeof(Word)) +
                                "-byte words from " + std::to_string(base);
    EXPECT_EQ(column, expected) << context;
    EXPECT_EQ(column.byte_width(), sizeof(Word)) << context;
    column.visit([&](auto words) {
      EXPECT_EQ(static_cast<const void*>(words.data()), storage) << context;
    });
  }
}

TEST(CountColumn, FromValuesKeepsTheStorageOfAFittingVector) {
  expect_from_values_keeps_storage<std::uint8_t>(200);
  expect_from_values_keeps_storage<std::uint16_t>(300);
  expect_from_values_keeps_storage<std::uint32_t>(70000);
  expect_from_values_keeps_storage<std::uint64_t>(std::uint64_t{1} << 33);
}

TEST(CountColumn, CodecRoundTripKeepsValuesAndWidth) {
  // One column per width case, plus sub-byte records (ranges 1 and 15).
  std::vector<CountColumn> columns;
  for (const WidthCase& c : kWidthCases) {
    columns.emplace_back(spanning(-3, c.range));
  }
  columns.push_back(CountColumn{0, 1, 1, 0, 1});
  columns.push_back(CountColumn{12, 27, 20});
  PipelineResult result;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    result.containers.push_back("c" + std::to_string(c));
    result.counts.reads.push_back(columns[c]);
    result.counts.writes.push_back(columns[columns.size() - 1 - c]);
    result.misses.element_misses.push_back(columns[(c + 1) % columns.size()]);
    ElementDistanceStats stats;
    stats.cold_count = columns[(c + 2) % columns.size()];
    result.element_stats.push_back(stats);
  }
  const std::shared_ptr<const PipelineResult> decoded =
      store::decode_pipeline_result(store::encode_pipeline_result(result));
  ASSERT_NE(decoded, nullptr);
  expect_results_equal(*decoded, result, "round trip");
  for (std::size_t c = 0; c < columns.size(); ++c) {
    EXPECT_EQ(decoded->counts.reads[c].byte_width(),
              result.counts.reads[c].byte_width())
        << c;
    EXPECT_EQ(decoded->counts.reads[c].base(), result.counts.reads[c].base());
    EXPECT_EQ(decoded->element_stats[c].cold_count.byte_width(),
              result.element_stats[c].cold_count.byte_width());
  }
  EXPECT_EQ(approx_size_bytes(*decoded), approx_size_bytes(result));
}

TEST(CountColumn, DiskPromotedArtifactIsChargedAsComputed) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "dmv_count_column_promote";
  std::filesystem::remove_all(dir);
  const std::uint8_t kind = session::metrics_artifact_kind();
  session::SharedArtifactCache::Config config;
  config.disk_dir = dir.string();
  config.codecs.emplace_back(kind, store::pipeline_result_codec());

  PipelineConfig subscribed;
  subscribed.miss_threshold_lines = 512;
  subscribed.element_stats = true;
  const std::vector<std::shared_ptr<const PipelineResult>> computed = {
      std::make_shared<const PipelineResult>(MetricPipeline().run(
          workloads::hdiff(workloads::HdiffVariant::Reordered),
          {{"I", 24}, {"J", 16}, {"K", 12}})),
      std::make_shared<const PipelineResult>(MetricPipeline(subscribed).run(
          workloads::matmul(), workloads::matmul_fig5())),
  };
  {
    session::SharedArtifactCache writer(config);
    for (std::size_t k = 0; k < computed.size(); ++k) {
      session::ArtifactKey key;
      key.kind = kind;
      key.binding = {{"k", static_cast<std::int64_t>(k)}};
      writer.insert(key, computed[k], approx_size_bytes(*computed[k]));
    }
  }
  session::SharedArtifactCache reader(config);
  for (std::size_t k = 0; k < computed.size(); ++k) {
    session::ArtifactKey key;
    key.kind = kind;
    key.binding = {{"k", static_cast<std::int64_t>(k)}};
    std::size_t charged = 0;
    const std::shared_ptr<const void> hit = reader.lookup(key, &charged);
    ASSERT_NE(hit, nullptr) << k;
    const auto& promoted = *static_cast<const PipelineResult*>(hit.get());
    expect_results_equal(promoted, *computed[k], "promoted");
    EXPECT_EQ(charged, approx_size_bytes(*computed[k])) << k;
    EXPECT_EQ(approx_size_bytes(promoted), approx_size_bytes(*computed[k]));
  }
  EXPECT_EQ(reader.stats().disk_hits, 2);
  std::filesystem::remove_all(dir);
}

TEST(CountColumn, CountsOnlyHdiffFitsOneBytePerValue) {
  // revisit-disk's largest bookmark: 1,025,280 count values, 8.2 MB as
  // int64 vectors, one byte each as columns.
  const PipelineResult result = MetricPipeline().run(
      workloads::hdiff(workloads::HdiffVariant::Reordered),
      {{"I", 64}, {"J", 64}, {"K", 40}});
  std::size_t values = 0;
  for (std::size_t c = 0; c < result.containers.size(); ++c) {
    EXPECT_EQ(result.counts.reads[c].byte_width(), 1u) << c;
    EXPECT_EQ(result.counts.writes[c].byte_width(), 1u) << c;
    values += result.counts.reads[c].size() + result.counts.writes[c].size();
  }
  EXPECT_EQ(values, 1025280u);
  EXPECT_LE(approx_size_bytes(result), 1100000u);
}

// --- Reused scratch never leaks into a held result ---------------------

struct Step {
  const ir::Sdfg* sdfg;
  std::uint64_t version;
  SymbolMap binding;
};

// Drives `steps` through one MetricPipeline's run_delta, keeping every
// result, then compares every held result with the oracle again.
void drive_chain(const PipelineConfig& config, const std::vector<Step>& steps,
                 const std::vector<PipelineResult>& expected,
                 DeltaOutcome::Path path, const std::string& name) {
  for (const int threads : {1, 8}) {
    par::ThreadScope scope(threads);
    MetricPipeline pipeline(config);
    std::vector<PipelineResult> held;
    int paths = 0;
    for (std::size_t s = 0; s < steps.size(); ++s) {
      DeltaOutcome outcome;
      held.push_back(pipeline.run_delta(*steps[s].sdfg, steps[s].version,
                                        steps[s].binding, {}, &outcome));
      paths += outcome.path == path ? 1 : 0;
      expect_results_equal(held.back(), expected[s],
                           name + " step " + std::to_string(s) + " threads " +
                               std::to_string(threads));
    }
    EXPECT_GT(paths, 0) << name << ": no step took the path under test";
    for (std::size_t s = 0; s < steps.size(); ++s) {
      expect_results_equal(held[s], expected[s],
                           name + " held step " + std::to_string(s) +
                               " threads " + std::to_string(threads));
    }
  }
}

std::vector<PipelineResult> oracle(const PipelineConfig& config,
                                   const std::vector<Step>& steps) {
  std::vector<PipelineResult> expected;
  for (const Step& step : steps) {
    expected.push_back(
        standalone_result(simulate(*step.sdfg, step.binding), config));
  }
  return expected;
}

TEST(CountColumn, ReusedScratchNeverLeaksIntoHeldResults) {
  // Counts-only: the closed-form counter answers every step, over
  // bindings that grow and shrink (revisit-disk's hdiff_reordered space)
  // and one BERT version.
  const ir::Sdfg hdiff = workloads::hdiff(workloads::HdiffVariant::Reordered);
  const ir::Sdfg bert = workloads::bert_encoder(workloads::BertStage::Baseline);
  const std::vector<Step> counts_steps = {
      {&hdiff, 1, {{"I", 16}, {"J", 16}, {"K", 8}}},
      {&hdiff, 1, {{"I", 40}, {"J", 56}, {"K", 20}}},
      {&hdiff, 1, {{"I", 24}, {"J", 16}, {"K", 12}}},
      {&bert, 2, workloads::bert_small()},
      {&hdiff, 1, {{"I", 56}, {"J", 48}, {"K", 28}}},
      {&hdiff, 1, {{"I", 16}, {"J", 24}, {"K", 8}}},
  };
  const PipelineConfig counts_only;
  drive_chain(counts_only, counts_steps, oracle(counts_only, counts_steps),
              DeltaOutcome::Path::kClosedForm, "counts-only");

  // Subscribed drag: chunk-delta steps snapshot the engine's carried
  // int64 tallies, which later steps keep advancing.
  const ir::Sdfg drag = workloads::fixed_capacity(
      workloads::hdiff(workloads::HdiffVariant::Reordered), {{"K", "KMAX"}});
  std::vector<Step> drag_steps;
  for (const std::int64_t k : {5, 6, 7, 8, 7, 6, 5, 4}) {
    drag_steps.push_back(
        {&drag, 3, {{"I", 20}, {"J", 24}, {"K", k}, {"KMAX", 8}}});
  }
  PipelineConfig subscribed;
  subscribed.miss_threshold_lines = 512;
  subscribed.element_stats = true;
  drive_chain(subscribed, drag_steps, oracle(subscribed, drag_steps),
              DeltaOutcome::Path::kChunkDelta, "drag");
}

}  // namespace
}  // namespace dmv::sim
