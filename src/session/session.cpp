#include "dmv/session/session.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "dmv/analysis/analysis.hpp"
#include "dmv/ir/serialize.hpp"
#include "dmv/util/fnv1a.hpp"

namespace dmv::session {

namespace {

using sim::MetricPipeline;
using sim::PipelineResult;
using symbolic::Expr;
using symbolic::SymbolMap;

/// Rough heap footprint of an expression: one node's worth per DISTINCT
/// interned node reachable from it. Hash-consing makes subtree sharing
/// pervasive, so the DAG footprint (not the tree size, which can be
/// exponentially larger) is the honest budget number — and the nodes are
/// shared with the interner anyway, so this intentionally over-charges
/// the cache for them.
std::size_t expr_bytes(const Expr& e) {
  return e.dag_size() * sizeof(symbolic::ExprNode);
}

/// Artifact discriminator; part of every cache key, so one LRU holds
/// heterogeneous payloads without type confusion. kMetrics stays 0: the
/// disk tier's file names hash the key, kind included.
enum class Kind : std::uint8_t {
  kMetrics = 0,
  kMovementVolume,
  kMovementValue,
};

// Step-classification ranks, ordered by cost; a step's class is the max
// rank of the work it needed (SessionStats doc block).
constexpr int kStepFullHit = 0;
constexpr int kStepSymbolic = 1;
constexpr int kStepChunkDelta = 2;
constexpr int kStepCold = 3;

/// The session's cache key is the public ArtifactKey
/// (artifact_cache.hpp) so the same key addresses both the private tier
/// and the process-global shared tier. The binding component is
/// RESTRICTED to the artifact's reachable symbols before key
/// construction — that restriction is the whole invalidation story
/// (see session.hpp).
using Key = ArtifactKey;

constexpr std::uint8_t raw(Kind kind) {
  return static_cast<std::uint8_t>(kind);
}

std::vector<std::pair<std::string, std::int64_t>> restrict_binding(
    const SymbolMap& binding, const std::set<std::string>& reachable) {
  std::vector<std::pair<std::string, std::int64_t>> restricted;
  restricted.reserve(reachable.size());
  for (const auto& [symbol, value] : binding) {  // std::map: sorted order.
    if (reachable.contains(symbol)) restricted.emplace_back(symbol, value);
  }
  return restricted;
}

/// The private tier: a RAM-only SharedArtifactCache under the session's
/// byte budget.
SharedArtifactCache::Config local_tier(std::size_t budget_bytes) {
  SharedArtifactCache::Config config;
  config.budget_bytes = budget_bytes;
  return config;
}

}  // namespace

struct Session::Impl {
  SessionConfig config;
  std::uint64_t config_hash = 0;

  ir::Sdfg program;
  std::uint64_t program_hash = 0;
  std::set<std::string> metric_symbols;

  SymbolMap binding;
  MetricPipeline pipeline;

  /// Private tier, looked up before config.shared_cache. Its stats()
  /// supply cache_bytes, cache_entries and evictions.
  SharedArtifactCache local;
  /// local.stats().evictions at the last reset_stats().
  std::int64_t evictions_at_reset = 0;
  SessionStats stats;
  /// Max rank of the work the current step needed; -1 = no artifact
  /// requested since the last binding change (nothing to classify).
  int step_rank = -1;

  void note_step(int rank) { step_rank = std::max(step_rank, rank); }

  static void count_step(SessionStats& counters, int rank) {
    switch (rank) {
      case kStepFullHit: ++counters.steps_full_hit; break;
      case kStepSymbolic: ++counters.steps_symbolic; break;
      case kStepChunkDelta: ++counters.steps_chunk_delta; break;
      case kStepCold: ++counters.steps_cold; break;
      default: break;  // -1: idle step, not counted.
    }
  }

  void finalize_step() {
    count_step(stats, step_rank);
    step_rank = -1;
  }

  explicit Impl(ir::Sdfg sdfg, SessionConfig session_config)
      : config(std::move(session_config)),
        program(std::move(sdfg)),
        pipeline(config.pipeline),
        local(local_tier(config.cache_budget_bytes)) {
    config_hash = util::fnv1a(sim::fingerprint(config.pipeline),
                              sim::fingerprint(config.simulation));
    rehash_program();
  }

  void rehash_program() {
    program_hash = ir::structural_hash(program);
    metric_symbols = analysis::simulation_symbols(program);
  }

  // Two-tier lookup: the private tier first, then the optional
  // process-global tier (a shared hit is promoted into the private tier
  // so repeats skip the shared lock). Returns nullptr on miss in both.
  std::shared_ptr<const void> lookup(const Key& key) {
    if (std::shared_ptr<const void> value = local.lookup(key)) {
      ++stats.hits;
      return value;
    }
    if (config.shared_cache) {
      std::size_t bytes = 0;
      if (std::shared_ptr<const void> value =
              config.shared_cache->lookup(key, &bytes)) {
        ++stats.hits;
        ++stats.shared_hits;
        local.insert(key, value, bytes);
        return value;
      }
    }
    ++stats.misses;
    return nullptr;
  }

  /// Computed-artifact insert: both tiers, so other sessions can skip
  /// the computation.
  void insert(const Key& key, std::shared_ptr<const void> value,
              std::size_t bytes) {
    if (config.shared_cache) config.shared_cache->insert(key, value, bytes);
    local.insert(key, std::move(value), bytes);
  }

  /// Fetch-or-compute helper: all artifact getters funnel through here.
  template <typename T, typename Compute>
  std::shared_ptr<const T> get(const Key& key, Compute&& compute,
                               std::size_t (*size_of)(const T&)) {
    if (std::shared_ptr<const void> cached = lookup(key)) {
      return std::static_pointer_cast<const T>(cached);
    }
    std::shared_ptr<const T> value =
        std::make_shared<const T>(compute());
    insert(key, value, size_of(*value));
    return value;
  }

  // --- Keys ----------------------------------------------------------

  Key metrics_key() const {
    Key key;
    key.kind = raw(Kind::kMetrics);
    key.program_hash = program_hash;
    key.config_hash = config_hash;
    key.binding = restrict_binding(binding, metric_symbols);
    return key;
  }

  Key program_key(Kind kind) const {
    Key key;
    key.kind = raw(kind);
    key.program_hash = program_hash;
    return key;
  }

  // --- Artifacts -----------------------------------------------------

  std::shared_ptr<const PipelineResult> metrics() {
    note_step(kStepFullHit);
    const Key key = metrics_key();
    if (std::shared_ptr<const void> cached = lookup(key)) {
      return std::static_pointer_cast<const PipelineResult>(cached);
    }
    sim::DeltaOutcome outcome;
    auto result = std::make_shared<const PipelineResult>(pipeline.run_delta(
        program, program_hash, binding, config.simulation, &outcome));
    switch (outcome.path) {
      case sim::DeltaOutcome::Path::kCold:
        note_step(kStepCold);
        break;
      case sim::DeltaOutcome::Path::kClosedForm:
        note_step(kStepSymbolic);  // Counted without simulating.
        break;
      default:
        note_step(kStepChunkDelta);
        break;
    }
    const sim::PhaseTimings& timings = pipeline.last_timings();
    stats.simulate_ms += timings.simulate_ms;
    stats.metrics_ms += timings.metrics_ms;
    stats.metric_partitions = timings.partitions;
    insert(key, result, sim::approx_size_bytes(*result));
    return result;
  }

  std::shared_ptr<const Expr> movement_volume() {
    note_step(kStepFullHit);
    return get<Expr>(
        program_key(Kind::kMovementVolume),
        [&] {
          note_step(kStepSymbolic);
          return analysis::total_movement_bytes(program);
        },
        &expr_bytes);
  }

  std::int64_t movement_bytes() {
    note_step(kStepFullHit);
    const std::shared_ptr<const Expr> volume = movement_volume();
    std::set<std::string> reached;
    volume->collect_free_symbols(reached);
    Key key = program_key(Kind::kMovementValue);
    key.binding = restrict_binding(binding, reached);
    return *get<std::int64_t>(
        key,
        [&] {
          note_step(kStepSymbolic);
          return volume->evaluate(binding);
        },
        +[](const std::int64_t&) { return sizeof(std::int64_t); });
  }
};

Session::Session(ir::Sdfg program, SessionConfig config)
    : impl_(std::make_unique<Impl>(std::move(program), std::move(config))) {}
Session::~Session() = default;

const SessionConfig& Session::config() const { return impl_->config; }
const ir::Sdfg& Session::program() const { return impl_->program; }

void Session::set_program(ir::Sdfg program) {
  impl_->program = std::move(program);
  impl_->rehash_program();
}

void Session::edit_program(const std::function<void(ir::Sdfg&)>& edit) {
  edit(impl_->program);
  impl_->rehash_program();
}

const symbolic::SymbolMap& Session::binding() const { return impl_->binding; }

void Session::set_binding(symbolic::SymbolMap binding) {
  impl_->finalize_step();
  impl_->binding = std::move(binding);
}

void Session::set_symbol(const std::string& symbol, std::int64_t value) {
  impl_->finalize_step();
  impl_->binding[symbol] = value;
}

std::shared_ptr<const sim::PipelineResult> Session::metrics() {
  return impl_->metrics();
}

std::int64_t Session::movement_bytes() { return impl_->movement_bytes(); }

const std::set<std::string>& Session::metric_symbols() const {
  return impl_->metric_symbols;
}

ArtifactKey Session::metrics_cache_key() const {
  return impl_->metrics_key();
}

SessionStats Session::stats() const {
  SessionStats stats = impl_->stats;
  // Counted, not closed: the step goes on until the next binding change.
  Impl::count_step(stats, impl_->step_rank);
  const SharedCacheStats local = impl_->local.stats();
  stats.evictions = local.evictions - impl_->evictions_at_reset;
  stats.cache_bytes = local.bytes;
  stats.cache_entries = local.entries;
  return stats;
}

void Session::reset_stats() {
  impl_->stats = SessionStats{};
  impl_->step_rank = -1;
  impl_->evictions_at_reset = impl_->local.stats().evictions;
}

std::uint8_t metrics_artifact_kind() { return raw(Kind::kMetrics); }

}  // namespace dmv::session
