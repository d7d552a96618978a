#include "dmv/session/session.hpp"

#include <algorithm>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dmv/analysis/analysis.hpp"
#include "dmv/ir/serialize.hpp"
#include "dmv/util/fnv1a.hpp"
#include "dmv/viz/render.hpp"

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
/// heterogeneous payloads without type confusion.
enum class Kind : std::uint8_t {
  kMetrics,
  kMovementVolume,
  kMovementValue,
  kStateVolumes,
  kLayout,
  kGraphSvg,
  kClosedForm,       ///< Closed-form metric EXPRESSIONS (program-keyed).
  kClosedFormValue,  ///< Those expressions evaluated at a binding.
};

// Step-classification ranks, ordered by cost; a step's class is the max
// rank of the work it needed (SessionStats doc block).
constexpr int kStepFullHit = 0;
constexpr int kStepSymbolic = 1;
constexpr int kStepChunkDelta = 2;
constexpr int kStepCold = 3;

/// The session's cache key is the public ArtifactKey
/// (artifact_cache.hpp) so the same key addresses both the local LRU
/// and the process-global shared tier. The binding component is
/// RESTRICTED to the artifact's reachable symbols before key
/// construction — that restriction is the whole invalidation story
/// (see session.hpp).
using Key = ArtifactKey;
using KeyHash = ArtifactKeyHash;

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

/// Binding-independent edge-volume expressions of one state, plus the
/// program symbols they reach — the dependency set of the heat overlay.
struct StateVolumes {
  std::vector<std::pair<std::size_t, Expr>> bytes_per_edge;
  std::set<std::string> symbols;
};

}  // namespace

struct Session::Impl {
  SessionConfig config;
  std::uint64_t config_hash = 0;

  ir::Sdfg program;
  std::uint64_t program_hash = 0;
  std::set<std::string> metric_symbols;

  SymbolMap binding;
  MetricPipeline pipeline;

  // --- LRU cache -----------------------------------------------------
  struct Entry {
    Key key;
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };
  std::list<Entry> lru;  ///< Front = most recently used.
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
  std::size_t cache_bytes = 0;
  SessionStats stats;
  /// Max rank of the work the current step needed; -1 = no artifact
  /// requested since the last binding change (nothing to classify).
  int step_rank = -1;

  void note_step(int rank) { step_rank = std::max(step_rank, rank); }

  void finalize_step() {
    switch (step_rank) {
      case kStepFullHit: ++stats.steps_full_hit; break;
      case kStepSymbolic: ++stats.steps_symbolic; break;
      case kStepChunkDelta: ++stats.steps_chunk_delta; break;
      case kStepCold: ++stats.steps_cold; break;
      default: break;  // -1: idle step, not counted.
    }
    step_rank = -1;
  }

  explicit Impl(ir::Sdfg sdfg, SessionConfig session_config)
      : config(std::move(session_config)),
        program(std::move(sdfg)),
        pipeline(config.pipeline) {
    config_hash = util::fnv1a(sim::fingerprint(config.pipeline),
                              sim::fingerprint(config.simulation));
    rehash_program();
  }

  void rehash_program() {
    program_hash = ir::structural_hash(program);
    metric_symbols = analysis::simulation_symbols(program);
  }

  // Two-tier lookup with LRU touch and full stats accounting: local
  // LRU first, then the optional process-global tier (a shared hit is
  // promoted into the local LRU so repeats stay lock-free). Returns
  // nullptr on miss in both tiers.
  std::shared_ptr<const void> lookup(const Key& key) {
    auto it = index.find(key);
    if (it != index.end()) {
      ++stats.hits;
      lru.splice(lru.begin(), lru, it->second);
      return it->second->value;
    }
    if (config.shared_cache) {
      std::size_t bytes = 0;
      if (std::shared_ptr<const void> value =
              config.shared_cache->lookup(key, &bytes)) {
        ++stats.hits;
        ++stats.shared_hits;
        insert_local(key, value, bytes);
        return value;
      }
    }
    ++stats.misses;
    return nullptr;
  }

  /// Local-tier insert only — used directly when promoting a shared hit
  /// (publishing it back would be a no-op churn).
  void insert_local(Key key, std::shared_ptr<const void> value,
                    std::size_t bytes) {
    auto it = index.find(key);
    if (it != index.end()) return;  // One entry per key, charged once.
    lru.push_front(Entry{std::move(key), std::move(value), bytes});
    index.emplace(lru.front().key, lru.begin());
    cache_bytes += bytes;
    // Byte-budgeted eviction; the freshly inserted entry is exempt so a
    // single oversized artifact still caches (and recomputing it would
    // be deterministic anyway — eviction never changes results).
    while (cache_bytes > config.cache_budget_bytes && lru.size() > 1) {
      const Entry& victim = lru.back();
      cache_bytes -= victim.bytes;
      index.erase(victim.key);
      lru.pop_back();
      ++stats.evictions;
    }
  }

  /// Computed-artifact insert: local tier plus (when configured) the
  /// process-global tier, so other sessions can skip the computation.
  void insert(Key key, std::shared_ptr<const void> value, std::size_t bytes) {
    if (config.shared_cache) {
      config.shared_cache->insert(key, value, bytes);
    }
    insert_local(std::move(key), std::move(value), bytes);
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

  Key program_key(Kind kind, int aux = -1) const {
    Key key;
    key.kind = raw(kind);
    key.aux = aux;
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

  std::shared_ptr<const analysis::ClosedFormMetrics> closed_form_exprs() {
    return get<analysis::ClosedFormMetrics>(
        program_key(Kind::kClosedForm),
        [&] {
          note_step(kStepSymbolic);
          return analysis::closed_form_metrics(program);
        },
        +[](const analysis::ClosedFormMetrics& metrics) {
          std::size_t bytes = sizeof(analysis::ClosedFormMetrics);
          bytes += expr_bytes(metrics.total_events) +
                   expr_bytes(metrics.total_executions) +
                   expr_bytes(metrics.flops) +
                   expr_bytes(metrics.movement_bytes) +
                   expr_bytes(metrics.footprint_bytes);
          for (const Expr& e : metrics.reads_per_container) {
            bytes += expr_bytes(e);
          }
          for (const Expr& e : metrics.writes_per_container) {
            bytes += expr_bytes(e);
          }
          for (const std::string& name : metrics.containers) {
            bytes += name.size() + 32;
          }
          for (const std::string& name : metrics.symbols) {
            bytes += name.size() + 32;
          }
          return bytes;
        });
  }

  std::shared_ptr<const analysis::ClosedFormValues> closed_form() {
    note_step(kStepFullHit);
    const std::shared_ptr<const analysis::ClosedFormMetrics> exprs =
        closed_form_exprs();
    Key key = program_key(Kind::kClosedFormValue);
    key.binding = restrict_binding(binding, exprs->symbols);
    return get<analysis::ClosedFormValues>(
        key,
        [&] {
          note_step(kStepSymbolic);
          return analysis::evaluate_closed_form(*exprs, binding);
        },
        +[](const analysis::ClosedFormValues& values) {
          std::size_t bytes = sizeof(analysis::ClosedFormValues);
          bytes += (values.reads.size() + values.writes.size()) *
                   sizeof(std::int64_t);
          for (const std::string& name : values.containers) {
            bytes += name.size() + 32;
          }
          return bytes;
        });
  }

  std::shared_ptr<const StateVolumes> state_volumes(int state_index) {
    return get<StateVolumes>(
        program_key(Kind::kStateVolumes, state_index),
        [&] {
          note_step(kStepSymbolic);
          const ir::State& state = program.states().at(
              static_cast<std::size_t>(state_index));
          StateVolumes volumes;
          std::set<std::string> reached;
          for (std::size_t e = 0; e < state.edges().size(); ++e) {
            const ir::Edge& edge = state.edges()[e];
            if (edge.memlet.is_empty()) continue;
            Expr bytes = analysis::total_edge_bytes(program, state, edge);
            bytes.collect_free_symbols(reached);
            volumes.bytes_per_edge.emplace_back(e, std::move(bytes));
          }
          for (const std::string& symbol : program.symbols()) {
            if (reached.contains(symbol)) volumes.symbols.insert(symbol);
          }
          return volumes;
        },
        +[](const StateVolumes& volumes) {
          std::size_t bytes = sizeof(StateVolumes);
          for (const auto& [edge, expr] : volumes.bytes_per_edge) {
            bytes += sizeof(edge) + expr_bytes(expr);
          }
          for (const std::string& symbol : volumes.symbols) {
            bytes += symbol.size() + 32;
          }
          return bytes;
        });
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

  std::shared_ptr<const viz::StateLayout> layout(int state_index) {
    note_step(kStepFullHit);
    return get<viz::StateLayout>(
        program_key(Kind::kLayout, state_index),
        [&] {
          note_step(kStepSymbolic);
          return viz::layout_state(
              program.states().at(static_cast<std::size_t>(state_index)),
              config.layout);
        },
        +[](const viz::StateLayout& layout) {
          return sizeof(viz::StateLayout) +
                 layout.nodes.size() * sizeof(viz::NodeBox) +
                 layout.edges.size() * sizeof(viz::EdgePath);
        });
  }

  std::shared_ptr<const std::string> graph_svg(int state_index) {
    note_step(kStepFullHit);
    const std::shared_ptr<const StateVolumes> volumes =
        state_volumes(state_index);
    Key key = program_key(Kind::kGraphSvg, state_index);
    key.binding = restrict_binding(binding, volumes->symbols);
    return get<std::string>(
        key,
        [&] {
          note_step(kStepSymbolic);
          const ir::State& state = program.states().at(
              static_cast<std::size_t>(state_index));
          std::vector<double> values;
          values.reserve(volumes->bytes_per_edge.size());
          for (const auto& [edge, expr] : volumes->bytes_per_edge) {
            values.push_back(
                static_cast<double>(expr.evaluate(binding)));
          }
          const viz::HeatmapScale scale =
              viz::HeatmapScale::fit(values, config.scaling);
          viz::GraphRenderOptions options;
          options.scheme = config.scheme;
          options.layout = config.layout;
          for (std::size_t v = 0; v < values.size(); ++v) {
            options.edge_heat[volumes->bytes_per_edge[v].first] =
                scale.normalize(values[v]);
          }
          // The Sugiyama layout is the expensive half of a render; it
          // is binding-independent and comes from its own cache slot.
          return viz::render_state_svg(state, *layout(state_index),
                                       options);
        },
        +[](const std::string& svg) { return svg.size() + 32; });
  }
};

Session::Session(ir::Sdfg program, SessionConfig config)
    : impl_(std::make_unique<Impl>(std::move(program), std::move(config))) {}
Session::~Session() = default;
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;

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

std::shared_ptr<const analysis::ClosedFormValues> Session::closed_form() {
  return impl_->closed_form();
}

std::shared_ptr<const symbolic::Expr> Session::movement_volume() {
  return impl_->movement_volume();
}

std::int64_t Session::movement_bytes() { return impl_->movement_bytes(); }

std::shared_ptr<const viz::StateLayout> Session::layout(int state_index) {
  return impl_->layout(state_index);
}

std::shared_ptr<const std::string> Session::graph_svg(int state_index) {
  return impl_->graph_svg(state_index);
}

const std::set<std::string>& Session::metric_symbols() const {
  return impl_->metric_symbols;
}

ArtifactKey Session::metrics_cache_key() const {
  return impl_->metrics_key();
}

SessionStats Session::stats() const {
  impl_->finalize_step();  // Classify the in-progress step (header doc).
  SessionStats stats = impl_->stats;
  stats.cache_bytes = impl_->cache_bytes;
  stats.cache_entries = impl_->lru.size();
  return stats;
}

void Session::reset_stats() {
  impl_->stats = SessionStats{};
  impl_->step_rank = -1;
}

std::uint8_t metrics_artifact_kind() { return raw(Kind::kMetrics); }

}  // namespace dmv::session
