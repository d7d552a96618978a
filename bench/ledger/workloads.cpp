// Seeded request sequences of the four ledger workloads. Each workload's
// reason for existing is in README.md. The comments here explain the shape
// of each design: a run is a sequence of units of about equal cost (a
// pass, a third of a factorial, an exercise, a block), sized to the run's
// seconds and cut into consecutive parts, one per child process. The seed
// picks and orders inputs from balanced sets, so the work a run measures
// costs about the same whatever the seed.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dmv/ir/json_reader.hpp"
#include "dmv/ir/serialize.hpp"
#include "dmv/serve/server.hpp"
#include "dmv/workloads/workloads.hpp"
#include "ledger.hpp"

namespace ledger {

namespace {

using dmv::json::Value;

std::uint64_t salted(std::uint64_t seed, const std::string& name) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return seed * 0x9e3779b97f4a7c15ull ^ hash;
}

/// Sorts `items` by `cost`, cuts them into `strata` groups of equal count
/// and moves one seeded member of each group out: a seeded sample whose
/// cost mix hardly depends on the seed.
template <typename T, typename Cost>
std::vector<T> take_stratified(std::vector<T>& items, Cost cost,
                               std::size_t strata, Rng& rng) {
  std::stable_sort(items.begin(), items.end(), [&](const T& a, const T& b) {
    return cost(a) < cost(b);
  });
  std::vector<std::size_t> picked;
  for (std::size_t g = 0; g < strata; ++g) {
    const std::size_t begin = g * items.size() / strata;
    const std::size_t end = (g + 1) * items.size() / strata;
    picked.push_back(begin + static_cast<std::size_t>(rng.below(
                                 static_cast<std::int64_t>(end - begin))));
  }
  std::vector<T> sample;
  for (auto it = picked.rbegin(); it != picked.rend(); ++it) {
    sample.push_back(std::move(items[*it]));
    items.erase(items.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  return sample;
}

Op edit(const std::string& program) {
  Op op;
  op.kind = Op::Kind::kEdit;
  op.program = program;
  return op;
}

Op bind(SymbolMap binding) {
  Op op;
  op.kind = Op::Kind::kBind;
  op.binding = std::move(binding);
  return op;
}

Op step_symbol(const std::string& symbol, std::int64_t value) {
  Op op;
  op.kind = Op::Kind::kStepSymbol;
  op.symbol = symbol;
  op.value = value;
  return op;
}

Op step_binding(SymbolMap binding) {
  Op op;
  op.kind = Op::Kind::kStepBinding;
  op.binding = std::move(binding);
  return op;
}

Value binding_json(const SymbolMap& binding) {
  Value object = Value::make_object();
  for (const auto& [symbol, value] : binding) object[symbol] = Value::of(value);
  return object;
}

std::string request(const char* method, Value params) {
  Value line = Value::make_object();
  line["id"] = Value::of(1);
  line["method"] = Value::of(method);
  line["params"] = std::move(params);
  return dmv::json::dump(line);
}

/// Units in a run of `seconds`: one per `unit_seconds`, at least one per
/// part.
std::size_t unit_count(double seconds, double unit_seconds, int parts) {
  return std::max(static_cast<std::size_t>(parts),
                  static_cast<std::size_t>(std::round(seconds / unit_seconds)));
}

/// The interactions of part `part`: its near-equal consecutive share of
/// the run's units.
std::vector<Interaction> share(
    const std::vector<std::vector<Interaction>>& units, int part, int parts) {
  const auto count = static_cast<std::ptrdiff_t>(units.size());
  std::vector<Interaction> interactions;
  for (auto u = count * part / parts; u < count * (part + 1) / parts; ++u) {
    const auto& unit = units[static_cast<std::size_t>(u)];
    interactions.insert(interactions.end(), unit.begin(), unit.end());
  }
  return interactions;
}

Script script(const std::string& session,
              std::vector<Interaction> interactions) {
  for (Interaction& interaction : interactions) {
    for (const Op& op : interaction.ops) {
      interaction.lines.push_back(op_line(op, session));
    }
  }
  return Script{session, std::move(interactions)};
}

// --- drag-hdiff -------------------------------------------------------
// fixed_capacity(hdiff(Reordered)) with KMAX fixed: a K drag keeps the
// layout, so steps go through chunk-delta recompute and prefetch. One pass
// binds a seeded (I, J), drags K from 5 up to KMAX = 40 and back to 30; a
// pass takes about 2 s. The four (I, J) pairs have nearly equal I*J
// (within 7 %), and each cycle of four passes visits every pair once in
// seeded order. At the default 24 s a run is three cycles, one per part.
Workload drag_hdiff(std::uint64_t seed, double seconds, int part, int parts,
                    bool smoke) {
  Workload w;
  w.name = "drag-hdiff";
  w.program_name = "hdiff_reordered_kmax";
  w.inline_program = true;
  w.program = dmv::ir::from_json(
      dmv::ir::to_json(dmv::workloads::fixed_capacity(
          dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Reordered),
          {{"K", "KMAX"}})));
  w.subscription.miss_threshold_lines = 512;
  w.subscription.element_stats = true;

  constexpr double kPassSeconds = 2.0;
  const std::int64_t kmax = smoke ? 10 : 40;
  const std::int64_t k_low = smoke ? 3 : 5;
  const std::int64_t k_back = smoke ? 8 : 30;
  using Pair = std::pair<std::int64_t, std::int64_t>;
  const std::vector<Pair> pairs =
      smoke ? std::vector<Pair>{{8, 12}, {12, 8}}
            : std::vector<Pair>{{40, 72}, {72, 40}, {48, 64}, {64, 48}};
  const std::size_t passes = unit_count(seconds, kPassSeconds, parts);

  Rng rng(salted(seed, w.name));
  std::vector<Pair> order;
  while (order.size() < passes) {
    std::vector<Pair> cycle = pairs;
    rng.shuffle(cycle);
    order.insert(order.end(), cycle.begin(), cycle.end());
  }
  order.resize(passes);

  std::vector<std::int64_t> ks;
  for (std::int64_t k = k_low; k <= kmax; ++k) ks.push_back(k);
  for (std::int64_t k = kmax - 1; k >= k_back; --k) ks.push_back(k);
  std::vector<std::vector<Interaction>> units;
  for (const auto& [i, j] : order) {
    std::vector<Interaction> pass;
    for (std::size_t s = 0; s < ks.size(); ++s) {
      Interaction interaction;
      if (s == 0) {
        interaction.ops.push_back(
            bind({{"I", i}, {"J", j}, {"K", ks[0]}, {"KMAX", kmax}}));
      }
      interaction.ops.push_back(step_symbol("K", ks[s]));
      pass.push_back(std::move(interaction));
    }
    units.push_back(std::move(pass));
  }
  std::vector<Interaction> interactions = share(units, part, parts);
  w.initial_binding = interactions.front().ops.front().binding;
  w.clients.push_back(script("c0", std::move(interactions)));
  const std::int64_t warm = smoke ? 6 : 32;
  w.warmup = {bind({{"I", warm}, {"J", warm}, {"K", k_low}, {"KMAX", kmax}}),
              step_symbol("K", k_low), step_symbol("K", k_low + 1)};
  for (const auto& [i, j] : pairs) {
    for (std::int64_t k = k_low; k <= kmax; ++k) {
      w.space.push_back(
          {w.program_name, {{"I", i}, {"J", j}, {"K", k}, {"KMAX", kmax}}});
    }
  }
  return w;
}

// --- explore-bert -----------------------------------------------------
// Binding jumps across three program versions: every interaction is an
// edit_program plus a step with a binding, so prefetch and delta never
// apply. The bindings are the full factorial of B, H, P, emb and SM (96).
// One version of one binding costs from 6 to 160 ms, so a unit takes one
// seeded binding from each of 32 strata of an event-count estimate (the
// projections, the attention and the feed-forward layers): every unit
// costs about the same (2.6-3.4 s on the calibration host, as its speed
// drifts), and each three units in a row cover the factorial once.
Workload explore_bert(std::uint64_t seed, double seconds, int part, int parts,
                      bool smoke) {
  Workload w;
  w.name = "explore-bert";
  w.program_name = "bert";
  w.program = dmv::serve::workload_by_name("bert");

  constexpr double kUnitSeconds = 3.4;
  const std::vector<std::int64_t> bs = {1, 2};
  const std::vector<std::int64_t> hs = {2, 4};
  const std::vector<std::int64_t> ps =
      smoke ? std::vector<std::int64_t>{4} : std::vector<std::int64_t>{8, 16};
  const std::vector<std::int64_t> embs =
      smoke ? std::vector<std::int64_t>{16} : std::vector<std::int64_t>{32, 64};
  const std::vector<std::int64_t> sms =
      smoke ? std::vector<std::int64_t>{4, 8}
            : std::vector<std::int64_t>{8, 12, 16, 20, 24, 28};
  std::vector<SymbolMap> bindings;
  for (const std::int64_t b : bs) {
    for (const std::int64_t h : hs) {
      for (const std::int64_t p : ps) {
        for (const std::int64_t emb : embs) {
          for (const std::int64_t sm : sms) {
            bindings.push_back({{"B", b}, {"H", h}, {"P", p}, {"I", h * p},
                                {"SM", sm}, {"emb", emb}});
          }
        }
      }
    }
  }
  const auto cost = [](const SymbolMap& s) {
    const std::int64_t i = s.at("I");
    return s.at("B") * s.at("SM") *
           (i * i + s.at("H") * s.at("SM") * s.at("P") + i * s.at("emb"));
  };
  const std::vector<std::string> versions = {"bert", "bert_fused1",
                                             "bert_fused2"};
  const std::size_t count = unit_count(seconds, kUnitSeconds, parts);

  Rng rng(salted(seed, w.name));
  std::vector<SymbolMap> pool;
  std::vector<std::vector<Interaction>> units;
  for (std::size_t u = 0; u < count; ++u) {
    if (pool.empty()) pool = bindings;
    std::vector<SymbolMap> picked =
        take_stratified(pool, cost, bindings.size() / 3, rng);
    rng.shuffle(picked);
    std::vector<Interaction> unit;
    for (const SymbolMap& binding : picked) {
      for (const std::string& version : versions) {
        Interaction interaction;
        interaction.ops = {edit(version), step_binding(binding)};
        unit.push_back(std::move(interaction));
      }
    }
    units.push_back(std::move(unit));
  }
  std::vector<Interaction> interactions = share(units, part, parts);
  w.initial_binding = interactions.front().ops.back().binding;
  w.clients.push_back(script("c0", std::move(interactions)));
  const SymbolMap warm = {{"B", 1}, {"H", 2}, {"P", 4},
                          {"I", 8}, {"SM", 4}, {"emb", 16}};
  for (const std::string& version : versions) {
    w.warmup.push_back(edit(version));
    w.warmup.push_back(step_binding(warm));
  }
  for (const SymbolMap& binding : bindings) {
    for (const std::string& version : versions) {
      w.space.push_back({version, binding});
    }
  }
  return w;
}

// --- classroom-hdiff --------------------------------------------------
// Four students follow a teacher's K drag on hdiff at 20 steps/s each,
// open loop. An exercise (the unit, 1.5 s) sets I=J with a
// step-with-binding, then the teacher drags K up a leg, back down and up
// again (or the mirror image), so every exercise visits the same number
// of new K values. Each size drags in a K range of about equal work
// (I*J*K), offset by a seeded jitter; each cycle of four exercises visits
// every size once, in seeded order.
Workload classroom_hdiff(std::uint64_t seed, double seconds, int part,
                         int parts, bool smoke) {
  Workload w;
  w.name = "classroom-hdiff";
  w.open_loop = true;
  w.program_name = "hdiff";
  w.program = dmv::serve::workload_by_name("hdiff");
  constexpr double kPeriodMs = 50.0;  // 20 steps/s per client.
  constexpr int kClients = 4;
  constexpr double kStaggerMs = 3.0;
  constexpr std::int64_t kJitter = 3;
  const std::int64_t leg = smoke ? 3 : 10;
  const std::int64_t exercise_ticks = 3 * leg;
  // Size -> lowest K of its leg.
  using Exercise = std::pair<std::int64_t, std::int64_t>;
  const std::vector<Exercise> exercises_k =
      smoke ? std::vector<Exercise>{{8, 6}, {12, 4}}
            : std::vector<Exercise>{{24, 35}, {32, 17}, {40, 9}, {48, 5}};
  const std::size_t exercises = unit_count(
      seconds, static_cast<double>(exercise_ticks) * kPeriodMs / 1000.0,
      parts);

  Rng rng(salted(seed, w.name));
  std::vector<Exercise> pending;
  std::vector<std::vector<Interaction>> units;
  for (std::size_t e = 0; e < exercises; ++e) {
    if (pending.empty()) {
      pending = exercises_k;
      rng.shuffle(pending);
    }
    const auto [size, k_low] = pending.back();
    pending.pop_back();
    const std::int64_t direction = rng.below(2) == 0 ? 1 : -1;
    std::int64_t k = k_low + rng.below(kJitter) + (direction > 0 ? 0 : leg);
    std::vector<Interaction> unit(static_cast<std::size_t>(exercise_ticks));
    unit[0].ops.push_back(step_binding({{"I", size}, {"J", size}, {"K", k}}));
    for (std::int64_t t = 1; t < exercise_ticks; ++t) {
      k += (t <= leg || t > 2 * leg) ? direction : -direction;
      unit[static_cast<std::size_t>(t)].ops.push_back(step_symbol("K", k));
    }
    units.push_back(std::move(unit));
  }
  std::vector<Interaction> ticks = share(units, part, parts);
  for (std::size_t n = 0; n < ticks.size(); ++n) {
    ticks[n].due_ms = static_cast<double>(n) * kPeriodMs;
  }
  w.initial_binding = ticks.front().ops.front().binding;
  for (int c = 0; c < kClients; ++c) {
    Script client = script("c" + std::to_string(c), ticks);
    for (Interaction& interaction : client.interactions) {
      interaction.due_ms += c * kStaggerMs;
    }
    w.clients.push_back(std::move(client));
  }
  const std::int64_t warm = smoke ? 6 : 16;
  w.warmup = {step_binding({{"I", warm}, {"J", warm}, {"K", 4}}),
              step_symbol("K", 5)};
  for (const auto& [size, k_low] : exercises_k) {
    for (std::int64_t kk = k_low; kk < k_low + kJitter + leg; ++kk) {
      w.space.push_back({w.program_name, {{"I", size}, {"J", size}, {"K", kk}}});
    }
  }
  return w;
}

// --- revisit-disk -----------------------------------------------------
// A restarted server over a warm disk tier: each block of three jumps
// visits two bookmarks (a disk hit on first visit or after the shared
// tier evicted it, else a RAM hit) and one new binding (compute +
// write-through); a block takes about 25 ms. Bookmarks are one seeded pick
// from each of 40 cost strata. Each part runs on its own server and disk
// directory and draws its new bindings the same way from the rest of the
// space, without repeats; so a part has at most as many blocks as the
// space has bindings besides the bookmarks, and its directory stays under
// the 0.8 GiB the whole space encodes to, inside the 1 GiB disk budget.
Workload revisit_disk(std::uint64_t seed, double seconds, int part, int parts,
                      bool smoke) {
  Workload w;
  w.name = "revisit-disk";
  w.program_name = "hdiff_reordered";
  w.program = dmv::serve::workload_by_name("hdiff_reordered");

  constexpr double kBlockSeconds = 0.025;
  const std::vector<std::int64_t> ijs =
      smoke ? std::vector<std::int64_t>{8, 12}
            : std::vector<std::int64_t>{16, 24, 32, 40, 48, 56, 64};
  const std::vector<std::int64_t> ks =
      smoke ? std::vector<std::int64_t>{4, 8}
            : std::vector<std::int64_t>{8, 12, 16, 20, 24, 28, 32, 36, 40};
  std::vector<SymbolMap> space;
  for (const std::int64_t i : ijs) {
    for (const std::int64_t j : ijs) {
      for (const std::int64_t k : ks) {
        space.push_back({{"I", i}, {"J", j}, {"K", k}});
        w.space.push_back({w.program_name, space.back()});
      }
    }
  }
  const auto cost = [](const SymbolMap& s) {
    return s.at("I") * s.at("J") * s.at("K");
  };
  Rng rng(salted(seed, w.name));
  w.bookmarks = take_stratified(space, cost, smoke ? 4 : 40, rng);
  rng.shuffle(w.bookmarks);
  const std::size_t blocks = std::min(
      space.size(), unit_count(seconds / parts, kBlockSeconds, 1));

  for (int p = 0; p <= part; ++p) {
    std::vector<SymbolMap> candidates = space;
    std::vector<SymbolMap> fresh =
        take_stratified(candidates, cost, blocks, rng);
    rng.shuffle(fresh);
    std::vector<SymbolMap> visits;
    std::vector<Interaction> interactions;
    for (const SymbolMap& fresh_binding : fresh) {
      std::vector<SymbolMap> block;
      for (int b = 0; b < 2; ++b) {
        if (visits.empty()) {
          visits = w.bookmarks;
          rng.shuffle(visits);
        }
        block.push_back(visits.back());
        visits.pop_back();
      }
      block.push_back(fresh_binding);
      rng.shuffle(block);
      for (SymbolMap& binding : block) {
        Interaction interaction;
        interaction.ops.push_back(step_binding(std::move(binding)));
        interactions.push_back(std::move(interaction));
      }
    }
    if (p == part) w.clients.push_back(script("c0", std::move(interactions)));
  }
  w.initial_binding = w.bookmarks.front();
  w.warmup = {step_binding({{"I", 12}, {"J", 12}, {"K", 4}})};
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "drag-hdiff", "explore-bert", "classroom-hdiff", "revisit-disk"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, int part, int parts, bool smoke) {
  if (name == "drag-hdiff") {
    return drag_hdiff(seed, seconds, part, parts, smoke);
  }
  if (name == "explore-bert") {
    return explore_bert(seed, seconds, part, parts, smoke);
  }
  if (name == "classroom-hdiff") {
    return classroom_hdiff(seed, seconds, part, parts, smoke);
  }
  if (name == "revisit-disk") {
    return revisit_disk(seed, seconds, part, parts, smoke);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string open_line(const Workload& workload, const std::string& session) {
  Value params = Value::make_object();
  params["session"] = Value::of(session);
  if (workload.inline_program) {
    params["sdfg"] = dmv::json::parse(dmv::ir::to_json(workload.program));
  } else {
    params["workload"] = Value::of(workload.program_name);
  }
  params["binding"] = binding_json(workload.initial_binding);
  return request("open_program", std::move(params));
}

std::string subscribe_line(const Workload& workload,
                           const std::string& session) {
  Value params = Value::make_object();
  params["session"] = Value::of(session);
  params["miss_threshold_lines"] =
      Value::of(workload.subscription.miss_threshold_lines);
  params["element_stats"] = Value::of(workload.subscription.element_stats);
  return request("subscribe", std::move(params));
}

std::string op_line(const Op& op, const std::string& session) {
  Value params = Value::make_object();
  params["session"] = Value::of(session);
  switch (op.kind) {
    case Op::Kind::kEdit:
      params["workload"] = Value::of(op.program);
      return request("edit_program", std::move(params));
    case Op::Kind::kBind:
      params["binding"] = binding_json(op.binding);
      return request("bind", std::move(params));
    case Op::Kind::kStepSymbol:
      params["symbol"] = Value::of(op.symbol);
      params["value"] = Value::of(op.value);
      return request("step", std::move(params));
    case Op::Kind::kStepBinding:
      params["binding"] = binding_json(op.binding);
      return request("step", std::move(params));
  }
  throw std::logic_error("unreachable op kind");
}

std::string state_key(const std::string& program, const SymbolMap& binding) {
  std::string key = program;
  for (const auto& [symbol, value] : binding) {
    key += ' ' + symbol + '=' + std::to_string(value);
  }
  return key;
}

dmv::session::SessionConfig served_session_config(const Workload& workload) {
  dmv::session::SessionConfig config =
      dmv::serve::ServerConfig{}.session_defaults;
  config.pipeline.miss_threshold_lines =
      workload.subscription.miss_threshold_lines;
  config.pipeline.element_stats = workload.subscription.element_stats;
  return config;
}

dmv::ir::Sdfg program_by_name(const Workload& workload,
                              const std::string& name) {
  if (name == workload.program_name) return workload.program;
  return dmv::serve::workload_by_name(name);
}

}  // namespace ledger
