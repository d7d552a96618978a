#pragma once

// dmv_ledger — the interaction ledger: four served workloads measured end
// to end through dmv::serve::Server, plus a traced replay that splits one
// interaction into its layers. README.md beside this file documents the
// workloads, the metrics and how to run it.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dmv/ir/sdfg.hpp"
#include "dmv/session/session.hpp"
#include "dmv/util/json.hpp"

namespace ledger {

using Clock = std::chrono::steady_clock;
using dmv::symbolic::SymbolMap;

inline double ms_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

inline Clock::duration from_ms(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// splitmix64: the same seed gives the same request sequences with any
/// standard library (the std distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n), n > 0.
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n));
  }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(below(static_cast<std::int64_t>(i)));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  std::uint64_t state_;
};

/// One protocol request of a client script.
struct Op {
  enum class Kind { kEdit, kBind, kStepSymbol, kStepBinding };
  Kind kind = Kind::kStepSymbol;
  std::string program;  ///< kEdit: workload name.
  std::string symbol;   ///< kStepSymbol.
  std::int64_t value = 0;
  SymbolMap binding;    ///< kBind, kStepBinding.
};

/// One user gesture: one or two request lines, the last one a `step`.
/// Latency is measured over all of its lines.
struct Interaction {
  std::vector<Op> ops;
  std::vector<std::string> lines;  ///< Rendered request lines.
  /// Open loop: due time relative to the start of the measured phase.
  double due_ms = 0;
};

struct Script {
  std::string session;
  std::vector<Interaction> interactions;
};

struct Subscription {
  std::int64_t miss_threshold_lines = 0;
  bool element_stats = false;
};

/// The program and binding a step evaluates.
struct StepState {
  std::string program;
  SymbolMap binding;
};

/// A workload: the programs, the client scripts and the set-up they need,
/// all derived from the seed. The program only ever sees the rendered
/// request lines.
struct Workload {
  std::string name;
  bool open_loop = false;
  /// The program every client opens: a registry name (`workload`) or,
  /// when `inline_program`, an SDFG sent inline as `sdfg`.
  std::string program_name;
  dmv::ir::Sdfg program{"unset"};
  bool inline_program = false;
  SymbolMap initial_binding;
  Subscription subscription;
  /// Every client script; on the open-loop workload all clients replay
  /// the same ops with staggered due times.
  std::vector<Script> clients;
  /// revisit-disk: bindings a child process computes into a fresh disk
  /// directory before the server under test starts.
  std::vector<SymbolMap> bookmarks;
  /// Off-sequence interactions run during set-up on a separate session,
  /// so lazy process-level state is warm before the first measurement.
  std::vector<Op> warmup;
  /// Every state a step of this workload can reach, whatever the seed and
  /// the length: the finite set the seed draws from. The golden reference
  /// covers it.
  std::vector<StepState> space;
};

/// Builds part `part` of `parts` of the named workload (`drag-hdiff`,
/// `explore-bert`, `classroom-hdiff`, `revisit-disk`) from `seed`. The
/// whole run is sized to take about `seconds` on the calibration host and
/// is cut into consecutive parts, each run by its own process. `smoke`
/// selects toy sizes.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, int part, int parts, bool smoke);

const std::vector<std::string>& workload_names();

std::string open_line(const Workload& workload, const std::string& session);
std::string subscribe_line(const Workload& workload,
                           const std::string& session);
std::string op_line(const Op& op, const std::string& session);

/// Canonical text of the state a step evaluates: the program and the full
/// binding. The correctness gate keys expected answers by it.
std::string state_key(const std::string& program, const SymbolMap& binding);

/// Session configuration the server gives a client of this workload
/// (server defaults plus the workload's subscription).
dmv::session::SessionConfig served_session_config(const Workload& workload);

/// The program a registry name or the workload's inline program denotes,
/// exactly as the server would hold it.
dmv::ir::Sdfg program_by_name(const Workload& workload,
                              const std::string& name);

}  // namespace ledger
