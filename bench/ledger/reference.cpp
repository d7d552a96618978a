// The correctness gate's reference: lone single-threaded sessions compute
// the answer of every state. `--reference` stores them for each
// workload's whole state space in the committed golden file; smoke runs
// recompute them for their toy states.

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "dmv/par/par.hpp"
#include "harness.hpp"

namespace ledger {

using dmv::json::Value;

namespace {
constexpr const char* kGoldenSchema = "dmv-ledger-golden/2";
}  // namespace

std::vector<StepState> step_states(const Workload& workload,
                                   const Script& script) {
  std::vector<StepState> states;
  states.reserve(script.interactions.size());
  StepState current{workload.program_name, workload.initial_binding};
  for (const Interaction& interaction : script.interactions) {
    for (const Op& op : interaction.ops) {
      switch (op.kind) {
        case Op::Kind::kEdit: current.program = op.program; break;
        case Op::Kind::kBind:
        case Op::Kind::kStepBinding: current.binding = op.binding; break;
        case Op::Kind::kStepSymbol:
          current.binding[op.symbol] = op.value;
          break;
      }
    }
    states.push_back(current);
  }
  return states;
}

Answers reference_answers(const Workload& workload,
                          const std::vector<StepState>& states,
                          int threads) {
  // Distinct states in first-visit order: contiguous runs keep a drag's
  // neighbouring bindings on one session, where the delta engine applies.
  std::vector<const StepState*> distinct;
  std::set<std::string> seen;
  for (const StepState& state : states) {
    if (seen.insert(state_key(state.program, state.binding)).second) {
      distinct.push_back(&state);
    }
  }
  const std::size_t runs =
      std::min(distinct.size(), static_cast<std::size_t>(std::max(1, threads)));
  std::vector<Answers> partial(runs);
  std::vector<std::string> errors(runs);

  dmv::par::ThreadScope serial(1);
  std::vector<std::thread> workers;
  for (std::size_t r = 0; r < runs; ++r) {
    workers.emplace_back([&, r] {
      try {
        const std::size_t begin = r * distinct.size() / runs;
        const std::size_t end = (r + 1) * distinct.size() / runs;
        dmv::session::SessionConfig config = served_session_config(workload);
        config.prefetch = false;
        config.shared_cache = nullptr;
        std::map<std::string, dmv::ir::Sdfg> programs;
        const auto program = [&](const std::string& name) {
          auto it = programs.find(name);
          if (it == programs.end()) {
            it = programs.emplace(name, program_by_name(workload, name)).first;
          }
          return it->second;
        };
        std::string current = distinct[begin]->program;
        dmv::session::Session session(program(current), config);
        for (std::size_t s = begin; s < end; ++s) {
          const StepState& state = *distinct[s];
          if (state.program != current) {
            current = state.program;
            session.set_program(program(current));
          }
          session.set_binding(state.binding);
          const auto result = session.metrics();
          partial[r][state_key(state.program, state.binding)] = step_answer(
              std::to_string(dmv::serve::result_checksum(*result)),
              result->executions, result->misses.total.misses(),
              session.movement_bytes());
        }
      } catch (const std::exception& error) {
        errors[r] = error.what();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  Answers merged;
  for (std::size_t r = 0; r < runs; ++r) {
    if (!errors[r].empty()) {
      throw std::runtime_error("reference failed: " + errors[r]);
    }
    merged.insert(partial[r].begin(), partial[r].end());
  }
  return merged;
}

std::map<std::string, Answers> load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const Value document = dmv::json::parse(text.str());
  if (!document.has("schema") ||
      document.at("schema").as_string() != kGoldenSchema) {
    throw std::runtime_error(path + " is not a " + kGoldenSchema + " file");
  }
  std::map<std::string, Answers> golden;
  for (const auto& [name, states] : document.at("workloads").object) {
    for (const auto& [key, answer] : states.object) {
      golden[name][key] = answer.as_string();
    }
  }
  return golden;
}

void save_golden(const std::string& path,
                 const std::map<std::string, Answers>& golden) {
  // One state per line keeps the committed file diffable.
  std::ofstream out(path);
  out << "{\"schema\": \"" << kGoldenSchema << "\", \"workloads\": {";
  bool first_workload = true;
  for (const auto& [name, states] : golden) {
    out << (first_workload ? "" : ",") << "\n" << dmv::json::escape(name)
        << ": {";
    first_workload = false;
    bool first = true;
    for (const auto& [key, answer] : states) {
      out << (first ? "" : ",") << "\n  " << dmv::json::escape(key) << ": "
          << dmv::json::escape(answer);
      first = false;
    }
    out << "}";
  }
  out << "}}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace ledger
