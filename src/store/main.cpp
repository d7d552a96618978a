// dmv_store — offline tooling for the persistent artifact tier
// (docs/storage.md).
//
//   dmv_store warm --workload NAME --cache-dir DIR --sweep S=LO:HI[:STEP]
//                  [--set S=V ...]       precompute the dmv_serve
//                                        warm-start tier offline
//
// `warm` runs a slider sweep through a Session wired to the same
// persistent disk tier dmv_serve uses (--cache-dir), so a server
// started against that directory serves the sweep without simulating
// anything. The workload comes from the dmv_serve registry, at its
// default binding overridden per symbol with --set. A command line that
// would warm nothing a client can ask for exits 2 before any work: a
// --sweep or --set symbol the workload does not declare, a step that is
// not positive, or LO > HI.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "dmv/serve/server.hpp"
#include "dmv/session/session.hpp"
#include "dmv/store/artifact_store.hpp"
#include "dmv/workloads/workloads.hpp"

namespace {

using dmv::symbolic::SymbolMap;

int usage() {
  std::cerr << "usage: dmv_store warm --workload NAME --cache-dir DIR"
               " --sweep S=LO:HI[:STEP] [--set S=V ...]\n";
  return 2;
}

/// An argument that is malformed or would warm nothing; main() reports
/// it and exits 2, as for a usage error.
struct BadArgument : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Default binding of each registry workload — the same parameter sets
/// the tests and docs use for that workload family.
SymbolMap default_binding(const std::string& workload) {
  if (workload.rfind("hdiff", 0) == 0) return dmv::workloads::hdiff_local();
  if (workload.rfind("bert", 0) == 0) return dmv::workloads::bert_small();
  if (workload == "matmul") return dmv::workloads::matmul_fig5();
  if (workload == "conv2d") return dmv::workloads::conv2d_fig4();
  if (workload == "outer_product") {
    return dmv::workloads::outer_product_fig3();
  }
  return {};
}

void apply_set(SymbolMap& binding, const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw BadArgument("bad --set '" + spec + "' (want SYM=VALUE)");
  }
  binding[spec.substr(0, eq)] = std::stoll(spec.substr(eq + 1));
}

struct Sweep {
  std::string symbol;
  std::int64_t lo = 0, hi = 0, step = 1;
};

Sweep parse_sweep(const std::string& spec) {
  Sweep sweep;
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw BadArgument("bad --sweep '" + spec + "' (want SYM=LO:HI[:STEP])");
  }
  sweep.symbol = spec.substr(0, eq);
  std::string range = spec.substr(eq + 1);
  std::replace(range.begin(), range.end(), ':', ' ');
  std::istringstream fields(range);
  if (!(fields >> sweep.lo >> sweep.hi) ||
      (!fields.eof() && !(fields >> sweep.step)) ||
      !(fields >> std::ws).eof()) {
    throw BadArgument("bad --sweep range in '" + spec +
                      "' (want SYM=LO:HI[:STEP])");
  }
  if (sweep.step <= 0) {
    throw BadArgument("--sweep step " + std::to_string(sweep.step) +
                      " is not positive");
  }
  if (sweep.lo > sweep.hi) {
    throw BadArgument("--sweep LO " + std::to_string(sweep.lo) +
                      " is above HI " + std::to_string(sweep.hi) +
                      ": the sweep is empty");
  }
  return sweep;
}

/// Throws unless `sdfg` declares `symbol`. A binding of a symbol the
/// program does not declare keys the same artifact as the binding
/// without it, so sweeping one warms a single entry.
void require_declared(const dmv::ir::Sdfg& sdfg, const std::string& workload,
                      const char* flag, const std::string& symbol) {
  if (sdfg.symbols().count(symbol) != 0) return;
  std::string declared;
  for (const std::string& name : sdfg.symbols()) declared += " " + name;
  throw BadArgument(std::string(flag) + " names " + symbol + ", which " +
                    workload + " does not declare (it declares" + declared +
                    ")");
}

int warm(int argc, char** argv) {
  std::string workload, cache_dir, sweep_spec;
  SymbolMap overrides;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--workload") == 0 && has_value) {
      workload = argv[++i];
    } else if (std::strcmp(arg, "--cache-dir") == 0 && has_value) {
      cache_dir = argv[++i];
    } else if (std::strcmp(arg, "--sweep") == 0 && has_value) {
      sweep_spec = argv[++i];
    } else if (std::strcmp(arg, "--set") == 0 && has_value) {
      apply_set(overrides, argv[++i]);
    } else {
      return usage();
    }
  }
  if (workload.empty() || cache_dir.empty() || sweep_spec.empty()) {
    return usage();
  }
  const Sweep sweep = parse_sweep(sweep_spec);
  dmv::ir::Sdfg sdfg = dmv::serve::workload_by_name(workload);
  require_declared(sdfg, workload, "--sweep", sweep.symbol);
  for (const auto& [symbol, value] : overrides) {
    require_declared(sdfg, workload, "--set", symbol);
  }

  // Same tier wiring as dmv_serve --cache-dir: artifacts this run
  // computes land in the directory a later server re-serves from.
  dmv::session::SharedArtifactCache::Config shared_config;
  shared_config.disk_dir = cache_dir;
  shared_config.codecs.emplace_back(dmv::session::metrics_artifact_kind(),
                                    dmv::store::pipeline_result_codec());
  dmv::session::SessionConfig session_config;  // dmv_serve defaults.
  session_config.shared_cache =
      std::make_shared<dmv::session::SharedArtifactCache>(shared_config);

  dmv::session::Session session(std::move(sdfg), std::move(session_config));
  SymbolMap binding = default_binding(workload);
  for (const auto& [symbol, value] : overrides) binding[symbol] = value;
  session.set_binding(binding);

  std::int64_t steps = 0;
  for (std::int64_t value = sweep.lo; value <= sweep.hi;
       value += sweep.step) {
    session.set_symbol(sweep.symbol, value);
    session.metrics();
    ++steps;
  }
  const dmv::session::SharedCacheStats stats =
      session.config().shared_cache->stats();
  std::cout << "warmed " << steps << " bindings of " << workload << "."
            << sweep.symbol << " -> " << cache_dir << " ("
            << stats.disk_writes << " artifacts written, "
            << stats.disk_bytes << " bytes on disk)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "warm") != 0) return usage();
  try {
    return warm(argc - 2, argv + 2);
  } catch (const BadArgument& error) {
    std::cerr << "dmv_store: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "dmv_store: " << error.what() << "\n";
    return 1;
  }
}
