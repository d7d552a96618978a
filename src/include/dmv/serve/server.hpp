#pragma once

// Multi-session analysis server core.
//
// The paper's tool is one user dragging sliders against one process;
// the ROADMAP's north star is many. This layer multiplexes independent
// interactive clients — each a session::Session — onto one process and
// one dmv::par pool, behind a line-delimited JSON protocol
// (docs/serving.md):
//
//   {"id":1,"method":"open_program","params":{"session":"a","workload":"hdiff"}}
//   {"id":1,"result":{"program":"hdiff","symbols":["I","J","K"],...}}
//
// `Server` is transport-agnostic: handle() maps one request line to one
// response line, synchronously, on the caller's thread. The dmv_serve
// binary (serve/main.cpp) supplies the transports (stdio, TCP with one
// thread per connection); tests and the load generator drive handle()
// directly from their own threads.
//
// What the server adds over N independent Sessions:
//
//   * Shared artifact tier — every session is constructed with the
//     process-global SharedArtifactCache (artifact_cache.hpp), so a
//     program+binding any client has already simulated is a cache hit
//     for every other client, while per-session budgets still bound
//     each client's private tier.
//   * Request coalescing — concurrent `step` requests from different
//     sessions that resolve to the SAME artifact key (program content
//     hash + pipeline fingerprint + reachable-symbol binding) collapse
//     into one simulation: the first becomes the leader and computes,
//     the rest wait on its flight and are then served from the shared
//     tier. Exactly one simulation runs per distinct key.
//   * Pool admission — the par pool is single-job; with the busy
//     fallback (par.hpp) a session whose parallel evaluation finds the
//     pool occupied degrades to the bit-identical serial path instead
//     of queueing behind a foreign client's job.
//
// Determinism contract under concurrency: every artifact (and its
// checksum in a `step` response) is bit-identical to what a lone
// single-threaded Session would produce for the same request sequence,
// at any thread count and any client interleaving. Concurrency changes
// only WHO computes an artifact and how long requests take — never the
// bytes. Counters (hit/miss/coalesced splits) are interleaving-
// dependent; invariant across interleavings is the total number of
// simulations per distinct key (one).
//
// Thread safety: handle(), stats(), and shutdown() are safe to call
// concurrently. Requests for the same session serialize on a
// per-session mutex; requests for different sessions proceed in
// parallel.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "dmv/session/artifact_cache.hpp"
#include "dmv/session/session.hpp"

namespace dmv::serve {

/// The longest request line, newline excluded, that a transport buffers
/// and passes to Server::handle(). A constant, not a setting.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{64} << 20;

struct ServerConfig {
  /// Process-global artifact tier shared by every session.
  session::SharedArtifactCache::Config shared_cache;
  /// Template for newly opened sessions (pipeline subscription, engine
  /// knobs, per-session budget). Its shared_cache field is overwritten
  /// with the server's tier; `subscribe` adjusts the rest per session.
  session::SessionConfig session_defaults;
};

/// Cumulative request accounting since construction. Counter totals
/// depend on request interleaving (see determinism note above); the
/// artifacts they describe do not.
struct ServerStats {
  std::int64_t requests = 0;        ///< Lines handled, incl. errors.
  std::int64_t errors = 0;          ///< Responses with an `error` member.
  std::int64_t steps = 0;           ///< `step` requests served.
  /// `step` requests that waited on another session's in-flight
  /// computation of the same artifact key instead of computing.
  std::int64_t coalesced = 0;
  std::int64_t sessions = 0;        ///< Currently open sessions.
  /// par::busy_fallbacks() at snapshot time: parallel jobs that ran
  /// serially inline because another client held the pool.
  std::uint64_t pool_busy_fallbacks = 0;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handles one request line (a complete JSON object, no newline) and
  /// returns the response line. Never throws: every failure becomes an
  /// `error` response. Safe to call from any thread.
  std::string handle(const std::string& line);

  /// Answers a request line longer than kMaxRequestLineBytes, which the
  /// transport drops instead of buffering: a `request_too_large` error
  /// with a null id, counted in `requests` and `errors`.
  std::string handle_oversized_line();

  /// Stops admitting requests (subsequent handle() calls return a
  /// `shutting_down` error) and blocks until every in-flight handle()
  /// has returned. Idempotent. Also triggered by the protocol
  /// `shutdown` method.
  void shutdown();

  /// True once shutdown started — transports use this to stop their
  /// accept/read loops.
  bool shutting_down() const;

  ServerStats stats() const;
  session::SharedCacheStats shared_cache_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Order-insensitive checksum of a metric bundle: total cache misses +
/// executions + per-element cold counts + per-element read counts.
/// `step` responses carry it (as a decimal string — JSON numbers lose
/// precision past 2^53) so clients and tests can assert bit-identity
/// against a local Session.
std::int64_t result_checksum(const sim::PipelineResult& result);

/// The workload registry behind open_program's `workload` parameter:
/// hdiff[_reshaped|_reordered|_padded], bert[_fused1|_fused2], matmul,
/// conv2d, outer_product. Throws std::invalid_argument for anything
/// else.
ir::Sdfg workload_by_name(const std::string& name);

}  // namespace dmv::serve
