// Serving-layer tests: protocol behavior, cross-session cache sharing,
// request coalescing, and the determinism contract under concurrency.
//
// The concurrency tests here are the only place multiple client threads
// drive one process, which is the surface the CI determinism and TSan
// jobs exist for.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dmv/builder/program_builder.hpp"
#include "dmv/ir/serialize.hpp"
#include "dmv/par/par.hpp"
#include "dmv/serve/server.hpp"
#include "dmv/session/session.hpp"
#include "dmv/util/json.hpp"
#include "dmv/workloads/workloads.hpp"

namespace {

using dmv::json::Value;
using dmv::serve::Server;

Value parse_line(const std::string& line) { return dmv::json::parse(line); }

std::string open_request(const std::string& session,
                         const std::string& workload, std::int64_t ij = 8) {
  const std::string extent = std::to_string(ij);
  return "{\"id\":1,\"method\":\"open_program\",\"params\":{\"session\":\"" +
         session + "\",\"workload\":\"" + workload +
         "\",\"binding\":{\"I\":" + extent + ",\"J\":" + extent +
         ",\"K\":5}}}";
}

std::string step_request(const std::string& session, const std::string& symbol,
                         std::int64_t value) {
  return "{\"id\":2,\"method\":\"step\",\"params\":{\"session\":\"" + session +
         "\",\"symbol\":\"" + symbol + "\",\"value\":" +
         std::to_string(value) + "}}";
}

std::string edit_request(const std::string& session,
                         const std::string& workload) {
  return "{\"id\":3,\"method\":\"edit_program\",\"params\":{\"session\":\"" +
         session + "\",\"workload\":\"" + workload + "\"}}";
}

/// Drives the drag sequence through a lone single-threaded Session —
/// the reference the server must match bit for bit.
std::vector<std::string> reference_checksums(
    const std::vector<std::int64_t>& values, std::int64_t ij = 8) {
  dmv::session::Session session(
      dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline));
  session.set_binding({{"I", ij}, {"J", ij}, {"K", 5}});
  std::vector<std::string> checksums;
  for (const std::int64_t value : values) {
    session.set_symbol("K", value);
    checksums.push_back(
        std::to_string(dmv::serve::result_checksum(*session.metrics())));
  }
  return checksums;
}

// ---------------------------------------------------------------------
// Protocol basics and error shapes.

TEST(ServeProtocolTest, OpenBindStepRoundtrip) {
  Server server;
  const Value opened = parse_line(server.handle(open_request("a", "hdiff")));
  ASSERT_TRUE(opened.has("result")) << dmv::json::dump(opened);
  EXPECT_EQ(opened.at("result").at("program").as_string(), "hdiff");
  EXPECT_EQ(opened.at("result").at("symbols").as_array().size(), 3u);

  const Value stepped = parse_line(server.handle(step_request("a", "K", 6)));
  ASSERT_TRUE(stepped.has("result")) << dmv::json::dump(stepped);
  const Value& result = stepped.at("result");
  EXPECT_EQ(result.at("served_by").as_string(), "compute");
  EXPECT_GT(result.at("executions").as_int(), 0);
  EXPECT_FALSE(result.at("checksum").as_string().empty());

  // Same step again: served from this session's local cache.
  const Value repeat = parse_line(server.handle(step_request("a", "K", 6)));
  EXPECT_EQ(repeat.at("result").at("served_by").as_string(), "cache");
  EXPECT_EQ(repeat.at("result").at("checksum").as_string(),
            result.at("checksum").as_string());
}

std::int64_t session_steps(Server& server, const std::string& session) {
  const Value stats = parse_line(server.handle(
      "{\"id\":4,\"method\":\"stats\",\"params\":{\"session\":\"" +
      session + "\"}}"));
  const Value& counters = stats.at("result").at("session");
  return counters.at("steps_full_hit").as_int() +
         counters.at("steps_symbolic").as_int() +
         counters.at("steps_chunk_delta").as_int() +
         counters.at("steps_cold").as_int();
}

TEST(ServeProtocolTest, EachStepRequestCountsAsOneStep) {
  // A step reads the session's stats to pick served_by and then asks
  // for movement_bytes; neither may open a second step.
  Server server;
  ASSERT_TRUE(parse_line(server.handle(open_request("a", "hdiff"))).has(
      "result"));
  const std::vector<std::int64_t> drag = {6, 7, 6, 8, 7};
  for (std::size_t n = 0; n < drag.size(); ++n) {
    const Value stepped =
        parse_line(server.handle(step_request("a", "K", drag[n])));
    ASSERT_TRUE(stepped.has("result")) << dmv::json::dump(stepped);
    EXPECT_EQ(session_steps(server, "a"), static_cast<std::int64_t>(n + 1));
  }
}

/// open_program with an inline one-state SDFG over container A[4].
std::string open_inline(const std::string& element_size,
                        const std::string& nodes, const std::string& edges) {
  return "{\"id\":9,\"method\":\"open_program\",\"params\":{\"session\":"
         "\"m\",\"sdfg\":{\"name\":\"p\",\"symbols\":[],\"containers\":[{"
         "\"name\":\"A\",\"shape\":[\"4\"],\"strides\":[\"1\"],"
         "\"element_size\":" +
         element_size + ",\"transient\":false}],\"states\":[{\"name\":\"s\","
         "\"nodes\":[" + nodes + "],\"edges\":[" + edges + "]}]}}}";
}

TEST(ServeProtocolTest, MalformedRequestsGetErrorResponses) {
  Server server;
  struct Case {
    std::string line;
    const char* code;
  };
  const std::string access =
      R"({"id":0,"kind":"access","label":"A","data":"A"})";
  const std::string tasklet =
      R"({"id":1,"kind":"tasklet","label":"t","code":"b = a"})";
  const Case cases[] = {
      {"not json at all", "parse_error"},
      {"{\"id\":1}", "bad_request"},  // No method.
      {"{\"id\":2,\"method\":\"frobnicate\"}", "unknown_method"},
      {"{\"id\":3,\"method\":\"step\",\"params\":{\"session\":\"ghost\","
       "\"symbol\":\"K\",\"value\":5}}",
       "unknown_session"},
      {"{\"id\":4,\"method\":\"open_program\",\"params\":{\"session\":\"a\","
       "\"workload\":\"no_such_workload\"}}",
       "bad_program"},
      {"{\"id\":5,\"method\":\"open_program\",\"params\":{\"session\":\"a\"}}",
       "bad_request"},  // Neither workload nor sdfg.
      // Inline programs the graph or the validator rejects.
      {open_inline("8", R"({"id":5,"kind":"access","label":"A","data":"A"})",
                   ""),
       "bad_program"},  // Node id 5 in a one-node state.
      {open_inline("8", access, R"({"src":0,"dst":7})"), "bad_program"},
      {open_inline("8",
                   R"({"id":0,"kind":"tasklet","label":"t","code":"b = 1",)"
                   R"("scope":99})",
                   ""),
       "bad_program"},
      {open_inline("8", access + "," + tasklet,
                   R"({"src":0,"dst":1,"dst_conn":"a","data":"B",)"
                   R"("subset":"0","volume":"1"})"),
       "bad_program"},  // Memlet to an undeclared container.
      {open_inline("8",
                   R"({"id":0,"kind":"map_entry","label":"m","params":["i"],)"
                   R"("ranges":["0:3"],"paired":99})",
                   ""),
       "bad_program"},
      {open_inline("8", R"({"id":0,"kind":"access","label":"B","data":"B"})",
                   ""),
       "bad_program"},  // Access node to an undeclared container.
      {open_inline("8.75", access, ""), "bad_program"},
  };
  for (const Case& c : cases) {
    const Value response = parse_line(server.handle(c.line));
    ASSERT_TRUE(response.has("error")) << c.line;
    EXPECT_EQ(response.at("error").at("code").as_string(), c.code) << c.line;
    EXPECT_FALSE(response.at("error").at("message").as_string().empty());
  }
  // Error handling must not have corrupted anything: a valid request
  // still works.
  const Value ok = parse_line(server.handle(open_request("a", "hdiff")));
  EXPECT_TRUE(ok.has("result"));
  EXPECT_TRUE(parse_line(server.handle(open_inline("8", access, "")))
                  .has("result"));
  EXPECT_EQ(server.stats().errors, 13);
}

TEST(ServeProtocolTest, OversizedLineCountsAsARequestAndAnError) {
  // The transport does not buffer a line past the cap; the server still
  // answers it and counts it like any other failed line.
  Server server;
  ASSERT_TRUE(parse_line(server.handle("not json")).has("error"));
  const Value response = parse_line(server.handle_oversized_line());
  EXPECT_EQ(response.at("id").type, Value::Type::Null);
  EXPECT_EQ(response.at("error").at("code").as_string(), "request_too_large");
  EXPECT_EQ(response.at("error").at("message").as_string(),
            "request line exceeds " +
                std::to_string(dmv::serve::kMaxRequestLineBytes) + " bytes");
  EXPECT_EQ(server.stats().requests, 2);
  EXPECT_EQ(server.stats().errors, 2);
  EXPECT_TRUE(parse_line(server.handle(open_request("a", "hdiff")))
                  .has("result"));
  EXPECT_EQ(server.stats().requests, 3);
  EXPECT_EQ(server.stats().errors, 2);
}

TEST(ServeProtocolTest, DeeplyNestedRequestGetsParseError) {
  Server server;
  const std::string line =
      "{\"id\":1,\"method\":\"step\",\"params\":" + std::string(1000000, '[');
  const Value response = parse_line(server.handle(line));
  ASSERT_TRUE(response.has("error"));
  EXPECT_EQ(response.at("error").at("code").as_string(), "parse_error");
  // The server is still up.
  EXPECT_TRUE(parse_line(server.handle(open_request("a", "hdiff")))
                  .has("result"));
}

TEST(ServeProtocolTest, StepWithBadParamsReportsBadRequest) {
  Server server;
  server.handle(open_request("a", "hdiff"));
  const Value missing = parse_line(
      server.handle("{\"id\":1,\"method\":\"step\",\"params\":"
                    "{\"session\":\"a\"}}"));
  EXPECT_EQ(missing.at("error").at("code").as_string(), "bad_request");
  const Value bad_type = parse_line(
      server.handle("{\"id\":2,\"method\":\"bind\",\"params\":"
                    "{\"session\":\"a\",\"binding\":{\"K\":\"five\"}}}"));
  EXPECT_EQ(bad_type.at("error").at("code").as_string(), "bad_request");
}

TEST(ServeProtocolTest, StepWithInvalidBindingReportsBadBinding) {
  Server server;
  server.handle(open_request("a", "hdiff"));
  // K left unbound: hdiff's extents and map ranges read it.
  const Value unbound = parse_line(
      server.handle("{\"id\":1,\"method\":\"step\",\"params\":"
                    "{\"session\":\"a\",\"binding\":{\"I\":8,\"J\":8}}}"));
  EXPECT_EQ(unbound.at("error").at("code").as_string(), "bad_binding")
      << dmv::json::dump(unbound);
  // I = -10 makes in_field's first extent (I + 4) non-positive.
  const Value negative = parse_line(server.handle(
      "{\"id\":2,\"method\":\"step\",\"params\":{\"session\":\"a\","
      "\"binding\":{\"I\":-10,\"J\":8,\"K\":4}}}"));
  EXPECT_EQ(negative.at("error").at("code").as_string(), "bad_binding")
      << dmv::json::dump(negative);
  // The session stays usable.
  const Value good = parse_line(server.handle(
      "{\"id\":3,\"method\":\"step\",\"params\":{\"session\":\"a\","
      "\"binding\":{\"I\":8,\"J\":8,\"K\":4}}}"));
  EXPECT_TRUE(good.has("result")) << dmv::json::dump(good);

  // K dragged past KMAX on an inline fixed-capacity build: the map reads
  // outside the arrays allocated at KMAX.
  const std::string program = dmv::ir::to_json(dmv::workloads::fixed_capacity(
      dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline),
      {{"K", "KMAX"}}));
  const Value opened = parse_line(server.handle(
      "{\"id\":4,\"method\":\"open_program\",\"params\":{\"session\":"
      "\"b\",\"sdfg\":" +
      program + ",\"binding\":{\"I\":8,\"J\":8,\"K\":5,\"KMAX\":8}}}"));
  ASSERT_TRUE(opened.has("result")) << dmv::json::dump(opened);
  const Value past = parse_line(server.handle(step_request("b", "K", 9)));
  EXPECT_EQ(past.at("error").at("code").as_string(), "bad_binding")
      << dmv::json::dump(past);
}

/// The jacobi2d program of examples/custom_kernel_analysis plus one
/// container of shape `shape` over the extra symbols `extra`, as an
/// inline SDFG. The shape text goes to the server unparsed.
std::string jacobi_with_container(const std::string& shape,
                                  const std::vector<std::string>& extra) {
  dmv::builder::ProgramBuilder program("jacobi2d");
  program.symbols({"N"});
  program.array("grid", {"N + 2", "N + 2"});
  program.array("next", {"N", "N"});
  program.state("sweep");
  program.mapped_tasklet(
      "stencil", {{"i", "0:N-1"}, {"j", "0:N-1"}},
      {{"c", "grid", "i + 1, j + 1"},
       {"n", "grid", "i, j + 1"},
       {"s", "grid", "i + 2, j + 1"},
       {"w", "grid", "i + 1, j"},
       {"e", "grid", "i + 1, j + 2"}},
      "o = 0.2 * (c + n + s + w + e)", {{"o", "next", "i, j"}});
  Value sdfg = dmv::json::parse(dmv::ir::to_json(program.take()));
  for (const std::string& symbol : extra) {
    sdfg["symbols"].push(Value::of(symbol));
  }
  Value container = Value::make_object();
  container["name"] = Value::of("hostile");
  container["shape"] = Value::make_array();
  container["shape"].push(Value::of(shape));
  container["strides"] = Value::make_array();
  container["strides"].push(Value::of("1"));
  container["element_size"] = Value::of(8);
  container["transient"] = Value::of(false);
  sdfg["containers"].push(std::move(container));
  return dmv::json::dump(sdfg);
}

TEST(ServeProtocolTest, HostileIntegerArithmeticGetsAnAnswer) {
  // Each program's shape meets an integer helper's limit: a constant
  // quotient past int64, a symbolic one, and a power whose exponent a
  // loop would take minutes over. Every request must get a result or a
  // bad_binding error within a second, and the server must keep serving.
  const struct {
    const char* shape;
    std::vector<std::string> extra;
    const char* open_binding;
    const char* step_binding;
  } cases[] = {
      {"N + (-9223372036854775807 - 1) / -1", {}, "{\"N\":4}", "{\"N\":5}"},
      {"P / Q", {"P", "Q"}, "{\"N\":4,\"P\":1,\"Q\":1}",
       "{\"N\":4,\"P\":-9223372036854775808,\"Q\":-1}"},
      {"2**P", {"P"}, "{\"N\":4,\"P\":3}", "{\"N\":4,\"P\":40000000000}"},
  };
  Server server;
  for (const auto& c : cases) {
    const std::string requests[] = {
        "{\"id\":1,\"method\":\"open_program\",\"params\":{\"session\":"
        "\"h\",\"sdfg\":" +
            jacobi_with_container(c.shape, c.extra) +
            ",\"binding\":" + c.open_binding + "}}",
        "{\"id\":2,\"method\":\"step\",\"params\":{\"session\":\"h\","
        "\"binding\":" +
            std::string(c.step_binding) + "}}"};
    for (const std::string& request : requests) {
      const auto start = std::chrono::steady_clock::now();
      const Value response = parse_line(server.handle(request));
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      EXPECT_LT(seconds, 1.0) << c.shape;
      if (response.has("error")) {
        EXPECT_EQ(response.at("error").at("code").as_string(), "bad_binding")
            << c.shape << ": " << dmv::json::dump(response);
      } else {
        EXPECT_TRUE(response.has("result"))
            << c.shape << ": " << dmv::json::dump(response);
      }
    }
  }
  const Value stats = parse_line(server.handle(
      "{\"id\":3,\"method\":\"stats\",\"params\":{\"session\":\"h\"}}"));
  EXPECT_TRUE(stats.has("result")) << dmv::json::dump(stats);
}

TEST(ServeProtocolTest, SubscribeRebuildsSessionPreservingBinding) {
  Server server;
  server.handle(open_request("a", "hdiff"));
  server.handle(step_request("a", "K", 6));
  const Value subscribed = parse_line(server.handle(
      "{\"id\":1,\"method\":\"subscribe\",\"params\":{\"session\":\"a\","
      "\"element_stats\":true,\"miss_threshold_lines\":64}}"));
  ASSERT_TRUE(subscribed.has("result")) << dmv::json::dump(subscribed);
  EXPECT_TRUE(subscribed.at("result").at("element_stats").as_bool());
  EXPECT_EQ(subscribed.at("result").at("miss_threshold_lines").as_int(), 64);

  // The rebuilt session kept the binding, and the new subscription
  // matches a lone Session configured the same way.
  const Value stepped = parse_line(server.handle(step_request("a", "K", 7)));
  ASSERT_TRUE(stepped.has("result")) << dmv::json::dump(stepped);

  dmv::session::SessionConfig config;
  config.pipeline.element_stats = true;
  config.pipeline.miss_threshold_lines = 64;
  dmv::session::Session reference(
      dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline),
      std::move(config));
  reference.set_binding({{"I", 8}, {"J", 8}, {"K", 7}});
  EXPECT_EQ(stepped.at("result").at("checksum").as_string(),
            std::to_string(
                dmv::serve::result_checksum(*reference.metrics())));
}

std::string subscribe_request(const std::string& fields) {
  return std::string("{\"id\":1,\"method\":\"subscribe\",\"params\":") +
         "{\"session\":\"a\"," + fields + "}}";
}

/// `fields` is a subscription the server must refuse with bad_request
/// before touching the session: the next step still answers with the
/// previous subscription (misses at 8 lines). The error message must
/// contain `named`.
void expect_subscribe_refused(const std::string& fields,
                              const std::string& named = "") {
  Server server;
  server.handle(open_request("a", "hdiff"));
  const Value kept = parse_line(server.handle(
      subscribe_request("\"miss_threshold_lines\":8")));
  ASSERT_TRUE(kept.has("result")) << dmv::json::dump(kept);

  const Value refused = parse_line(server.handle(subscribe_request(fields)));
  ASSERT_TRUE(refused.has("error")) << fields << ": "
                                    << dmv::json::dump(refused);
  EXPECT_EQ(refused.at("error").at("code").as_string(), "bad_request")
      << fields;
  EXPECT_NE(refused.at("error").at("message").as_string().find(named),
            std::string::npos)
      << dmv::json::dump(refused);

  const Value stepped = parse_line(server.handle(step_request("a", "K", 6)));
  ASSERT_TRUE(stepped.has("result")) << dmv::json::dump(stepped);
  dmv::session::SessionConfig config;
  config.pipeline.miss_threshold_lines = 8;
  dmv::session::Session reference(
      dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline),
      std::move(config));
  reference.set_binding({{"I", 8}, {"J", 8}, {"K", 6}});
  EXPECT_EQ(stepped.at("result").at("checksum").as_string(),
            std::to_string(dmv::serve::result_checksum(*reference.metrics())))
      << fields;
}

TEST(ServeProtocolTest, SubscribeRefusesLineSizeBeyondInt) {
  // 2^32 + 64 used to wrap to 64 and be echoed back as accepted.
  expect_subscribe_refused("\"line_size\":4294967360");
}

TEST(ServeProtocolTest, SubscribeRefusesZeroLineSize) {
  expect_subscribe_refused("\"line_size\":0");
}

TEST(ServeProtocolTest, SubscribeRefusesNegativeMissThreshold) {
  expect_subscribe_refused("\"miss_threshold_lines\":-1");
}

TEST(ServeProtocolTest, SubscribeRefusesPrefetchDepthOutOfRange) {
  // prefetch_depth is not a knob: every value is an unknown param.
  expect_subscribe_refused("\"prefetch_depth\":100000");
  expect_subscribe_refused("\"prefetch_depth\":17");
  expect_subscribe_refused("\"prefetch_depth\":-1");
}

TEST(ServeProtocolTest, SubscribeRefusesUnknownParams) {
  // Retired knobs and typos must not silently leave defaults in place.
  expect_subscribe_refused("\"streaming\":false", "'streaming'");
  expect_subscribe_refused("\"delta\":false", "'delta'");
  expect_subscribe_refused("\"prefetch_depth\":2", "'prefetch_depth'");
  expect_subscribe_refused("\"prefetch\":true", "'prefetch'");
  expect_subscribe_refused("\"miss_treshold_lines\":64",
                           "'miss_treshold_lines'");
}

TEST(ServeProtocolTest, SubscribeRefusesNegativeCacheBudget) {
  expect_subscribe_refused("\"cache_budget_bytes\":-1");
}

TEST(ServeProtocolTest, SubscribeRefusesMovementWithoutThreshold) {
  expect_subscribe_refused("\"movement\":true,\"miss_threshold_lines\":0");
}

TEST(ServeProtocolTest, SessionNameMayArriveUnicodeEscaped) {
  // Python's json.dumps escapes non-ASCII by default.
  Server server;
  const Value opened = parse_line(server.handle(
      "{\"id\":1,\"method\":\"open_program\",\"params\":{\"session\":"
      "\"caf\\u00e9\",\"workload\":\"hdiff\",\"binding\":{\"I\":8,\"J\":8,"
      "\"K\":5}}}"));
  ASSERT_TRUE(opened.has("result")) << dmv::json::dump(opened);
  // The same session, named in raw UTF-8.
  const Value stepped =
      parse_line(server.handle(step_request("caf\xc3\xa9", "K", 6)));
  ASSERT_TRUE(stepped.has("result")) << dmv::json::dump(stepped);
  EXPECT_EQ(stepped.at("result").at("served_by").as_string(), "compute");
}

TEST(ServeProtocolTest, EditProgramSwitchesVariants) {
  Server server;
  server.handle(open_request("a", "hdiff"));
  const Value baseline = parse_line(server.handle(step_request("a", "K", 6)));
  const Value edited =
      parse_line(server.handle(edit_request("a", "hdiff_reordered")));
  ASSERT_TRUE(edited.has("result")) << dmv::json::dump(edited);
  EXPECT_EQ(edited.at("result").at("program").as_string(), "hdiff_reordered");
  const Value reordered = parse_line(server.handle(step_request("a", "K", 6)));
  ASSERT_TRUE(reordered.has("result"));
  // Different program version, same binding: a fresh computation, and
  // the artifact is keyed by the new content hash.
  EXPECT_EQ(reordered.at("result").at("served_by").as_string(), "compute");
  EXPECT_EQ(baseline.at("result").at("executions").as_int(),
            reordered.at("result").at("executions").as_int());
}

// ---------------------------------------------------------------------
// Cross-session sharing.

TEST(ServeSharedCacheTest, SecondSessionHitsSharedTier) {
  Server server;
  server.handle(open_request("alice", "hdiff"));
  server.handle(open_request("bob", "hdiff"));

  const Value first = parse_line(server.handle(step_request("alice", "K", 6)));
  EXPECT_EQ(first.at("result").at("served_by").as_string(), "compute");

  const Value second = parse_line(server.handle(step_request("bob", "K", 6)));
  EXPECT_EQ(second.at("result").at("served_by").as_string(), "shared_cache");
  EXPECT_EQ(second.at("result").at("checksum").as_string(),
            first.at("result").at("checksum").as_string());

  // The hit is visible in both accounting layers.
  const Value stats = parse_line(server.handle(
      "{\"id\":9,\"method\":\"stats\",\"params\":{\"session\":\"bob\"}}"));
  EXPECT_GT(stats.at("result").at("session").at("shared_hits").as_int(), 0);
  EXPECT_GT(stats.at("result").at("shared_cache").at("hits").as_int(), 0);
  EXPECT_GT(server.shared_cache_stats().hits, 0);

  // The per-phase pipeline breakdown is serialized alongside the cache
  // counters. alice computed, so her stats carry the evaluation.
  const Value alice = parse_line(server.handle(
      "{\"id\":10,\"method\":\"stats\",\"params\":{\"session\":\"alice\"}}"));
  const Value& session = alice.at("result").at("session");
  EXPECT_GE(session.at("simulate_ms").as_number() +
                session.at("metrics_ms").as_number(),
            0.0);
  EXPECT_GE(session.at("metric_partitions").as_int(), 1);
}

TEST(ServeSharedCacheTest, NamedAndInlineOpensShareEntries) {
  Server server;
  const Value named = parse_line(server.handle(open_request("a", "hdiff")));
  const Value inlined = parse_line(server.handle(
      "{\"id\":1,\"method\":\"open_program\",\"params\":{\"session\":\"b\","
      "\"sdfg\":" +
      dmv::ir::to_json(
          dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline)) +
      ",\"binding\":{\"I\":8,\"J\":8,\"K\":5}}}"));
  ASSERT_TRUE(named.has("result")) << dmv::json::dump(named);
  ASSERT_TRUE(inlined.has("result")) << dmv::json::dump(inlined);
  const std::string hash = named.at("result").at("program_hash").as_string();
  EXPECT_EQ(inlined.at("result").at("program_hash").as_string(), hash);

  // One program, one key: b is served what a computed.
  const Value first = parse_line(server.handle(step_request("a", "K", 6)));
  EXPECT_EQ(first.at("result").at("served_by").as_string(), "compute");
  const Value second = parse_line(server.handle(step_request("b", "K", 6)));
  EXPECT_EQ(second.at("result").at("served_by").as_string(), "shared_cache");
  EXPECT_EQ(second.at("result").at("checksum").as_string(),
            first.at("result").at("checksum").as_string());

  // The server builds hdiff once; every later open or edit copies it.
  const Value reopened = parse_line(server.handle(open_request("c", "hdiff")));
  EXPECT_EQ(reopened.at("result").at("program_hash").as_string(), hash);
  const Value away =
      parse_line(server.handle(edit_request("a", "hdiff_reordered")));
  EXPECT_NE(away.at("result").at("program_hash").as_string(), hash);
  const Value back = parse_line(server.handle(edit_request("a", "hdiff")));
  EXPECT_EQ(back.at("result").at("program_hash").as_string(), hash);
}

// ---------------------------------------------------------------------
// Concurrency: bit-identity, coalescing, graceful shutdown.

/// A K drag on hdiff opened at I = J = `ij`, K = 5.
struct Drag {
  std::int64_t ij;
  std::vector<std::int64_t> values;
};

/// A short drag with revisits, and a longer one at I = J = 16 that goes
/// up, partly back and further up.
std::vector<Drag> drags() {
  return {{8, {6, 7, 8, 9, 6, 8}},
          {16, {6, 7, 8, 9, 10, 9, 8, 11, 12, 10, 7, 13}}};
}

/// N client threads, each with its own session, drag the same slider
/// sequence with interleaved steps. Every response checksum must equal
/// the serial single-session reference, the coalescing invariant must
/// hold (exactly one "compute" per distinct binding, process-wide), and
/// the shared tier must serve steps across sessions.
void run_concurrent_drag(int threads_knob, const Drag& drag) {
  dmv::par::ThreadScope scope(threads_knob);
  const std::vector<std::int64_t>& values = drag.values;
  const std::vector<std::string> reference =
      reference_checksums(values, drag.ij);
  const std::set<std::int64_t> distinct(values.begin(), values.end());

  Server server;
  constexpr int kClients = 8;
  for (int c = 0; c < kClients; ++c) {
    const Value opened = parse_line(server.handle(
        open_request("client" + std::to_string(c), "hdiff", drag.ij)));
    ASSERT_TRUE(opened.has("result"));
  }

  std::vector<std::vector<std::string>> checksums(kClients);
  std::atomic<int> computes{0};
  std::atomic<int> shared_steps{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string session = "client" + std::to_string(c);
      for (const std::int64_t value : values) {
        const Value response =
            parse_line(server.handle(step_request(session, "K", value)));
        ASSERT_TRUE(response.has("result")) << dmv::json::dump(response);
        checksums[c].push_back(
            response.at("result").at("checksum").as_string());
        const std::string& served_by =
            response.at("result").at("served_by").as_string();
        if (served_by == "compute") {
          computes.fetch_add(1, std::memory_order_relaxed);
        }
        if (served_by == "shared_cache") {
          shared_steps.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  // Bit-identity: every client saw exactly the serial reference.
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(checksums[c], reference) << "client " << c;
  }
  // Coalescing invariant: one simulation per distinct binding — no
  // matter the interleaving, every other request was served by a cache
  // tier or waited on the leader's flight.
  EXPECT_EQ(computes.load(), static_cast<int>(distinct.size()));
  const dmv::serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.steps, static_cast<std::int64_t>(kClients * values.size()));
  EXPECT_LT(stats.coalesced, stats.steps);
  EXPECT_GT(server.shared_cache_stats().hits, 0);
  EXPECT_GT(shared_steps.load(), 0);
}

TEST(ServeDeterminismTest, ConcurrentClientsBitIdenticalSerialPool) {
  for (const Drag& drag : drags()) run_concurrent_drag(1, drag);
}

TEST(ServeDeterminismTest, ConcurrentClientsBitIdenticalParallelPool) {
  for (const Drag& drag : drags()) run_concurrent_drag(4, drag);
}

TEST(ServeDeterminismTest, FailingFlightLeaderReleasesEveryFollower) {
  // Every client steps onto one key whose evaluation throws (I = -10
  // makes an extent non-positive). Whoever leads the flight fails; the
  // followers it releases evaluate and fail on their own. Nobody may
  // hang, and every client gets its own error.
  dmv::par::ThreadScope scope(4);
  Server server;
  constexpr int kClients = 6;
  for (int c = 0; c < kClients; ++c) {
    server.handle(open_request("client" + std::to_string(c), "hdiff"));
  }
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> ready{0};
    std::vector<std::string> responses(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const std::string request =
            "{\"id\":" + std::to_string(c) +
            ",\"method\":\"step\",\"params\":{\"session\":\"client" +
            std::to_string(c) +
            "\",\"binding\":{\"I\":-10,\"J\":8,\"K\":" +
            std::to_string(4 + round) + "}}}";
        ready.fetch_add(1);
        while (ready.load() < kClients) std::this_thread::yield();
        responses[c] = server.handle(request);
      });
    }
    for (std::thread& client : clients) client.join();
    for (int c = 0; c < kClients; ++c) {
      const Value response = parse_line(responses[c]);
      ASSERT_TRUE(response.has("error")) << responses[c];
      EXPECT_EQ(response.at("id").as_int(), c);
      EXPECT_EQ(response.at("error").at("code").as_string(), "bad_binding");
    }
  }
  EXPECT_EQ(server.stats().errors, kClients * kRounds);

  // The failed key left nothing behind: a valid step computes, and
  // matches a lone session.
  const Value good = parse_line(server.handle(
      "{\"id\":9,\"method\":\"step\",\"params\":{\"session\":\"client0\","
      "\"binding\":{\"I\":8,\"J\":8,\"K\":6}}}"));
  ASSERT_TRUE(good.has("result")) << dmv::json::dump(good);
  EXPECT_EQ(good.at("result").at("served_by").as_string(), "compute");
  EXPECT_EQ(good.at("result").at("checksum").as_string(),
            reference_checksums({6}).front());
}

TEST(ServeDeterminismTest, PoolBusyFallbackKeepsResultsIdentical) {
  // Two threads race whole parallel jobs; whichever finds the pool busy
  // degrades to serial inline and must produce the same sum.
  dmv::par::ThreadScope scope(4);
  const std::size_t n = 1 << 14;
  auto sum_squares = [&] {
    return dmv::par::parallel_reduce<std::int64_t>(
        n, 128, 0,
        [](std::size_t begin, std::size_t end) {
          std::int64_t sum = 0;
          for (std::size_t i = begin; i < end; ++i) {
            sum += static_cast<std::int64_t>(i * i);
          }
          return sum;
        },
        [](std::int64_t& into, std::int64_t part) { into += part; });
  };
  const std::int64_t expected = sum_squares();
  std::vector<std::int64_t> results(8, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int repeat = 0; repeat < 16; ++repeat) results[t] = sum_squares();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::int64_t result : results) EXPECT_EQ(result, expected);
}

TEST(ServeShutdownTest, GracefulWithInFlightRequests) {
  Server server;
  server.handle(open_request("a", "hdiff"));
  std::vector<std::string> responses(4);
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      responses[t] = server.handle(step_request("a", "K", 6 + t));
    });
  }
  server.shutdown();  // Must drain in-flight requests, then return.
  for (std::thread& client : clients) client.join();
  for (const std::string& line : responses) {
    const Value response = parse_line(line);
    // Every request either completed normally (admitted before the
    // shutdown) or was cleanly rejected — never dropped or corrupted.
    if (response.has("error")) {
      EXPECT_EQ(response.at("error").at("code").as_string(), "shutting_down");
    } else {
      EXPECT_TRUE(response.has("result"));
    }
  }
  EXPECT_TRUE(server.shutting_down());
  const Value rejected = parse_line(server.handle(step_request("a", "K", 20)));
  EXPECT_EQ(rejected.at("error").at("code").as_string(), "shutting_down");
}

// ---------------------------------------------------------------------
// The shared JSON module's writer (the parser is exercised by every
// protocol test and by the SDFG reader suite).

TEST(ServeJsonTest, DumpIsCanonicalAndRoundTrips) {
  Value object = Value::make_object();
  object["zeta"] = Value::of(std::int64_t{1} << 52);
  object["alpha"] = Value::of("line\nbreak \"quoted\"");
  object["mid"] = Value::make_array();
  object["mid"].push(Value::of(true));
  object["mid"].push(Value::null());
  object["mid"].push(Value::of(2.5));
  const std::string text = dmv::json::dump(object);
  // Keys sorted, integral doubles without fraction, escapes intact.
  EXPECT_EQ(text,
            "{\"alpha\":\"line\\nbreak \\\"quoted\\\"\","
            "\"mid\":[true,null,2.5],\"zeta\":4503599627370496}");
  const Value reparsed = dmv::json::parse(text);
  EXPECT_EQ(dmv::json::dump(reparsed), text);
  EXPECT_EQ(reparsed.at("zeta").as_int(), std::int64_t{1} << 52);
}

}  // namespace
