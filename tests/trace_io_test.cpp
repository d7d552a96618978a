#include "dmv/sim/trace_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "dmv/sim/pipeline.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::sim {
namespace {

TEST(TraceIo, RoundTripPreservesEverything) {
  ir::Sdfg sdfg = workloads::matmul();
  AccessTrace original = simulate(sdfg, workloads::matmul_fig5());
  AccessTrace restored = trace_from_string(trace_to_string(original));

  ASSERT_EQ(restored.containers, original.containers);
  ASSERT_EQ(restored.layouts.size(), original.layouts.size());
  for (std::size_t c = 0; c < original.layouts.size(); ++c) {
    EXPECT_EQ(restored.layouts[c].shape, original.layouts[c].shape);
    EXPECT_EQ(restored.layouts[c].strides, original.layouts[c].strides);
    EXPECT_EQ(restored.layouts[c].element_size,
              original.layouts[c].element_size);
    EXPECT_EQ(restored.layouts[c].base_address,
              original.layouts[c].base_address);
  }
  ASSERT_EQ(restored.events.size(), original.events.size());
  for (std::size_t i = 0; i < original.events.size(); ++i) {
    EXPECT_EQ(restored.events[i].container, original.events[i].container);
    EXPECT_EQ(restored.events[i].flat, original.events[i].flat);
    EXPECT_EQ(restored.events[i].is_write, original.events[i].is_write);
    EXPECT_EQ(restored.events[i].execution, original.events[i].execution);
  }
}

TEST(TraceIo, AnalysesAgreeOnRestoredTrace) {
  // The whole point of the import path (§VIII-d): an external trace runs
  // through the same analyses with identical results.
  ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  AccessTrace original = simulate(sdfg, workloads::hdiff_local());
  AccessTrace restored = trace_from_string(trace_to_string(original));

  MetricPipeline pipeline(PipelineConfig{
      .counts = false, .miss_threshold_lines = 8, .keep_distances = true});
  const PipelineResult from_original = pipeline.run(original);
  const PipelineResult from_restored = pipeline.run(restored);
  EXPECT_EQ(from_original.distances.distances,
            from_restored.distances.distances);
  EXPECT_EQ(from_original.misses.total.misses(),
            from_restored.misses.total.misses());
}

TEST(TraceIo, HandWrittenExternalTrace) {
  // The format an instrumentation tool would emit directly.
  const char* text =
      "dmvtrace 1\n"
      "container buffer 4 0 4 4 ; 4 1\n"
      "events\n"
      "0 0 0 r 0 -1\n"
      "1 0 5 w 0 -1\n"
      "2 0 0 r 1 -1\n";
  AccessTrace trace = trace_from_string(text);
  ASSERT_EQ(trace.containers.size(), 1u);
  EXPECT_EQ(trace.layouts[0].shape, (std::vector<std::int64_t>{4, 4}));
  ASSERT_EQ(trace.events.size(), 3u);
  EXPECT_TRUE(trace.events[1].is_write);
  EXPECT_EQ(trace.executions, 2);
  AccessCounts counts = MetricPipeline().run(trace).counts;
  EXPECT_EQ(counts.reads[0][0], 2);
  EXPECT_EQ(counts.writes[0][5], 1);
}

TEST(TraceIo, HostileContainerNamesRoundTrip) {
  // Names with whitespace or backslashes must survive the
  // space-delimited header via escaping (`\s`, `\t`, `\n`, `\r`, `\\`,
  // `\e` for the empty name).
  AccessTrace original;
  const std::vector<std::string> names = {
      "plain",        "two words",   "tab\there",   "new\nline",
      "carriage\rret", "back\\slash", "",            " lead and trail ",
      "mix \\ \t all\n"};
  for (std::size_t c = 0; c < names.size(); ++c) {
    ConcreteLayout layout;
    layout.name = names[c];
    layout.element_size = 8;
    layout.base_address = static_cast<std::int64_t>(c) * 1024;
    layout.shape = {4};
    layout.strides = {1};
    original.containers.push_back(layout.name);
    original.layouts.push_back(std::move(layout));
    AccessEvent event;
    event.container = static_cast<std::int32_t>(c);
    event.flat = static_cast<std::int64_t>(c % 4);
    event.is_write = c % 2 == 0;
    event.execution = 0;
    original.events.push_back(event);
  }
  original.executions = 1;

  const std::string text = trace_to_string(original);
  // Header lines must stay single-line: escaping removed raw newlines.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            1 + names.size() + 1 + original.events.size());

  AccessTrace restored = trace_from_string(text);
  EXPECT_EQ(restored.containers, original.containers);
  ASSERT_EQ(restored.layouts.size(), original.layouts.size());
  for (std::size_t c = 0; c < original.layouts.size(); ++c) {
    EXPECT_EQ(restored.layouts[c].name, original.layouts[c].name);
  }
  ASSERT_EQ(restored.events.size(), original.events.size());
}

TEST(TraceIo, SimpleNamesStayUnescaped) {
  // Pre-escaping writers/readers only ever used bare tokens; names that
  // need no escaping must be emitted verbatim for compatibility.
  AccessTrace trace;
  ConcreteLayout layout;
  layout.name = "buffer";
  layout.element_size = 4;
  layout.base_address = 0;
  layout.shape = {2};
  layout.strides = {1};
  trace.containers.push_back(layout.name);
  trace.layouts.push_back(std::move(layout));
  trace.executions = 0;
  const std::string text = trace_to_string(trace);
  EXPECT_NE(text.find("container buffer 4 0 2 ; 1\n"), std::string::npos)
      << text;
}

TEST(TraceIo, RejectsBadNameEscapes) {
  // Unknown escape.
  EXPECT_THROW(trace_from_string("dmvtrace 1\n"
                                 "container a\\qb 8 0 4 ; 1\n"
                                 "events\n"),
               std::runtime_error);
  // Dangling escape at end of token.
  EXPECT_THROW(trace_from_string("dmvtrace 1\n"
                                 "container a\\ 8 0 4 ; 1\n"
                                 "events\n"),
               std::runtime_error);
  // `\e` only stands alone.
  EXPECT_THROW(trace_from_string("dmvtrace 1\n"
                                 "container a\\eb 8 0 4 ; 1\n"
                                 "events\n"),
               std::runtime_error);
}

TEST(TraceIo, RejectsMalformedInput) {
  EXPECT_THROW(trace_from_string(""), std::runtime_error);
  EXPECT_THROW(trace_from_string("wrong magic\n"), std::runtime_error);
  EXPECT_THROW(trace_from_string("dmvtrace 1\nnonsense\n"),
               std::runtime_error);
  // Missing events section.
  EXPECT_THROW(
      trace_from_string("dmvtrace 1\ncontainer a 8 0 4 ; 1\n"),
      std::runtime_error);
  // Event referencing an unknown container.
  EXPECT_THROW(trace_from_string("dmvtrace 1\n"
                                 "container a 8 0 4 ; 1\n"
                                 "events\n"
                                 "0 3 0 r 0 -1\n"),
               std::runtime_error);
  // Element out of range.
  EXPECT_THROW(trace_from_string("dmvtrace 1\n"
                                 "container a 8 0 4 ; 1\n"
                                 "events\n"
                                 "0 0 9 r 0 -1\n"),
               std::runtime_error);
  // Bad access mode.
  EXPECT_THROW(trace_from_string("dmvtrace 1\n"
                                 "container a 8 0 4 ; 1\n"
                                 "events\n"
                                 "0 0 1 x 0 -1\n"),
               std::runtime_error);
  // Shape/stride rank mismatch.
  EXPECT_THROW(trace_from_string("dmvtrace 1\n"
                                 "container a 8 0 4 4 ; 1\n"
                                 "events\n"),
               std::runtime_error);
  // Extents whose element count overflows int64, and a negative extent.
  EXPECT_THROW(trace_from_string("dmvtrace 1\n"
                                 "container a 8 0 4294967296 4294967296 ; 1 1\n"
                                 "events\n"),
               std::runtime_error);
  EXPECT_THROW(trace_from_string("dmvtrace 1\n"
                                 "container a 8 0 -4 ; 1\n"
                                 "events\n"),
               std::runtime_error);
  // Tasklet id outside int32 (would import as tasklet 1).
  EXPECT_THROW(trace_from_string("dmvtrace 1\n"
                                 "container a 8 0 4 ; 1\n"
                                 "events\n"
                                 "0 0 1 r 0 4294967297\n"),
               std::runtime_error);
  // Byte addresses the metric engine cannot map to lines: a last byte
  // past INT64_MAX, through the base and through the stride, and bytes
  // below address 0, through a negative base and a negative stride.
  for (const char* header : {"container A 8 9223372036854775800 4 ; 1",
                             "container A 8 0 2 ; 4611686018427387904",
                             "container A 8 -64 16 ; 1",
                             "container A 8 64 16 ; -1"}) {
    try {
      trace_from_string(std::string("dmvtrace 1\n") + header +
                        "\nevents\n0 0 1 r 0 -1\n");
      ADD_FAILURE() << "accepted: " << header;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("line 2:"), std::string::npos)
          << header << ": " << error.what();
    }
  }
  const AccessTrace placed = trace_from_string(
      "dmvtrace 1\ncontainer A 8 64 16 ; 1\nevents\n0 0 9 r 0 -1\n");
  EXPECT_EQ(placed.layouts[0].base_address, 64);
  EXPECT_EQ(placed.events.size(), 1u);
  // An event's time must be its index, and an execution id must lie in
  // [0, INT64_MAX): `executions` is the largest id plus one. Events
  // start on line 4.
  const std::pair<const char*, int> bad_events[] = {
      {"7 0 1 r 0 -1\n", 4},
      {"0 0 1 r 0 -1\n0 0 2 w 0 -1\n", 5},
      {"0 0 1 r 0 -1\n2 0 2 w 0 -1\n", 5},
      {"0 0 1 r 9223372036854775807 -1\n", 4},
      {"0 0 1 r -5 -1\n1 0 2 w -5 -1\n", 4},
      {"0 0 1 r 0 -1\n1 0 2 w -1 -1\n", 5},
  };
  for (const auto& [events, line] : bad_events) {
    try {
      trace_from_string(
          std::string("dmvtrace 1\ncontainer a 8 0 4 ; 1\nevents\n") + events);
      ADD_FAILURE() << "accepted: " << events;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what())
                    .find("read_trace: line " + std::to_string(line) + ":"),
                std::string::npos)
          << events << ": " << error.what();
    }
  }
  const AccessTrace largest = trace_from_string(
      "dmvtrace 1\ncontainer a 8 0 4 ; 1\nevents\n"
      "0 0 1 r 9223372036854775806 -1\n");
  EXPECT_EQ(largest.executions, std::numeric_limits<std::int64_t>::max());
}

TEST(TraceIo, ErrorsCarryLineNumbers) {
  try {
    trace_from_string("dmvtrace 1\ncontainer a 8 0 4 ; 1\nevents\nbroken\n");
    FAIL() << "expected failure";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 4"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace dmv::sim
