// Tests for the observability subsystem (src/obs): the JSON helpers, the
// counter registry, and TraceWriter -- including the contract the docs
// promise: every emitted line is valid JSON, run_start precedes all
// iteration events, counter merge is associative, and a disabled trace
// emits nothing.
#include <gtest/gtest.h>
#include <omp.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "netalign/belief_prop.hpp"
#include "netalign/klau_mr.hpp"
#include "netalign/squares.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace netalign {
namespace {

using obs::Counters;
using obs::JsonValue;
using obs::parse_json;
using obs::TraceWriter;

// --- JSON ----------------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructure) {
  const JsonValue v = parse_json(R"({"a":[1,2,{"b":"c"}],"d":{"e":null}})");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[2].find("b")->as_string(), "c");
  EXPECT_TRUE(v.find("d")->find("e")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ObjectsPreserveKeyOrder) {
  const JsonValue v = parse_json(R"({"z":1,"a":2,"m":3})");
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_EQ(v.members()[2].first, "m");
}

TEST(Json, StringEscapesRoundTrip) {
  std::string line;
  obs::append_json_string(line, "quote\" back\\ tab\tnl\n ctrl\x01");
  const JsonValue v = parse_json(line);
  EXPECT_EQ(v.as_string(), "quote\" back\\ tab\tnl\n ctrl\x01");
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  std::string line;
  obs::append_json_number(line, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(parse_json(line).is_null());
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
  EXPECT_THROW(parse_json("{} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json("nul"), std::runtime_error);
}

TEST(Json, TryParseReportsFailureWithoutThrowing) {
  JsonValue v;
  EXPECT_TRUE(try_parse_json("{\"a\": 1}", v));
  EXPECT_EQ(v.find("a")->as_number(), 1.0);
  // A line cut mid-object -- the shape a SIGKILLed TraceWriter leaves
  // behind -- must report false, not throw.
  EXPECT_FALSE(try_parse_json("{\"event\":\"iteration\",\"it", v));
  EXPECT_FALSE(try_parse_json("", v));
}

// --- Counters ------------------------------------------------------------

TEST(Counters, AccumulatesAndPreservesOrder) {
  Counters c;
  c.add("b", 2);
  c.add("a");
  c.add("b", 3);
  EXPECT_EQ(c.total("b"), 5);
  EXPECT_EQ(c.total("a"), 1);
  EXPECT_EQ(c.total("missing"), 0);
  ASSERT_EQ(c.names().size(), 2u);
  EXPECT_EQ(c.names()[0], "b");
  EXPECT_EQ(c.names()[1], "a");
}

TEST(Counters, MergeIsAssociative) {
  auto fill = [](Counters& c, std::int64_t base) {
    c.add("x", base);
    c.add("y", base * 2);
  };
  Counters a1, b1, c1;
  fill(a1, 1);
  fill(b1, 10);
  fill(c1, 100);
  a1.merge(b1);
  a1.merge(c1);  // (a + b) + c

  Counters a2, b2, c2;
  fill(a2, 1);
  fill(b2, 10);
  fill(c2, 100);
  b2.merge(c2);
  a2.merge(b2);  // a + (b + c)

  ASSERT_EQ(a1.names(), a2.names());
  for (const auto& name : a1.names()) {
    EXPECT_EQ(a1.total(name), a2.total(name));
  }
}

TEST(Counters, AddConcurrentSumsUnderThreads) {
  Counters c;
  constexpr int kPerThread = 1000;
#pragma omp parallel
  {
#pragma omp for
    for (int i = 0; i < 8 * kPerThread; ++i) {
      c.add_concurrent("hits");
    }
  }
  EXPECT_EQ(c.total("hits"), 8 * kPerThread);
}

TEST(Counters, ClearEmpties) {
  Counters c;
  c.add("a", 5);
  EXPECT_FALSE(c.empty());
  c.clear();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.total("a"), 0);
}

// --- TraceWriter ---------------------------------------------------------

/// Tiny 4-vertex problem (the quickstart instance) for solver traces.
NetAlignProblem tiny_problem() {
  NetAlignProblem p;
  const std::vector<std::pair<vid_t, vid_t>> ea = {{0, 1}, {1, 2}, {2, 3},
                                                   {3, 0}};
  const std::vector<std::pair<vid_t, vid_t>> eb = {{0, 1}, {1, 2}, {2, 3}};
  const std::vector<LEdge> el = {
      {0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}, {3, 3, 1.0}, {0, 2, 1.5}};
  p.A = Graph::from_edges(4, ea);
  p.B = Graph::from_edges(4, eb);
  p.L = BipartiteGraph::from_edges(4, 4, el);
  p.alpha = 1.0;
  p.beta = 2.0;
  p.name = "tiny";
  return p;
}

std::vector<JsonValue> parse_lines(const std::string& text) {
  std::vector<JsonValue> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(parse_json(line));
  }
  return out;
}

TEST(TraceWriter, EveryLineParsesAndRunStartPrecedesIterations) {
  const NetAlignProblem p = tiny_problem();
  const SquaresMatrix S = SquaresMatrix::build(p);

  std::ostringstream sink;
  TraceWriter trace(&sink);
  ASSERT_TRUE(trace.enabled());

  trace.run_start("belief_prop", {{"problem", p.name}, {"iters", 5}});
  BeliefPropOptions opt;
  opt.max_iterations = 5;
  opt.trace = &trace;
  const AlignResult r = belief_prop_align(p, S, opt);
  trace.run_end(r.total_seconds, r.value.objective, r.best_iteration);

  const auto events = parse_lines(sink.str());
  ASSERT_GE(events.size(), 7u);  // run_start + 5 iterations + run_end

  std::int64_t run_start_seq = -1;
  std::vector<std::int64_t> iteration_seqs;
  int iterations = 0, rounds = 0, run_ends = 0;
  for (const auto& e : events) {
    ASSERT_TRUE(e.is_object());
    const std::string& kind = e.find("event")->as_string();
    const auto seq = static_cast<std::int64_t>(e.find("seq")->as_number());
    if (kind == "run_start") run_start_seq = seq;
    if (kind == "iteration") {
      ++iterations;
      iteration_seqs.push_back(seq);
      // Per-iteration step seconds are present and named.
      const JsonValue* steps = e.find("steps");
      ASSERT_NE(steps, nullptr);
      EXPECT_TRUE(steps->is_object());
      EXPECT_FALSE(steps->members().empty());
    }
    if (kind == "round") ++rounds;
    if (kind == "run_end") ++run_ends;
  }
  EXPECT_EQ(iterations, 5);
  EXPECT_EQ(rounds, 2 * 5);  // y and z each iteration at batch 1
  EXPECT_EQ(run_ends, 1);
  ASSERT_GE(run_start_seq, 0);
  for (const auto seq : iteration_seqs) EXPECT_GT(seq, run_start_seq);
}

TEST(TraceWriter, RunStartCarriesMetadata) {
  std::ostringstream sink;
  TraceWriter trace(&sink);
  trace.run_start("klau_mr");
  const auto events = parse_lines(sink.str());
  ASSERT_EQ(events.size(), 1u);
  const JsonValue& e = events[0];
  EXPECT_EQ(e.find("method")->as_string(), "klau_mr");
  EXPECT_GE(e.find("threads")->as_number(), 1.0);
  EXPECT_FALSE(e.find("omp_schedule")->as_string().empty());
  EXPECT_FALSE(e.find("git_sha")->as_string().empty());
}

TEST(TraceWriter, MrIterationsCarryObjectiveAndBound) {
  const NetAlignProblem p = tiny_problem();
  const SquaresMatrix S = SquaresMatrix::build(p);
  std::ostringstream sink;
  TraceWriter trace(&sink);
  KlauMrOptions opt;
  opt.max_iterations = 3;
  opt.trace = &trace;
  klau_mr_align(p, S, opt);
  int iterations = 0;
  for (const auto& e : parse_lines(sink.str())) {
    if (e.find("event")->as_string() != "iteration") continue;
    ++iterations;
    ASSERT_NE(e.find("objective"), nullptr);
    ASSERT_NE(e.find("upper_bound"), nullptr);
    // The relaxation's invariant: bound at or above the rounded objective.
    EXPECT_GE(e.find("upper_bound")->as_number(),
              e.find("objective")->as_number() - 1e-9);
  }
  EXPECT_EQ(iterations, 3);
}

TEST(TraceWriter, RunEndEmbedsCounters) {
  const NetAlignProblem p = tiny_problem();
  const SquaresMatrix S = SquaresMatrix::build(p);
  std::ostringstream sink;
  TraceWriter trace(&sink);
  Counters counters;
  BeliefPropOptions opt;
  opt.max_iterations = 2;
  opt.trace = &trace;
  opt.counters = &counters;
  const AlignResult r = belief_prop_align(p, S, opt);
  trace.run_end(r.total_seconds, r.value.objective, r.best_iteration,
                &counters);
  EXPECT_GT(counters.total("bp.message_updates"), 0);
  bool saw_counters = false;
  for (const auto& e : parse_lines(sink.str())) {
    if (e.find("event")->as_string() != "run_end") continue;
    const JsonValue* c = e.find("counters");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(static_cast<std::int64_t>(
                  c->find("bp.message_updates")->as_number()),
              counters.total("bp.message_updates"));
    saw_counters = true;
  }
  EXPECT_TRUE(saw_counters);
}

TEST(TraceWriter, RunEndCarriesExtraFields) {
  std::ostringstream sink;
  TraceWriter trace(&sink);
  trace.run_start("belief_prop");
  trace.run_end(1.5, 2.0, 3, nullptr,
                {{"stopped_reason", "deadline"}, {"iterations_completed", 7}});
  bool saw = false;
  for (const auto& e : parse_lines(sink.str())) {
    if (e.find("event")->as_string() != "run_end") continue;
    EXPECT_EQ(e.find("stopped_reason")->as_string(), "deadline");
    EXPECT_EQ(e.find("iterations_completed")->as_number(), 7.0);
    saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST(TraceWriter, DisabledWriterEmitsNothing) {
  const NetAlignProblem p = tiny_problem();
  const SquaresMatrix S = SquaresMatrix::build(p);
  TraceWriter trace(static_cast<std::ostream*>(nullptr));
  EXPECT_FALSE(trace.enabled());
  EXPECT_FALSE(TraceWriter(TraceWriter::LineSink{}).enabled());
  trace.run_start("belief_prop");
  BeliefPropOptions opt;
  opt.max_iterations = 3;
  opt.trace = &trace;  // inert: every emit is a no-op
  const AlignResult r = belief_prop_align(p, S, opt);
  trace.run_end(r.total_seconds, r.value.objective, r.best_iteration);
  EXPECT_GT(r.value.objective, 0.0);
}

TEST(TraceWriter, TracedAndUntracedRunsAgree) {
  const NetAlignProblem p = tiny_problem();
  const SquaresMatrix S = SquaresMatrix::build(p);
  BeliefPropOptions opt;
  opt.max_iterations = 10;
  const AlignResult plain = belief_prop_align(p, S, opt);

  std::ostringstream sink;
  TraceWriter trace(&sink);
  opt.trace = &trace;
  const AlignResult traced = belief_prop_align(p, S, opt);
  EXPECT_DOUBLE_EQ(plain.value.objective, traced.value.objective);
  EXPECT_EQ(plain.matching.cardinality, traced.matching.cardinality);
}

TEST(TraceWriter, UnopenablePathThrows) {
  EXPECT_THROW(TraceWriter("/nonexistent-dir-xyz/trace.jsonl"),
               std::runtime_error);
}

/// Emit one of every event kind through `trace`.
void emit_every_kind(TraceWriter& trace) {
  Counters counters;
  counters.add("ops", 3);
  StepTimers steps;
  steps.add("matching", 0.25);
  trace.run_start("bp", {{"problem", "tiny"}, {"iters", 2}});
  trace.iteration(1, 0.99, steps, {{"objective", 1.5}});
  trace.round(1, "approx", 4, 3.5, 2.0, 7.5);
  trace.event("checkpoint", {{"iter", 1}, {"path", "a \"quoted\" path"}});
  trace.run_end(0.5, 7.5, 1, &counters, {{"stopped_reason", "completed"}});
}

/// `line` with its "ts" value blanked: the only field two writers fed the
/// same events may disagree on.
std::string without_ts(std::string line) {
  const std::size_t from = line.find(",\"ts\":");
  const std::size_t to = line.find(",\"seq\":");
  if (from != std::string::npos && to != std::string::npos) {
    line.erase(from, to - from);
  }
  return line;
}

TEST(TraceWriter, SinkAndFileWritersProduceTheSameLines) {
  std::vector<std::string> sunk;
  TraceWriter to_sink(
      [&sunk](std::string&& line) { sunk.push_back(std::move(line)); });
  ASSERT_TRUE(to_sink.enabled());
  emit_every_kind(to_sink);

  const std::string path = ::testing::TempDir() + "sink_vs_file.jsonl";
  {
    TraceWriter to_file(path);
    emit_every_kind(to_file);
  }
  std::ifstream in(path);
  std::vector<std::string> filed;
  for (std::string line; std::getline(in, line);) filed.push_back(line);
  std::remove(path.c_str());

  ASSERT_EQ(sunk.size(), 5u);
  ASSERT_EQ(filed.size(), sunk.size());
  for (std::size_t i = 0; i < sunk.size(); ++i) {
    EXPECT_EQ(sunk[i].find('\n'), std::string::npos) << "line " << i;
    EXPECT_EQ(without_ts(sunk[i]), without_ts(filed[i])) << "line " << i;
    EXPECT_NO_THROW((void)parse_json(sunk[i])) << sunk[i];
  }
}

TEST(RunMetadata, ReportsSaneEnvironment) {
  const obs::RunMetadata meta = obs::run_metadata();
  EXPECT_GE(meta.max_threads, 1);
  EXPECT_FALSE(meta.omp_schedule.empty());
  EXPECT_GT(meta.omp_version, 0);
  EXPECT_FALSE(meta.git_sha.empty());
}

}  // namespace
}  // namespace netalign
