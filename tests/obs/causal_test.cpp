// CausalRecorder: edge recording semantics and the flow arrows an attached
// tracer draws from it.
#include "obs/causal.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "sim/engine.h"

namespace e10::obs {
namespace {

using namespace e10::units;
using sim::EdgeKind;

TEST(Causal, AttachesAndDetaches) {
  // Engine::emit_edge records only while a recorder is attached, and only
  // from inside a process; otherwise it returns the null token.
  sim::Engine engine;
  std::vector<sim::CausalToken> tokens;
  const auto emit_in_process = [&] {
    engine.spawn("p", [&] {
      tokens.push_back(engine.emit_edge(EdgeKind::message, engine.now()));
    });
    engine.run();
  };
  emit_in_process();
  {
    CausalRecorder recorder(engine);
    emit_in_process();
    EXPECT_EQ(engine.emit_edge(EdgeKind::message, 0), 0u);
  }
  emit_in_process();
  EXPECT_EQ(tokens, (std::vector<sim::CausalToken>{0, 1, 0}));
}

TEST(Causal, EmitReturnsMonotonicTokensAndSourceOfResolves) {
  sim::Engine engine;
  CausalRecorder recorder(engine);
  const sim::CausalToken t1 = recorder.emit(EdgeKind::message, 1, 100, 25);
  const sim::CausalToken t2 = recorder.emit(EdgeKind::collective, 2, 200);
  EXPECT_EQ(t1, 1u);
  EXPECT_EQ(t2, 2u);
  ASSERT_EQ(recorder.emissions().size(), 2u);

  recorder.ack(t1, 3, 150);
  ASSERT_EQ(recorder.acks().size(), 1u);
  const CausalRecorder::Emission& src = recorder.source_of(recorder.acks()[0]);
  EXPECT_EQ(src.kind, EdgeKind::message);
  EXPECT_EQ(src.pid, sim::ProcessId{1});
  EXPECT_EQ(src.at, Time{100});
  EXPECT_EQ(src.contended_ns, Time{25});
}

TEST(Causal, SelfSamePositionAcksAreDropped) {
  sim::Engine engine;
  CausalRecorder recorder(engine);
  const sim::CausalToken token = recorder.emit(EdgeKind::grequest, 1, 100);
  // A rank completing its own request wakes nobody: no edge.
  recorder.ack(token, 1, 100);
  EXPECT_TRUE(recorder.acks().empty());
  // Same pid at a later time is a real dependency: the wait moved its
  // clock past the emission.
  recorder.ack(token, 1, 200);
  EXPECT_EQ(recorder.acks().size(), 1u);
  // Unknown and null tokens are ignored.
  recorder.ack(0, 2, 300);
  recorder.ack(99, 2, 300);
  EXPECT_EQ(recorder.acks().size(), 1u);
}

TEST(Causal, DegenerateBridgesAndIntervalsAreDropped) {
  sim::Engine engine;
  CausalRecorder recorder(engine);
  recorder.bridge(EdgeKind::write_join, 1, 100, 100);
  recorder.bridge(EdgeKind::batch_done, 1, 100, 50);
  EXPECT_TRUE(recorder.bridges().empty());
  recorder.bridge(EdgeKind::write_join, 1, 100, 200);
  ASSERT_EQ(recorder.bridges().size(), 1u);
  EXPECT_EQ(recorder.bridges()[0].issue, Time{100});
  EXPECT_EQ(recorder.bridges()[0].done, Time{200});

  recorder.interval(EdgeKind::lock_wait, 1, 100, 100);
  EXPECT_TRUE(recorder.overlays().empty());
  recorder.interval(EdgeKind::lock_wait, 1, 100, 150);
  EXPECT_EQ(recorder.overlays().size(), 1u);
}

TEST(Causal, CrossPidAcksEmitPairedFlowArrows) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  CausalRecorder recorder(engine, &tracer);

  sim::CausalToken token = 0;
  engine.spawn("a", [&] {
    Span span(&tracer, tracer.rank_track(0), "shuffle_all2all");
    engine.delay(milliseconds(1));
    token = engine.emit_edge(EdgeKind::message, engine.now());
  });
  engine.spawn("b", [&] {
    Span span(&tracer, tracer.rank_track(1), "exchange");
    engine.delay(milliseconds(2));
    engine.ack_edge(token, 0);
  });
  engine.run();

  ASSERT_EQ(recorder.acks().size(), 1u);
  const auto parsed = Json::parse(tracer.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const Json* start = nullptr;
  const Json* finish = nullptr;
  for (const Json& e : parsed.value().at("traceEvents").elements()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "s") start = &e;
    if (ph == "f") finish = &e;
  }
  ASSERT_NE(start, nullptr);
  ASSERT_NE(finish, nullptr);
  EXPECT_EQ(start->at("cat").as_string(), "causal");
  EXPECT_EQ(start->at("id").as_int(), finish->at("id").as_int());
  EXPECT_EQ(finish->at("bp").as_string(), "e");
  EXPECT_EQ(start->at("name").as_string(), "message");
  EXPECT_NE(start->at("tid").as_int(), finish->at("tid").as_int());
  EXPECT_LE(start->at("ts").as_number(), finish->at("ts").as_number());
}

TEST(Causal, AckBeforeFirstSpanStillDrawsItsArrow) {
  // A sync thread's first pickup: it acks the enqueue before it has opened
  // any span, then flushes under a span on its own track. The arrow is drawn
  // between the lanes the two processes' spans are on, whenever those spans
  // were opened. A process that never opens a span has no lane and gets no
  // arrow.
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  CausalRecorder recorder(engine, &tracer);
  const int rank = tracer.rank_track(0);
  const int sync = tracer.track("sync r0 /out/f", 2000);

  sim::CausalToken token = 0;
  engine.spawn("rank", [&] {
    Span span(&tracer, rank, "write_contig");
    engine.delay(milliseconds(1));
    token = engine.emit_edge(EdgeKind::sync_queue, engine.now());
    engine.delay(milliseconds(3));
  });
  engine.spawn("sync", [&] {
    engine.delay(milliseconds(2));
    engine.ack_edge(token, 0);
    Span span(&tracer, sync, "flush_batch");
    engine.delay(milliseconds(1));
  });
  engine.spawn("laneless", [&] {
    engine.delay(milliseconds(2));
    engine.ack_edge(token, 0);
  });
  engine.run();

  ASSERT_EQ(recorder.acks().size(), 2u);
  const auto parsed = Json::parse(tracer.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  std::vector<const Json*> starts;
  std::vector<const Json*> finishes;
  for (const Json& e : parsed.value().at("traceEvents").elements()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "s") starts.push_back(&e);
    if (ph == "f") finishes.push_back(&e);
  }
  ASSERT_EQ(starts.size(), 1u);
  ASSERT_EQ(finishes.size(), 1u);
  EXPECT_EQ(starts[0]->at("name").as_string(), "sync_queue");
  EXPECT_EQ(finishes[0]->at("name").as_string(), "sync_queue");
  EXPECT_EQ(starts[0]->at("id").as_int(), static_cast<std::int64_t>(token));
  EXPECT_EQ(finishes[0]->at("id").as_int(), static_cast<std::int64_t>(token));
  EXPECT_EQ(starts[0]->at("tid").as_int(), rank);
  EXPECT_EQ(finishes[0]->at("tid").as_int(), sync);
  EXPECT_DOUBLE_EQ(starts[0]->at("ts").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(finishes[0]->at("ts").as_number(), 2000.0);
}

TEST(Causal, ProcessJoinRecordsFinishEdge) {
  // The engine itself emits a `process` edge when a join had to wait for
  // the joined process to finish.
  sim::Engine engine;
  CausalRecorder recorder(engine);
  auto worker = engine.spawn("worker", [&] { engine.delay(milliseconds(5)); });
  engine.spawn("joiner", [&] {
    engine.delay(milliseconds(1));
    worker.join();
  });
  engine.run();

  ASSERT_FALSE(recorder.emissions().empty());
  bool process_edge_acked = false;
  for (const CausalRecorder::Ack& ack : recorder.acks()) {
    if (recorder.source_of(ack).kind == EdgeKind::process) {
      process_edge_acked = true;
      EXPECT_EQ(ack.at, milliseconds(5));
    }
  }
  EXPECT_TRUE(process_edge_acked);
}

TEST(Causal, ClearResetsAllState) {
  sim::Engine engine;
  CausalRecorder recorder(engine);
  const sim::CausalToken token = recorder.emit(EdgeKind::message, 1, 100);
  recorder.ack(token, 2, 200);
  recorder.bridge(EdgeKind::write_join, 1, 0, 50);
  recorder.interval(EdgeKind::lock_wait, 1, 0, 50);
  recorder.clear();
  EXPECT_TRUE(recorder.emissions().empty());
  EXPECT_TRUE(recorder.acks().empty());
  EXPECT_TRUE(recorder.bridges().empty());
  EXPECT_TRUE(recorder.overlays().empty());
}

}  // namespace
}  // namespace e10::obs
