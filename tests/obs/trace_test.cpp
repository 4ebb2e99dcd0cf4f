#include "obs/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "obs/causal.h"
#include "obs/json.h"

namespace e10::obs {
namespace {

using namespace e10::units;

TEST(Trace, DisabledTracerRecordsNothing) {
  sim::Engine engine;
  Tracer tracer(engine);
  ASSERT_FALSE(tracer.enabled());
  {
    Span span(&tracer, tracer.rank_track(0), "write");
    span.arg("bytes", 42);
    EXPECT_FALSE(span.active());
  }
  tracer.counter("depth", 3);
  tracer.instant(0, "marker");
  EXPECT_EQ(tracer.events(), 0u);
}

TEST(Trace, NestedSpansOnDistinctTracks) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  engine.spawn("rank0", [&] {
    Span outer(&tracer, tracer.rank_track(0), "exchange");
    engine.delay(milliseconds(2));
    {
      Span inner(&tracer, tracer.rank_track(0), "write_contig");
      inner.arg("bytes", 4096);
      engine.delay(milliseconds(1));
    }
    engine.delay(milliseconds(2));
  });
  engine.spawn("rank1", [&] {
    Span span(&tracer, tracer.rank_track(1), "exchange");
    engine.delay(milliseconds(3));
  });
  engine.run();
  EXPECT_EQ(tracer.events(), 3u);
  EXPECT_EQ(tracer.track_list().size(), 2u);

  const auto parsed = Json::parse(tracer.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const Json& events = parsed.value().at("traceEvents");
  ASSERT_TRUE(events.is_array());

  // Metadata names both rank tracks; inner span nests inside outer on the
  // same track; rank1 is on a different track.
  int thread_names = 0;
  const Json* outer = nullptr;
  const Json* inner = nullptr;
  const Json* other = nullptr;
  for (const Json& e : events.elements()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M" && e.at("name").as_string() == "thread_name") {
      ++thread_names;
    } else if (ph == "X") {
      const std::string& name = e.at("name").as_string();
      if (name == "exchange" && e.at("tid").as_int() == 0) outer = &e;
      if (name == "write_contig") inner = &e;
      if (name == "exchange" && e.at("tid").as_int() != 0) other = &e;
    }
  }
  EXPECT_GE(thread_names, 2);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(inner->at("tid").as_int(), outer->at("tid").as_int());
  EXPECT_NE(other->at("tid").as_int(), outer->at("tid").as_int());
  // Nesting in time: outer spans [0, 5ms], inner [2ms, 3ms] (microseconds
  // in the JSON).
  EXPECT_GE(inner->at("ts").as_number(), outer->at("ts").as_number());
  EXPECT_LE(inner->at("ts").as_number() + inner->at("dur").as_number(),
            outer->at("ts").as_number() + outer->at("dur").as_number());
  EXPECT_DOUBLE_EQ(outer->at("dur").as_number(), 5000.0);
  EXPECT_EQ(inner->at("args").at("bytes").as_int(), 4096);
}

TEST(Trace, CounterAndInstantEvents) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  const int track = tracer.track("sync", 1000);
  engine.spawn("p", [&] {
    tracer.counter("queue depth", 2);
    engine.delay(milliseconds(1));
    tracer.counter("queue depth", 0);
    tracer.instant(track, "drained");
  });
  engine.run();

  const auto parsed = Json::parse(tracer.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  int counters = 0;
  int instants = 0;
  for (const Json& e : parsed.value().at("traceEvents").elements()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "C" && e.at("name").as_string() == "queue depth") {
      ++counters;
      EXPECT_TRUE(e.at("args").find("value") != nullptr);
    }
    if (ph == "i" && e.at("name").as_string() == "drained") ++instants;
  }
  EXPECT_EQ(counters, 2);
  EXPECT_EQ(instants, 1);
}

TEST(Trace, SpanEndStopsTheClock) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  engine.spawn("p", [&] {
    Span span(&tracer, tracer.rank_track(0), "early");
    engine.delay(milliseconds(1));
    span.end();
    EXPECT_FALSE(span.active());
    engine.delay(milliseconds(9));  // not part of the span
  });
  engine.run();
  const auto parsed = Json::parse(tracer.to_json());
  ASSERT_TRUE(parsed.is_ok());
  for (const Json& e : parsed.value().at("traceEvents").elements()) {
    if (e.at("ph").as_string() == "X") {
      EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 1000.0);
    }
  }
}

TEST(Trace, OpenSpanCounterTracksLifecycle) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  EXPECT_EQ(tracer.open_spans(), 0u);
  engine.spawn("p", [&] {
    Span outer(&tracer, tracer.rank_track(0), "a");
    EXPECT_EQ(tracer.open_spans(), 1u);
    {
      Span inner(&tracer, tracer.rank_track(0), "b");
      EXPECT_EQ(tracer.open_spans(), 2u);
    }
    EXPECT_EQ(tracer.open_spans(), 1u);
    // Moving a span transfers ownership without double-counting.
    Span moved = std::move(outer);
    EXPECT_EQ(tracer.open_spans(), 1u);
    moved.end();
    EXPECT_EQ(tracer.open_spans(), 0u);
  });
  engine.run();
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(Trace, OpenSpanCounterSeesLeaks) {
  // A span destroyed without end() through an error path still closes (the
  // destructor ends it); only a heap-leaked span stays open.
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  auto* leaked = new Span();
  engine.spawn("p", [&] {
    *leaked = Span(&tracer, tracer.rank_track(0), "leaked");
    try {
      Span span(&tracer, tracer.rank_track(0), "unwound");
      throw std::runtime_error("fault");
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(tracer.open_spans(), 1u);  // only the leaked one
  });
  engine.run();
  EXPECT_EQ(tracer.open_spans(), 1u);
  delete leaked;  // Span dtor ends it
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(Trace, FlowEventsArePairedAndOrdered) {
  // Flow arrows are drawn at export from the attached recorder's acks.
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  CausalRecorder recorder(engine, &tracer);
  sim::CausalToken message = 0;
  sim::CausalToken future = 0;
  engine.spawn("src", [&] {
    Span span(&tracer, tracer.rank_track(0), "shuffle_all2all");
    engine.delay(units::milliseconds(1));
    message = engine.emit_edge(sim::EdgeKind::message, engine.now());
    // An emission stamped in the emitter's future, acked before that.
    future = engine.emit_edge(sim::EdgeKind::collective,
                              units::milliseconds(5));
  });
  engine.spawn("dst", [&] {
    Span span(&tracer, tracer.rank_track(1), "exchange");
    engine.delay(units::milliseconds(2));
    engine.ack_edge(message, 0);
    engine.delay(units::milliseconds(1));
    engine.ack_edge(future, 0);
  });
  engine.run();
  ASSERT_EQ(recorder.acks().size(), 2u);

  const auto parsed = Json::parse(tracer.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  std::map<std::int64_t, std::pair<const Json*, const Json*>> pairs;
  for (const Json& e : parsed.value().at("traceEvents").elements()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "s") pairs[e.at("id").as_int()].first = &e;
    if (ph == "f") pairs[e.at("id").as_int()].second = &e;
  }
  ASSERT_EQ(pairs.size(), 2u);
  for (const auto& [id, pair] : pairs) {
    ASSERT_NE(pair.first, nullptr) << "flow " << id << " missing start";
    ASSERT_NE(pair.second, nullptr) << "flow " << id << " missing finish";
    EXPECT_EQ(pair.first->at("cat").as_string(), "causal");
    EXPECT_EQ(pair.second->at("cat").as_string(), "causal");
    EXPECT_EQ(pair.second->at("bp").as_string(), "e");
    EXPECT_TRUE(pair.first->find("bp") == nullptr);
    EXPECT_LE(pair.first->at("ts").as_number(),
              pair.second->at("ts").as_number());
  }
  // Destination timestamps are clamped to the source: Chrome refuses to
  // render arrows that point backwards in time (ack at 3 ms, source 5 ms).
  const auto& late = pairs.at(static_cast<std::int64_t>(future));
  EXPECT_DOUBLE_EQ(late.first->at("ts").as_number(), 5000.0);
  EXPECT_DOUBLE_EQ(late.second->at("ts").as_number(), 5000.0);
}

TEST(Trace, ChromeSchemaIsSane) {
  // Every event type the tracer emits satisfies the Trace Event Format:
  // X spans carry non-negative ts/dur, every event names a known pid/tid
  // pair, and flow starts/finishes come in id-matched pairs.
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  CausalRecorder recorder(engine, &tracer);
  sim::CausalToken token = 0;
  engine.spawn("r0", [&] {
    Span span(&tracer, tracer.rank_track(0), "exchange");
    engine.delay(units::milliseconds(1));
    tracer.counter("depth", 1);
    tracer.instant(tracer.rank_track(0), "mark");
    token = engine.emit_edge(sim::EdgeKind::message, engine.now());
  });
  engine.spawn("r1", [&] {
    Span span(&tracer, tracer.rank_track(1), "write_contig");
    engine.delay(units::milliseconds(2));
    engine.ack_edge(token, 0);
  });
  engine.run();

  const auto parsed = Json::parse(tracer.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  std::set<std::int64_t> named_tids;
  std::map<std::int64_t, int> flow_balance;
  for (const Json& e : parsed.value().at("traceEvents").elements()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M" && e.at("name").as_string() == "thread_name") {
      named_tids.insert(e.at("tid").as_int());
    }
  }
  for (const Json& e : parsed.value().at("traceEvents").elements()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") continue;
    EXPECT_GE(e.at("ts").as_number(), 0.0);
    if (ph == "X") {
      EXPECT_GE(e.at("dur").as_number(), 0.0);
      EXPECT_TRUE(named_tids.count(e.at("tid").as_int()) == 1)
          << "span on unnamed track " << e.at("tid").as_int();
    }
    if (ph == "s") ++flow_balance[e.at("id").as_int()];
    if (ph == "f") --flow_balance[e.at("id").as_int()];
  }
  EXPECT_EQ(flow_balance.size(), 1u);
  for (const auto& [id, balance] : flow_balance) {
    EXPECT_EQ(balance, 0) << "unpaired flow id " << id;
  }
}

TEST(Trace, NamesAreInternedWithPhasesFirst) {
  // A phase's name id is its enum value, and a span named by string shares
  // the id of the phase with that name; the JSON names are unchanged. The
  // names are registered when tracing is first enabled.
  sim::Engine engine;
  Tracer tracer(engine);
  EXPECT_EQ(tracer.names(), 0u);
  tracer.set_enabled(true);
  ASSERT_EQ(tracer.names(), prof::kPhaseCount);
  for (std::size_t p = 0; p < prof::kPhaseCount; ++p) {
    EXPECT_EQ(tracer.name(static_cast<NameId>(p)),
              prof::phase_name(static_cast<prof::Phase>(p)));
  }
  engine.spawn("p", [&] {
    { Span span(&tracer, tracer.rank_track(0), prof::Phase::close); }
    { Span span(&tracer, tracer.rank_track(0), "close"); }
    { Span span(&tracer, tracer.rank_track(0), "compute"); }
    { Span span(&tracer, tracer.rank_track(0), "compute"); }
  });
  engine.run();
  tracer.set_enabled(false);
  tracer.set_enabled(true);  // re-enabling registers nothing twice
  ASSERT_EQ(tracer.events(), 4u);
  EXPECT_EQ(tracer.names(), prof::kPhaseCount + 1);
  const auto& events = tracer.event_list();
  EXPECT_EQ(events[0].name, static_cast<NameId>(prof::Phase::close));
  EXPECT_EQ(events[1].name, static_cast<NameId>(prof::Phase::close));
  EXPECT_EQ(events[2].name, static_cast<NameId>(prof::kPhaseCount));
  EXPECT_EQ(events[3].name, events[2].name);
  EXPECT_EQ(tracer.name(events[2].name), "compute");
  const auto parsed = Json::parse(tracer.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  int closes = 0;
  for (const Json& e : parsed.value().at("traceEvents").elements()) {
    if (e.at("ph").as_string() == "X" && e.at("name").as_string() == "close") {
      ++closes;
    }
  }
  EXPECT_EQ(closes, 2);
}

/// The "X" event lines of a Chrome export, in recording order (the tracer
/// writes one event per line).
std::vector<std::string> span_lines(const std::string& json) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin < json.size()) {
    std::size_t end = json.find('\n', begin);
    if (end == std::string::npos) end = json.size();
    std::string line = json.substr(begin, end - begin);
    if (line.find("\"ph\":\"X\"") != std::string::npos) {
      if (line.back() == ',') line.pop_back();
      out.push_back(std::move(line));
    }
    begin = end + 1;
  }
  return out;
}

TEST(Trace, OuterSpanArgAfterInnerSpanWithArgsClosed) {
  // write_round's shape: the outer span adds an arg after an inner span
  // with its own args has closed; each keeps its own args, in order.
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  engine.spawn("p", [&] {
    Span outer(&tracer, tracer.rank_track(0), "write_round");
    outer.arg("round", 3);
    {
      Span inner(&tracer, tracer.rank_track(0), "write_contig");
      inner.arg("bytes", 4096);
      engine.delay(milliseconds(1));
    }
    outer.arg("send_bytes", 8192);
  });
  engine.run();
  const std::vector<std::string> spans = span_lines(tracer.to_json());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].find(R"("name":"write_contig")"), std::string::npos);
  EXPECT_NE(spans[0].find(R"("args":{"bytes":4096}})"), std::string::npos)
      << spans[0];
  EXPECT_NE(spans[1].find(R"("args":{"round":3,"send_bytes":8192}})"),
            std::string::npos)
      << spans[1];
}

TEST(Trace, InterleavedFibersKeepTheirOwnArgs) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  for (int rank = 0; rank < 2; ++rank) {
    engine.spawn("r" + std::to_string(rank), [&tracer, &engine, rank] {
      Span span(&tracer, tracer.rank_track(rank), "exchange");
      span.arg("first", rank);
      engine.delay(milliseconds(1 + rank));  // the other fiber adds its args
      span.arg("second", 10 + rank);
      engine.delay(milliseconds(2));
      span.arg("third", 20 + rank);
    });
  }
  engine.run();
  const std::vector<std::string> spans = span_lines(tracer.to_json());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].find(R"("tid":0,)"), std::string::npos);
  EXPECT_NE(spans[0].find(R"("args":{"first":0,"second":10,"third":20}})"),
            std::string::npos)
      << spans[0];
  EXPECT_NE(spans[1].find(R"("args":{"first":1,"second":11,"third":21}})"),
            std::string::npos)
      << spans[1];
}

TEST(Trace, TextArgIsInternedAndEscaped) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  engine.spawn("p", [&] {
    Span span(&tracer, tracer.rank_track(0), "flush_batch");
    span.arg("abandoned", "io_error: \"disk\"\tgone");
    span.arg("bytes", 7);
  });
  engine.run();
  // The span name, the key and the text value, after the phases.
  EXPECT_EQ(tracer.names(), prof::kPhaseCount + 4);
  const std::vector<std::string> spans = span_lines(tracer.to_json());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_NE(
      spans[0].find(
          R"("args":{"abandoned":"io_error: \"disk\"\tgone","bytes":7}})"),
      std::string::npos)
      << spans[0];
}

TEST(Trace, MovedSpanKeepsItsArgs) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  engine.spawn("p", [&] {
    Span from(&tracer, tracer.rank_track(0), "write_round");
    from.arg("round", 1);
    Span to = std::move(from);
    from.arg("lost", 0);  // moved-from: inactive, records nothing
    to.arg("send_bytes", 2);
    Span assigned;
    assigned = std::move(to);
    assigned.arg("pipelined", 1);
  });
  engine.run();
  const std::vector<std::string> spans = span_lines(tracer.to_json());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_NE(
      spans[0].find(R"("args":{"round":1,"send_bytes":2,"pipelined":1}})"),
      std::string::npos)
      << spans[0];
}

TEST(Trace, ArgsOnADisabledTracerInternNothing) {
  sim::Engine engine;
  Tracer tracer(engine);
  {
    Span span(&tracer, tracer.rank_track(0), "write_round");
    span.arg("round", 1);
    span.arg("abandoned", "text");
  }
  EXPECT_EQ(tracer.names(), 0u);
  tracer.set_enabled(true);
  tracer.set_enabled(false);
  {
    Span span(&tracer, tracer.rank_track(0), "write_round");
    span.arg("round", 1);
    span.arg("abandoned", "text");
  }
  EXPECT_EQ(tracer.names(), prof::kPhaseCount);
  EXPECT_EQ(tracer.events(), 0u);
}

TEST(Trace, ChromeArgsFormatIsUnchanged) {
  // Byte-exact span lines: integer args in insertion order (negative and
  // 64-bit values included), text args quoted and escaped, no "args" key
  // on a span without args.
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  engine.spawn("p", [&] {
    {
      Span span(&tracer, tracer.rank_track(2), "flush_batch");
      span.arg("offset", 1099511627776);
      span.arg("delta", -5);
      span.arg("zero", 0);
      span.arg("status", "a\\b\n");
      engine.delay(nanoseconds(1500));
    }
    Span bare(&tracer, tracer.rank_track(2), "calc");
    engine.delay(microseconds(2));
  });
  engine.run();
  const std::vector<std::string> spans = span_lines(tracer.to_json());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0],
            R"({"ph":"X","pid":0,"tid":0,"name":"flush_batch","ts":0.000,)"
            R"("dur":1.500,"args":{"offset":1099511627776,"delta":-5,)"
            R"("zero":0,"status":"a\\b\n"}})");
  EXPECT_EQ(spans[1],
            R"({"ph":"X","pid":0,"tid":0,"name":"calc","ts":1.500,)"
            R"("dur":2.000})");
}

TEST(Trace, RankTracksKnowTheirRank) {
  sim::Engine engine;
  Tracer tracer(engine);
  const int faults = tracer.track("faults");
  const int rank3 = tracer.rank_track(3);
  EXPECT_EQ(tracer.track_list()[static_cast<std::size_t>(rank3)].rank, 3);
  EXPECT_EQ(tracer.track_list()[static_cast<std::size_t>(rank3)].name,
            "rank 3");
  EXPECT_EQ(tracer.track_list()[static_cast<std::size_t>(faults)].rank, -1);
}

TEST(Trace, ClearResetsEvents) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  tracer.counter("x", 1);
  EXPECT_EQ(tracer.events(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.events(), 0u);
}

}  // namespace
}  // namespace e10::obs
