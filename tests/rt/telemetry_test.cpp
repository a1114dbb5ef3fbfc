// Request-telemetry tests: ShardTelemetry span capture (deterministic,
// fabricated timestamps), then the full Service surface — per-stage
// statistics at 64 sessions × 4 shards, Chrome-trace span counts matching
// the completed-command count, bounded-ring eviction, slow-request JSONL
// promotion with session history and a shard-queue snapshot, trace-context
// tags, and the disabled-telemetry inertness contract.

#include "rt/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler.h"
#include "netapp/scenarios.h"
#include "rt/service.h"
#include "support/json.h"

namespace hicsync::rt {
namespace {

using support::JsonValue;

std::shared_ptr<const LoadedProgram> load_fig1() {
  core::CompileOptions options;
  options.source_name = "fig1.hic";
  const std::string source = netapp::figure1_source();
  auto compiled = core::Compiler(options).compile(source);
  EXPECT_TRUE(compiled->ok()) << compiled->diags().str();
  Artifact artifact;
  ArtifactError error;
  EXPECT_TRUE(
      parse_artifact(emit_artifact(*compiled, source), &artifact, &error))
      << error.str();
  auto program = load_program(artifact, &error);
  EXPECT_NE(program, nullptr) << error.str();
  return program;
}

JsonValue parse(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(support::parse_json(text, &v, &error))
      << error << " in: " << text;
  return v;
}

std::uint64_t num(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  EXPECT_NE(m, nullptr) << "missing key " << key;
  if (m == nullptr || !m->is_number()) return 0;
  return static_cast<std::uint64_t>(m->number_value);
}

// ---------------------------------------------------------------------------
// Span / ShardTelemetry unit tests (no service, no threads): fabricated
// steady-clock instants make every stage value exact.

Span make_span(std::uint64_t session, std::uint64_t sequence,
               TelemetryClock::time_point epoch, std::uint64_t start_us,
               std::uint64_t queue_us, std::uint64_t execute_us,
               std::uint64_t complete_us) {
  Span s;
  s.session = session;
  s.sequence = sequence;
  s.kind = "run";
  s.enqueue = epoch + std::chrono::microseconds(start_us);
  s.dequeue = s.enqueue + std::chrono::microseconds(queue_us);
  s.exec_end = s.dequeue + std::chrono::microseconds(execute_us);
  s.complete = s.exec_end + std::chrono::microseconds(complete_us);
  return s;
}

std::vector<std::uint64_t> sequences(const JsonValue& briefs) {
  std::vector<std::uint64_t> out;
  for (const JsonValue& b : briefs.elements) out.push_back(num(b, "sequence"));
  return out;
}

TEST(SpanTest, StageDurationsPartitionTheTotal) {
  const TelemetryClock::time_point epoch{};
  Span s = make_span(1, 0, epoch, 100, 40, 500, 7);
  EXPECT_EQ(s.queue_us(), 40u);
  EXPECT_EQ(s.execute_us(), 500u);
  EXPECT_EQ(s.complete_us(), 7u);
  EXPECT_EQ(s.total_us(), 40u + 500u + 7u);

  // A clock edge observed out of order clamps to zero, never underflows.
  Span backwards = s;
  backwards.dequeue = backwards.enqueue - std::chrono::microseconds(5);
  EXPECT_EQ(backwards.queue_us(), 0u);
}

TEST(ShardTelemetryTest, RecordWritesTheRingAndPromotesSlowSpans) {
  TelemetryOptions options;
  options.enabled = true;
  options.ring_capacity = 8;
  options.slow_threshold_us = 1000;
  const TelemetryClock::time_point epoch{};
  ShardTelemetry telemetry(0, options, epoch);

  // Two fast spans for session 7, one for session 8, then a slow one for
  // session 7: the forensics record must carry session 7's retained spans
  // as history (oldest first) and the queue snapshot it was handed.
  std::string slow_json;
  EXPECT_FALSE(telemetry.record(make_span(7, 0, epoch, 0, 2, 100, 1), {},
                                &slow_json));
  EXPECT_FALSE(telemetry.record(make_span(8, 0, epoch, 100, 2, 50, 1), {},
                                &slow_json));
  EXPECT_FALSE(telemetry.record(make_span(7, 1, epoch, 200, 2, 300, 1), {},
                                &slow_json));
  EXPECT_TRUE(slow_json.empty());
  std::vector<QueuedCommand> queue = {{9, "run"}, {11, "produce"}};
  Span slow = make_span(7, 2, epoch, 600, 900, 2000, 3);
  slow.queue_depth = 2;
  slow.cycles = 4096;
  slow.tag = "req-42";
  EXPECT_TRUE(telemetry.record(slow, queue, &slow_json));

  EXPECT_EQ(telemetry.spans_recorded(), 4u);
  EXPECT_EQ(telemetry.spans_dropped(), 0u);
  EXPECT_EQ(telemetry.slow_count(), 1u);
  EXPECT_EQ(telemetry.busy_us(), 100u + 50u + 300u + 2000u);
  std::vector<Span> spans = telemetry.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.back().tag, "req-42");
  EXPECT_EQ(spans.back().total_us(), 2903u);

  JsonValue record = parse(slow_json);
  EXPECT_EQ(num(record, "session"), 7u);
  EXPECT_EQ(num(record, "sequence"), 2u);
  EXPECT_EQ(record.find("kind")->string_value, "run");
  EXPECT_EQ(record.find("tag")->string_value, "req-42");
  EXPECT_EQ(num(record, "total_us"), 2903u);
  EXPECT_EQ(num(record, "cycles"), 4096u);
  EXPECT_EQ(num(record, "queue_depth_at_enqueue"), 2u);
  const JsonValue* stages = record.find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->find("submit_us"), nullptr);
  EXPECT_EQ(num(*stages, "queue_us"), 900u);
  EXPECT_EQ(num(*stages, "execute_us"), 2000u);
  EXPECT_EQ(num(*stages, "complete_us"), 3u);
  const JsonValue* snapshot = record.find("queue_snapshot");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(num(*snapshot, "depth"), 2u);
  ASSERT_EQ(snapshot->find("pending")->elements.size(), 2u);
  EXPECT_EQ(num(snapshot->find("pending")->elements[1], "session"), 11u);
  const JsonValue* history = record.find("history");
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(sequences(*history), (std::vector<std::uint64_t>{0, 1}));

  // slow_recent lists the retained slow span.
  support::JsonWriter w(0);
  telemetry.render_json(w, 0);
  EXPECT_EQ(sequences(*parse(w.str()).find("slow_recent")),
            (std::vector<std::uint64_t>{2}));
}

TEST(ShardTelemetryTest, SlowHistoryHoldsOnlyTheSessionsRetainedSpans) {
  TelemetryOptions options;
  options.enabled = true;
  options.ring_capacity = 4;
  options.slow_threshold_us = 1000;
  const TelemetryClock::time_point epoch{};
  ShardTelemetry telemetry(0, options, epoch);

  // Session 7's first two spans are evicted by session 9's traffic, so
  // its slow span's history keeps only the one still in the ring.
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    telemetry.record(make_span(7, seq, epoch, seq * 10, 1, 5, 1), {},
                     nullptr);
  }
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    telemetry.record(make_span(9, seq, epoch, 100 + seq * 10, 1, 5, 1), {},
                     nullptr);
  }
  std::string slow_json;
  EXPECT_TRUE(telemetry.record(make_span(7, 3, epoch, 200, 1, 5000, 1), {},
                               &slow_json));
  EXPECT_EQ(sequences(*parse(slow_json).find("history")),
            (std::vector<std::uint64_t>{2}));

  // A session with nothing left in the ring reports an empty history.
  for (std::uint64_t seq = 3; seq < 7; ++seq) {
    telemetry.record(make_span(9, seq, epoch, 300 + seq * 10, 1, 5, 1), {},
                     nullptr);
  }
  EXPECT_TRUE(telemetry.record(make_span(7, 4, epoch, 500, 1, 5000, 1), {},
                               &slow_json));
  EXPECT_TRUE(parse(slow_json).find("history")->elements.empty());
  EXPECT_EQ(telemetry.spans_recorded(), 12u);
  EXPECT_EQ(telemetry.spans_dropped(), 8u);
}

/// Nearest-rank percentile: the ceil(p/100 * n)-th smallest value.
std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted,
                           double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

// The read-time statistics of each stage equal a direct computation over
// spans(), before and after the ring wraps.
TEST(ShardTelemetryTest, StageStatisticsAreNearestRankOverRetainedSpans) {
  TelemetryOptions options;
  options.enabled = true;
  options.ring_capacity = 64;
  const TelemetryClock::time_point epoch{};
  ShardTelemetry telemetry(0, options, epoch);
  std::uint64_t state = 12345;
  auto next = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  for (std::uint64_t seq = 0; seq < 150; ++seq) {
    Span span = make_span(1, seq, epoch, seq * 10000, next(50), next(5000),
                          next(20));
    span.cycles = seq % 3 == 0 ? 0 : 64 + next(4000);
    telemetry.record(span, {}, nullptr);
    if (seq != 40 && seq != 149) continue;  // before and after the wrap

    support::JsonWriter w(0);
    telemetry.render_json(w, 0);
    JsonValue shard = parse(w.str());
    const std::vector<Span> spans = telemetry.spans();
    ASSERT_EQ(spans.size(), std::min<std::size_t>(seq + 1, 64));
    EXPECT_EQ(num(shard, "spans_recorded"), seq + 1);
    struct Stage {
      const char* name;
      std::uint64_t (Span::*value)() const;
    };
    for (const Stage& stage :
         {Stage{"queue_us", &Span::queue_us},
          Stage{"execute_us", &Span::execute_us},
          Stage{"complete_us", &Span::complete_us},
          Stage{"total_us", &Span::total_us}}) {
      std::vector<std::uint64_t> v;
      for (const Span& s : spans) v.push_back((s.*stage.value)());
      std::sort(v.begin(), v.end());
      double sum = 0;
      for (std::uint64_t x : v) sum += static_cast<double>(x);
      const JsonValue& got = *shard.find("stages")->find(stage.name);
      EXPECT_EQ(num(got, "count"), v.size()) << stage.name;
      EXPECT_EQ(num(got, "min"), v.front()) << stage.name;
      EXPECT_EQ(num(got, "max"), v.back()) << stage.name;
      EXPECT_NEAR(got.find("mean")->number_value,
                  sum / static_cast<double>(v.size()), 1e-6)
          << stage.name;
      EXPECT_EQ(num(got, "p50"), nearest_rank(v, 50)) << stage.name;
      EXPECT_EQ(num(got, "p95"), nearest_rank(v, 95)) << stage.name;
      EXPECT_EQ(num(got, "p99"), nearest_rank(v, 99)) << stage.name;
    }
    std::vector<std::uint64_t> cycles;
    for (const Span& s : spans) {
      if (s.cycles > 0) cycles.push_back(s.cycles);
    }
    std::sort(cycles.begin(), cycles.end());
    const JsonValue& run_cycles = *shard.find("run_cycles");
    EXPECT_EQ(num(run_cycles, "count"), cycles.size());
    EXPECT_EQ(num(run_cycles, "p50"), nearest_rank(cycles, 50));
    EXPECT_EQ(num(run_cycles, "p95"), nearest_rank(cycles, 95));
    EXPECT_EQ(num(run_cycles, "p99"), nearest_rank(cycles, 99));
  }
}

TEST(ShardTelemetryTest, RingEvictsOldestFirstAndCountsDrops) {
  TelemetryOptions options;
  options.enabled = true;
  options.ring_capacity = 4;
  const TelemetryClock::time_point epoch{};
  ShardTelemetry telemetry(2, options, epoch);
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    telemetry.record(make_span(1, seq, epoch, seq * 100, 1, 10, 1), {},
                     nullptr);
  }
  EXPECT_EQ(telemetry.spans_recorded(), 10u);
  EXPECT_EQ(telemetry.spans_dropped(), 6u);
  std::vector<Span> spans = telemetry.spans();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].sequence, 6u + i);  // oldest first, newest retained
  }

  std::vector<std::string> events;
  telemetry.append_chrome_events(&events);
  EXPECT_EQ(events.size(), 4u);
  JsonValue trace = parse(compose_chrome_trace(3, events));
  const JsonValue* list = trace.find("traceEvents");
  ASSERT_NE(list, nullptr);
  // 1 process + 3 thread metadata events, then the 4 spans on track tid=3.
  ASSERT_EQ(list->elements.size(), 8u);
  EXPECT_EQ(list->elements[0].find("ph")->string_value, "M");
  EXPECT_EQ(num(list->elements.back(), "tid"), 3u);
  EXPECT_EQ(list->elements.back().find("ph")->string_value, "X");
}

// ---------------------------------------------------------------------------
// Service-level tests: real traffic through the sharded pool.

ServiceOptions telemetry_options(int shards) {
  ServiceOptions o;
  o.shards = shards;
  o.telemetry.enabled = true;
  // High enough that scheduler hiccups on a loaded CI box cannot promote
  // anything; the slow-path tests drop it to zero explicitly.
  o.telemetry.slow_threshold_us = 600ULL * 1000 * 1000;
  return o;
}

std::uint64_t count_x_events(const std::string& chrome_json,
                             std::uint64_t* tracks = nullptr) {
  JsonValue trace;
  std::string error;
  EXPECT_TRUE(support::parse_json(chrome_json, &trace, &error)) << error;
  const JsonValue* events = trace.find("traceEvents");
  EXPECT_NE(events, nullptr);
  std::uint64_t spans = 0;
  std::uint64_t threads = 0;
  if (events != nullptr) {
    for (const JsonValue& e : events->elements) {
      const JsonValue* ph = e.find("ph");
      if (ph == nullptr || !ph->is_string()) continue;
      if (ph->string_value == "X") ++spans;
      if (ph->string_value == "M" &&
          e.find("name")->string_value == "thread_name") {
        ++threads;
      }
    }
  }
  if (tracks != nullptr) *tracks = threads;
  return spans;
}

TEST(ServiceTelemetry, SixtyFourSessionsAcrossFourShards) {
  ServiceOptions options = telemetry_options(4);
  // Every span must survive into the Chrome trace for the count check:
  // 64 sessions × 4 commands / 4 shards = 64 spans per shard, well under
  // this ring.
  options.telemetry.ring_capacity = 512;
  Service service(load_fig1(), options);

  for (int i = 0; i < 64; ++i) {
    std::uint64_t session = service.open_session();
    BufferHandle buf = service.buffers().allocate(1);
    buf[0] = static_cast<std::uint64_t>(i);
    service.produce(session, std::move(buf));
    service.run(session);
    service.consume(session, {});
  }
  service.drain();

  Service::Stats stats = service.stats();
  EXPECT_EQ(stats.completed, 256u);
  EXPECT_EQ(stats.failed, 0u);

  // Per-stage statistics: every shard saw traffic, every stage counted
  // every span, and the percentile ladder is ordered.
  JsonValue telemetry = parse(service.telemetry_json());
  EXPECT_TRUE(telemetry.find("enabled")->bool_value);
  EXPECT_EQ(num(telemetry, "slow_log_entries"), 0u);
  const JsonValue* shards = telemetry.find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->elements.size(), 4u);
  std::uint64_t recorded = 0;
  std::uint64_t run_count = 0;
  for (const JsonValue& shard : shards->elements) {
    recorded += num(shard, "spans_recorded");
    EXPECT_EQ(num(shard, "spans_dropped"), 0u);
    EXPECT_EQ(num(shard, "slow_count"), 0u);
    const JsonValue* stages = shard.find("stages");
    ASSERT_NE(stages, nullptr);
    EXPECT_EQ(stages->find("submit_us"), nullptr);
    for (const char* stage :
         {"queue_us", "execute_us", "complete_us", "total_us"}) {
      const JsonValue* s = stages->find(stage);
      ASSERT_NE(s, nullptr) << stage;
      EXPECT_EQ(num(*s, "count"), num(shard, "spans_recorded")) << stage;
      EXPECT_LE(num(*s, "p50"), num(*s, "p95")) << stage;
      EXPECT_LE(num(*s, "p95"), num(*s, "p99")) << stage;
      EXPECT_LE(num(*s, "p99"), num(*s, "max")) << stage;
    }
    EXPECT_GT(num(*stages->find("execute_us"), "p99"), 0u);
    run_count += num(*shard.find("run_cycles"), "count");
  }
  EXPECT_EQ(recorded, stats.completed);
  EXPECT_EQ(run_count, stats.runs);

  // Chrome trace: one track per shard, one X event per completed command.
  std::uint64_t tracks = 0;
  EXPECT_EQ(count_x_events(service.telemetry_chrome_json(), &tracks),
            stats.completed);
  EXPECT_EQ(tracks, 4u);

  // The human rendering carries the same percentile ladder.
  const std::string text = service.telemetry_text();
  EXPECT_NE(text.find("p50"), std::string::npos);
  EXPECT_NE(text.find("p95"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
  EXPECT_NE(text.find("execute_us"), std::string::npos);
}

TEST(ServiceTelemetry, SlowThresholdZeroPromotesEverySpanToJsonl) {
  const std::string log_path =
      ::testing::TempDir() + "/rt_slow_test.jsonl";
  std::remove(log_path.c_str());

  ServiceOptions options = telemetry_options(1);
  options.telemetry.slow_threshold_us = 0;  // every span is "slow"
  options.telemetry.slow_log_path = log_path;
  std::uint64_t completed = 0;
  {
    Service service(load_fig1(), options);
    std::uint64_t session = service.open_session();
    BufferHandle buf = service.buffers().allocate(1);
    buf[0] = 5;
    service.produce(session, std::move(buf), "tag-produce");
    service.run(session, 0, "tag-run");
    service.consume(session, {});
    service.close_session(session);
    service.drain();
    completed = service.stats().completed;
    EXPECT_EQ(service.slow_log_entries(), completed);
    JsonValue telemetry = parse(service.telemetry_json());
    EXPECT_EQ(telemetry.find("slow_log_path")->string_value, log_path);
    EXPECT_EQ(num(telemetry.find("shards")->elements[0], "slow_count"),
              completed);
    EXPECT_FALSE(telemetry.find("shards")
                     ->elements[0]
                     .find("slow_recent")
                     ->elements.empty());
  }

  // One well-formed JSON object per line, one line per promoted span.
  std::ifstream in(log_path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::vector<JsonValue> records;
  std::string error;
  ASSERT_TRUE(support::parse_jsonl(buffer.str(), &records, &error)) << error;
  ASSERT_EQ(records.size(), completed);

  // open, produce, run, consume, close — in session-FIFO order.
  EXPECT_EQ(records[0].find("kind")->string_value, "open");
  EXPECT_EQ(records[1].find("kind")->string_value, "produce");
  EXPECT_EQ(records[1].find("tag")->string_value, "tag-produce");
  EXPECT_EQ(records[2].find("kind")->string_value, "run");
  EXPECT_EQ(records[2].find("tag")->string_value, "tag-run");
  EXPECT_GT(num(records[2], "cycles"), 0u);
  EXPECT_EQ(records[4].find("kind")->string_value, "close");

  for (const JsonValue& record : records) {
    EXPECT_TRUE(record.find("ok")->bool_value);
    for (const char* key : {"ts_us", "shard", "session", "sequence",
                            "total_us", "queue_depth_at_enqueue"}) {
      EXPECT_NE(record.find(key), nullptr) << key;
    }
    const JsonValue* stages = record.find("stages");
    ASSERT_NE(stages, nullptr);
    EXPECT_NE(stages->find("queue_us"), nullptr);
    ASSERT_NE(record.find("queue_snapshot"), nullptr);
    EXPECT_NE(record.find("queue_snapshot")->find("depth"), nullptr);
    ASSERT_NE(record.find("history"), nullptr);
  }
  // The run's forensics record shows the session's lead-up, oldest first.
  const auto& history = records[2].find("history")->elements;
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].find("kind")->string_value, "open");
  EXPECT_EQ(history[1].find("kind")->string_value, "produce");
  EXPECT_EQ(history[1].find("tag")->string_value, "tag-produce");

  std::remove(log_path.c_str());
}

TEST(ServiceTelemetry, TagsRideResultsAndChromeTraceArgs) {
  Service service(load_fig1(), telemetry_options(1));
  std::uint64_t session = service.open_session();
  CommandResult run = service.run(session, 0, "trace-me-7").get();
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.tag, "trace-me-7");
  service.drain();
  EXPECT_NE(service.telemetry_chrome_json().find("\"tag\":\"trace-me-7\""),
            std::string::npos);
}

// Every completed command is recorded once, failures and closes included,
// however far the ring wrapped; the statistics count what it retains.
TEST(ServiceTelemetry, SpansRecordedEqualsCompletedCommands) {
  ServiceOptions options = telemetry_options(2);
  options.telemetry.ring_capacity = 8;
  Service service(load_fig1(), options);
  for (int i = 0; i < 24; ++i) {
    std::uint64_t session = service.open_session();
    if (i % 4 == 0) service.consume(session, {});  // rt-no-run: fails
    service.run(session);
    service.consume(session, {});
    service.close_session(session);
  }
  service.drain();

  Service::Stats stats = service.stats();
  EXPECT_EQ(stats.failed, 6u);
  JsonValue telemetry = parse(service.telemetry_json());
  std::uint64_t recorded = 0;
  for (const JsonValue& shard : telemetry.find("shards")->elements) {
    const std::uint64_t shard_recorded = num(shard, "spans_recorded");
    const std::uint64_t retained =
        num(*shard.find("stages")->find("total_us"), "count");
    EXPECT_EQ(retained, std::min<std::uint64_t>(shard_recorded, 8));
    EXPECT_EQ(num(shard, "spans_dropped"), shard_recorded - retained);
    recorded += shard_recorded;
  }
  EXPECT_EQ(recorded, stats.completed);
  EXPECT_EQ(recorded, 24u * 4 + 6);
}

TEST(ServiceTelemetry, DisabledTelemetryIsInert) {
  ServiceOptions options;
  options.shards = 2;
  Service service(load_fig1(), options);
  std::uint64_t session = service.open_session();
  // Tags are still echoed — they are part of the command contract, not
  // the telemetry layer.
  CommandResult run = service.run(session, 0, "still-echoed").get();
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.tag, "still-echoed");
  service.drain();

  EXPECT_FALSE(service.telemetry_enabled());
  JsonValue telemetry = parse(service.telemetry_json());
  EXPECT_FALSE(telemetry.find("enabled")->bool_value);
  EXPECT_EQ(telemetry.find("shards"), nullptr);
  EXPECT_TRUE(service.telemetry_chrome_json().empty());
  EXPECT_EQ(service.slow_log_entries(), 0u);
  EXPECT_NE(service.telemetry_text().find("disabled"), std::string::npos);
}

}  // namespace
}  // namespace hicsync::rt
