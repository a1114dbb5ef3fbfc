// rt::Service command semantics: session lifecycle, sticky produce seeds,
// run/consume caching, futures + completion callbacks, stable rt-* error
// codes, stats accounting and drain/shutdown idempotence — everything a
// client can rely on, on a small pool.

#include "rt/service.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler.h"
#include "netapp/scenarios.h"
#include "rt/workload.h"
#include "support/json.h"

namespace hicsync::rt {
namespace {

std::shared_ptr<const LoadedProgram> load_fig1(
    sim::OrgKind kind = sim::OrgKind::Arbitrated) {
  core::CompileOptions options;
  options.organization = kind;
  options.source_name = "fig1.hic";
  const std::string source = netapp::figure1_source();
  auto compiled = core::Compiler(options).compile(source);
  EXPECT_TRUE(compiled->ok()) << compiled->diags().str();
  ArtifactError error;
  auto program = [&] {
    Artifact a;
    ArtifactError perr;
    EXPECT_TRUE(parse_artifact(emit_artifact(*compiled, source), &a, &perr))
        << perr.str();
    return load_program(a, &error);
  }();
  EXPECT_NE(program, nullptr) << error.str();
  return program;
}

BufferHandle words(Service& service, std::vector<std::uint64_t> values) {
  BufferHandle buf = service.buffers().allocate(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) buf[i] = values[i];
  return buf;
}

TEST(Service, ProduceRunConsumeHappyPath) {
  ServiceOptions options;
  options.shards = 2;
  options.default_passes = 2;
  Service service(load_fig1(), options);
  EXPECT_EQ(service.shards(), 2);

  std::uint64_t session = service.open_session();
  service.produce(session, words(service, {5, 6}));
  CommandResult run = service.run(session).get();
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_TRUE(run.converged);
  EXPECT_GT(run.cycles, 0u);
  EXPECT_GT(run.rounds, 0u);
  EXPECT_EQ(run.session, session);
  EXPECT_FALSE(run.registers.empty());

  // Consume-all echoes the run's register set.
  CommandResult all = service.consume(session, {}).get();
  ASSERT_TRUE(all.ok) << all.error;
  EXPECT_EQ(all.registers, run.registers);

  // Named consume returns the subset in request order.
  CommandResult one =
      service.consume(session, {"t2.y1", "t1.xtmp"}).get();
  ASSERT_TRUE(one.ok) << one.error;
  ASSERT_EQ(one.registers.size(), 2u);
  EXPECT_EQ(one.registers[0].first, "t2.y1");
  EXPECT_EQ(one.registers[1].first, "t1.xtmp");
}

TEST(Service, RunMatchesSingleInstanceWorkload) {
  // The determinism contract in miniature: one pooled session vs a fresh
  // simulator fed the same folded seed.
  auto program = load_fig1(sim::OrgKind::EventDriven);
  ServiceOptions options;
  options.shards = 2;
  options.default_passes = 2;
  Service service(program, options);

  std::uint64_t session = service.open_session();
  std::vector<std::uint64_t> inputs = {123, 456, 789};
  service.produce(session, words(service, inputs));
  CommandResult pooled = service.run(session).get();
  ASSERT_TRUE(pooled.ok) << pooled.error;

  std::uint64_t seed =
      fold_seed(kWorkloadSeedInit, inputs.data(), inputs.size());
  auto sim = program->make_simulator();
  WorkloadResult fresh = run_workload(*sim, program->program(),
                                      program->sema(), 2, 200000, seed);
  EXPECT_EQ(fresh.registers, pooled.registers);
  EXPECT_EQ(fresh.cycles, pooled.cycles);
  EXPECT_EQ(fresh.rounds, pooled.rounds);
}

TEST(Service, ProduceIsStickyAcrossRuns) {
  auto program = load_fig1();
  Service service(program, {});
  std::uint64_t session = service.open_session();

  service.produce(session, words(service, {1}));
  CommandResult first = service.run(session).get();
  ASSERT_TRUE(first.ok);

  // A second produce folds on top of the first — the seed (and thus the
  // results) must match folding both payloads in order on a fresh seed.
  service.produce(session, words(service, {2}));
  CommandResult second = service.run(session).get();
  ASSERT_TRUE(second.ok);

  std::uint64_t w1 = 1, w2 = 2;
  std::uint64_t seed = fold_seed(kWorkloadSeedInit, &w1, 1);
  seed = fold_seed(seed, &w2, 1);
  auto sim = program->make_simulator();
  WorkloadResult expect = run_workload(*sim, program->program(),
                                       program->sema(), 1, 200000, seed);
  EXPECT_EQ(expect.registers, second.registers);
  EXPECT_NE(first.registers, second.registers);
}

TEST(Service, SessionsAreIsolated) {
  Service service(load_fig1(), {});
  std::uint64_t a = service.open_session();
  std::uint64_t b = service.open_session();
  service.produce(a, words(service, {1000}));
  service.produce(b, words(service, {2000}));
  CommandResult ra = service.run(a).get();
  CommandResult rb = service.run(b).get();
  ASSERT_TRUE(ra.ok);
  ASSERT_TRUE(rb.ok);
  EXPECT_NE(ra.registers, rb.registers);

  // Same inputs -> same results, regardless of session id.
  std::uint64_t c = service.open_session();
  service.produce(c, words(service, {1000}));
  CommandResult rc = service.run(c).get();
  ASSERT_TRUE(rc.ok);
  EXPECT_EQ(ra.registers, rc.registers);
}

TEST(Service, SessionsShardById) {
  ServiceOptions options;
  options.shards = 3;
  Service service(load_fig1(), options);
  for (int i = 0; i < 9; ++i) {
    std::uint64_t session = service.open_session();
    CommandResult r = service.run(session).get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.shard, static_cast<int>(session % 3));
  }
}

TEST(Service, ErrorCodesAreStable) {
  Service service(load_fig1(), {});

  // Commands against a never-opened session.
  CommandResult r = service.run(404).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.rfind("rt-no-session:", 0), 0u) << r.error;
  r = service.produce(404, words(service, {1})).get();
  EXPECT_EQ(r.error.rfind("rt-no-session:", 0), 0u) << r.error;
  r = service.close_session(404).get();
  EXPECT_EQ(r.error.rfind("rt-no-session:", 0), 0u) << r.error;

  // Consume before any run.
  std::uint64_t session = service.open_session();
  r = service.consume(session, {}).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.rfind("rt-no-run:", 0), 0u) << r.error;

  // Unknown register name after a run.
  ASSERT_TRUE(service.run(session).get().ok);
  r = service.consume(session, {"t9.nope"}).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.rfind("rt-unknown-register:", 0), 0u) << r.error;

  // A closed session is gone.
  ASSERT_TRUE(service.close_session(session).get().ok);
  r = service.run(session).get();
  EXPECT_EQ(r.error.rfind("rt-no-session:", 0), 0u) << r.error;
}

TEST(Service, TimeoutFailsTheRunCommand) {
  ServiceOptions options;
  options.max_cycles = 3;  // far too few to complete a pass
  Service service(load_fig1(), options);
  std::uint64_t session = service.open_session();
  CommandResult r = service.run(session).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.rfind("rt-timeout:", 0), 0u) << r.error;
  EXPECT_FALSE(r.converged);
}

TEST(Service, SequencesArePerSessionAndGapFree) {
  Service service(load_fig1(), {});
  std::uint64_t a = service.open_session();
  std::uint64_t b = service.open_session();
  // a: open=0 produce=1 run=2; b: open=0 run=1.
  CommandResult pa = service.produce(a, words(service, {1})).get();
  CommandResult rb = service.run(b).get();
  CommandResult ra = service.run(a).get();
  EXPECT_EQ(pa.sequence, 1u);
  EXPECT_EQ(ra.sequence, 2u);
  EXPECT_EQ(rb.sequence, 1u);
}

TEST(Service, ClosedSessionsLeaveNoSequenceCounters) {
  // One session per transaction, as an hic-rtd client does: open, produce,
  // run, close. Every session numbers its commands 0, 1, 2, 3 and an
  // accepted Close drops the session's counter.
  ServiceOptions options;
  options.shards = 2;
  Service service(load_fig1(), options);
  constexpr int kSessions = 200;
  for (int i = 0; i < kSessions; ++i) {
    const std::uint64_t session = service.open_session();
    CommandResult p =
        service.produce(session, words(service, {std::uint64_t(i)})).get();
    CommandResult r = service.run(session, 1).get();
    CommandResult c = service.close_session(session).get();
    ASSERT_TRUE(p.ok && r.ok && c.ok) << p.error << r.error << c.error;
    EXPECT_EQ(p.sequence, 1u);
    EXPECT_EQ(r.sequence, 2u);
    EXPECT_EQ(c.sequence, 3u);
  }
  // A session still open keeps its counter.
  const std::uint64_t open = service.open_session();
  EXPECT_EQ(service.run(open, 1).get().sequence, 1u);
  service.drain();

  std::uint64_t counters = 0;
  for (const auto& s : service.stats().shards) counters += s.sequence_counters;
  EXPECT_EQ(counters, 1u);
  EXPECT_EQ(service.stats().sessions_closed,
            static_cast<std::uint64_t>(kSessions));
}

TEST(Service, StatsCountCommandsAndSessions) {
  ServiceOptions options;
  options.shards = 2;
  Service service(load_fig1(), options);
  std::uint64_t a = service.open_session();
  std::uint64_t b = service.open_session();
  service.produce(a, words(service, {1}));
  service.run(a);
  service.run(b);
  service.consume(a, {});
  service.close_session(b);
  service.drain();

  Service::Stats stats = service.stats();
  // open a, open b, produce, run, run, consume, close = 7 commands.
  EXPECT_EQ(stats.submitted, 7u);
  EXPECT_EQ(stats.completed, 7u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.sessions_opened, 2u);
  EXPECT_EQ(stats.sessions_closed, 1u);
  EXPECT_EQ(stats.runs, 2u);
  EXPECT_GT(stats.sim_cycles, 0u);
  ASSERT_EQ(stats.shards.size(), 2u);
  std::uint64_t shard_commands = 0;
  std::uint64_t open_sessions = 0;
  for (const auto& s : stats.shards) {
    shard_commands += s.commands;
    open_sessions += s.sessions;
  }
  EXPECT_EQ(shard_commands, stats.completed);
  EXPECT_EQ(open_sessions, 1u);  // a is still open

  EXPECT_NE(service.stats_text().find("sessions"), std::string::npos);
  EXPECT_NE(service.stats_json().find("\"submitted\""), std::string::npos);
}

TEST(Service, StatsJsonMatchesTheDocumentedSchema) {
  ServiceOptions options;
  options.shards = 2;
  Service service(load_fig1(), options);
  std::uint64_t session = service.open_session();
  service.produce(session, words(service, {3}));
  service.run(session);
  service.consume(session, {});
  service.drain();

  support::JsonValue stats;
  std::string parse_error;
  ASSERT_TRUE(support::parse_json(service.stats_json(), &stats, &parse_error))
      << parse_error;
  ASSERT_TRUE(stats.is_object());
  EXPECT_EQ(stats.find("program")->string_value, "fig1.hic");
  EXPECT_EQ(stats.find("shards")->number_value, 2);
  for (const char* key : {"submitted", "completed", "failed",
                          "sessions_opened", "sessions_closed", "runs",
                          "sim_cycles"}) {
    const support::JsonValue* v = stats.find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_TRUE(v->is_number()) << key;
  }
  EXPECT_EQ(stats.find("completed")->number_value, 4);

  const support::JsonValue* shard_stats = stats.find("shard_stats");
  ASSERT_NE(shard_stats, nullptr);
  ASSERT_EQ(shard_stats->elements.size(), 2u);
  double shard_commands = 0;
  for (const support::JsonValue& shard : shard_stats->elements) {
    for (const char* key : {"shard", "commands", "runs", "failures",
                            "sim_cycles", "max_queue_depth", "sessions"}) {
      ASSERT_NE(shard.find(key), nullptr) << key;
    }
    shard_commands += shard.find("commands")->number_value;
    // Completion-latency percentiles ride every shard entry, ordered.
    const support::JsonValue* latency = shard.find("latency_us");
    ASSERT_NE(latency, nullptr);
    const support::JsonValue* p50 = latency->find("p50");
    const support::JsonValue* p95 = latency->find("p95");
    const support::JsonValue* p99 = latency->find("p99");
    ASSERT_NE(p50, nullptr);
    ASSERT_NE(p95, nullptr);
    ASSERT_NE(p99, nullptr);
    EXPECT_LE(p50->number_value, p95->number_value);
    EXPECT_LE(p95->number_value, p99->number_value);
  }
  EXPECT_EQ(shard_commands, stats.find("completed")->number_value);

  const support::JsonValue* buffers = stats.find("buffers");
  ASSERT_NE(buffers, nullptr);
  for (const char* key : {"allocated", "reused", "live"}) {
    EXPECT_NE(buffers->find(key), nullptr) << key;
  }

  // The text rendering reports the same latency ladder per shard.
  const std::string text = service.stats_text();
  EXPECT_NE(text.find("latency p50/p95/p99"), std::string::npos);
}

TEST(Service, ShutdownIsIdempotentAndRejectsLateCommands) {
  Service service(load_fig1(), {});
  std::uint64_t session = service.open_session();
  ASSERT_TRUE(service.run(session).get().ok);
  service.shutdown();
  service.shutdown();  // idempotent
  service.drain();     // no-op after shutdown

  CommandResult late = service.run(session).get();
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.error.rfind("rt-stopped:", 0), 0u) << late.error;
  // Opening after shutdown hands out an id whose commands all fail stopped.
  std::uint64_t dead = service.open_session();
  CommandResult dead_run = service.run(dead).get();
  EXPECT_EQ(dead_run.error.rfind("rt-stopped:", 0), 0u) << dead_run.error;
}

TEST(Service, DestructorDrainsInFlightWork) {
  // Submit work and destroy the service without an explicit shutdown; every
  // future must still complete (with ok or rt-stopped, never hang).
  std::vector<std::future<CommandResult>> futures;
  {
    Service service(load_fig1(), {});
    std::uint64_t session = service.open_session();
    for (int i = 0; i < 8; ++i) futures.push_back(service.run(session));
  }
  for (auto& f : futures) {
    CommandResult r = f.get();
    if (!r.ok) {
      EXPECT_EQ(r.error.rfind("rt-stopped:", 0), 0u) << r.error;
    }
  }
}

}  // namespace
}  // namespace hicsync::rt
