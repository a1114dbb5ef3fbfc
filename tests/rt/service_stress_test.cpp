// Concurrency stress for the sharded service. Two properties:
//
//  1. Completion integrity: across many sessions hammering a multi-shard
//     pool, no completion is lost or duplicated — every submitted command
//     completes exactly once, with per-session gap-free sequence numbers.
//     (Run under TSan via the HIC_SANITIZE=thread matrix entry.)
//
//  2. The Acceptance differential: 1000 sessions across an 8-shard pool,
//     each with its own inputs, and every session's results are identical
//     to a fresh single-instance simulation of those inputs.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/compiler.h"
#include "netapp/scenarios.h"
#include "rt/service.h"
#include "rt/workload.h"

namespace hicsync::rt {
namespace {

std::shared_ptr<const LoadedProgram> load_fig1(sim::OrgKind kind) {
  core::CompileOptions options;
  options.organization = kind;
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

TEST(ServiceStress, NoLostOrDuplicatedCompletions) {
  constexpr int kSessions = 64;
  constexpr int kShards = 4;

  ServiceOptions options;
  options.shards = kShards;
  Service service(load_fig1(sim::OrgKind::Arbitrated), options);

  // Per session: open(0) produce(1) produce(2) run(3) consume(4) close(5).
  std::vector<std::future<CommandResult>> futures;
  std::vector<std::uint64_t> sessions;
  for (int i = 0; i < kSessions; ++i) {
    std::uint64_t session = service.open_session();
    sessions.push_back(session);
    for (int p = 0; p < 2; ++p) {
      BufferHandle buf = service.buffers().allocate(2);
      buf[0] = static_cast<std::uint64_t>(i);
      buf[1] = static_cast<std::uint64_t>(p);
      futures.push_back(service.produce(session, std::move(buf)));
    }
    futures.push_back(service.run(session));
    futures.push_back(service.consume(session, {}));
    futures.push_back(service.close_session(session));
  }
  service.drain();

  // Every future completed ok (drain already proves none hang), and each
  // delivered result is recorded by (session, sequence).
  std::map<std::uint64_t, std::multiset<std::uint64_t>> delivered;
  for (auto& f : futures) {
    CommandResult r = f.get();
    EXPECT_TRUE(r.ok) << r.error;
    delivered[r.session].insert(r.sequence);
  }

  // Exactly one completion per (session, sequence), sequences gap-free.
  // open_session returns no future, so sequence 0 is accounted by the
  // command count instead: 5 delivered completions per session, 1..5.
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kSessions));
  for (std::uint64_t session : sessions) {
    const auto& seqs = delivered[session];
    EXPECT_EQ(seqs.size(), 5u) << "session " << session;
    std::multiset<std::uint64_t> expect = {1, 2, 3, 4, 5};
    EXPECT_EQ(seqs, expect) << "session " << session;
  }

  Service::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kSessions * 6));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.sessions_opened, static_cast<std::uint64_t>(kSessions));
  EXPECT_EQ(stats.sessions_closed, static_cast<std::uint64_t>(kSessions));
}

TEST(ServiceStress, InterleavedSubmittersAcrossShards) {
  // Several client threads submitting concurrently against one pool; the
  // service must serialize per session and never cross wires.
  ServiceOptions options;
  options.shards = 4;
  Service service(load_fig1(sim::OrgKind::EventDriven), options);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 8;
  std::vector<std::thread> clients;
  std::mutex mu;
  std::vector<std::string> failures;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::uint64_t session = service.open_session();
        BufferHandle buf = service.buffers().allocate(1);
        buf[0] = static_cast<std::uint64_t>(t * 1000 + i);
        service.produce(session, std::move(buf));
        CommandResult run = service.run(session).get();
        CommandResult got = service.consume(session, {"t2.y1"}).get();
        service.close_session(session);
        if (!run.ok || !got.ok) {
          std::lock_guard<std::mutex> lock(mu);
          failures.push_back(run.ok ? got.error : run.error);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  service.drain();
  EXPECT_TRUE(failures.empty()) << failures.front();
  Service::Stats stats = service.stats();
  EXPECT_EQ(stats.runs,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServiceStress, Acceptance1000SessionsOver8ShardsMatchSingleInstance) {
  constexpr int kSessions = 1000;
  constexpr int kShards = 8;
  constexpr int kDistinctInputs = 16;  // sessions share a few input classes
  constexpr int kPasses = 1;

  auto program = load_fig1(sim::OrgKind::Arbitrated);
  ServiceOptions options;
  options.shards = kShards;
  options.default_passes = kPasses;
  Service service(program, options);

  struct Pending {
    std::uint64_t input = 0;
    std::future<CommandResult> result;
  };
  std::vector<Pending> pending;
  pending.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    std::uint64_t input = static_cast<std::uint64_t>(i % kDistinctInputs);
    std::uint64_t session = service.open_session();
    BufferHandle buf = service.buffers().allocate(1);
    buf[0] = input;
    service.produce(session, std::move(buf));
    service.run(session);
    pending.push_back({input, service.consume(session, {})});
  }
  service.drain();

  // Single-instance baselines, one per distinct input, on a fresh
  // unsharded simulator through the same workload path.
  std::map<std::uint64_t, WorkloadResult> baselines;
  auto baseline_sim = program->make_simulator();
  for (int k = 0; k < kDistinctInputs; ++k) {
    std::uint64_t input = static_cast<std::uint64_t>(k);
    std::uint64_t seed = fold_seed(kWorkloadSeedInit, &input, 1);
    baselines[input] =
        run_workload(*baseline_sim, program->program(), program->sema(),
                     kPasses, options.max_cycles, seed);
    ASSERT_TRUE(baselines[input].converged);
  }

  int mismatches = 0;
  for (auto& p : pending) {
    CommandResult r = p.result.get();
    ASSERT_TRUE(r.ok) << r.error;
    const WorkloadResult& want = baselines[p.input];
    if (r.registers != want.registers) ++mismatches;
    EXPECT_EQ(r.registers, want.registers)
        << "session " << r.session << " input " << p.input;
    if (mismatches > 3) break;  // enough evidence; keep the log readable
  }
  EXPECT_EQ(mismatches, 0);

  Service::Stats stats = service.stats();
  EXPECT_EQ(stats.runs, static_cast<std::uint64_t>(kSessions));
  EXPECT_EQ(stats.failed, 0u);
  ASSERT_EQ(stats.shards.size(), static_cast<std::size_t>(kShards));
  for (const auto& s : stats.shards) {
    EXPECT_GT(s.commands, 0u) << "shard " << s.shard << " never ran";
  }
}

}  // namespace
}  // namespace hicsync::rt
