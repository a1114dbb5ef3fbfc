// Counterexample replay: refutations from the abstract checker must
// reproduce on the cycle-accurate simulator (sim::SystemSim + trace bus)
// for real schedule deadlocks, and must honestly report NOT reproduced for
// abstract-only refutations (token stealing under fair round-robin).
#include "verify/replay.h"

#include <gtest/gtest.h>

#include "verify_test_util.h"

namespace hicsync::verify {
namespace {

using verify_test::compile_for_verify;
using verify_test::fixture_path;
using verify_test::lint_fixture_path;
using verify_test::read_file;
using verify_test::verify_source;

ReplayOptions quick_replay() {
  ReplayOptions options;
  options.max_cycles = 5000;
  return options;
}

ReplayResult refute_and_replay(const core::CompileResult& c,
                               sim::OrgKind org) {
  VerifyResult r = verify_source(c, org);
  EXPECT_EQ(r.deadlock_free, Verdict::Refuted);
  EXPECT_TRUE(r.has_cex);
  return replay(c.program(), c.sema(), c.memory_map(), c.port_plans(),
                c.fsms(), org, r.cex, quick_replay());
}

TEST(ReplayTest, ConsumeBeforeProduceReproducesBothOrgs) {
  auto c = compile_for_verify(
      read_file(lint_fixture_path("consume_before_produce.hic")),
      "consume_before_produce.hic");
  for (sim::OrgKind org :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    ReplayResult rr = refute_and_replay(*c, org);
    EXPECT_TRUE(rr.reproduced) << rr.report;
    EXPECT_FALSE(rr.blocked_threads.empty());
    EXPECT_NE(rr.report.find("REPRODUCED"), std::string::npos);
  }
}

TEST(ReplayTest, TripleCycleReproducesBothOrgs) {
  auto c = compile_for_verify(read_file(fixture_path("triple_cycle.hic")),
                              "triple_cycle.hic");
  for (sim::OrgKind org :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    ReplayResult rr = refute_and_replay(*c, org);
    EXPECT_TRUE(rr.reproduced) << rr.report;
    // All three threads wedge.
    EXPECT_EQ(rr.blocked_threads.size(), 3u);
  }
}

TEST(ReplayTest, EdSlotOrderReproducesEventDrivenOnly) {
  auto c = compile_for_verify(read_file(fixture_path("ed_slot_order.hic")),
                              "ed_slot_order.hic");
  // Event-driven: a real schedule deadlock — must reproduce.
  ReplayResult ed = refute_and_replay(*c, sim::OrgKind::EventDriven);
  EXPECT_TRUE(ed.reproduced) << ed.report;

  // Arbitrated: reachable only through token stealing, which the
  // simulator's fair round-robin arbitration never performs. Replay must
  // say so rather than claim a reproduction.
  ReplayResult arb = refute_and_replay(*c, sim::OrgKind::Arbitrated);
  EXPECT_FALSE(arb.reproduced);
  EXPECT_NE(arb.report.find("NOT reproduced"), std::string::npos)
      << arb.report;
}

}  // namespace
}  // namespace hicsync::verify
