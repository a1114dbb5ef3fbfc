// The scaling claim behind hic-bound: on the Table 1/2 fan-out programs
// (1 producer × N consumers) the abstract interpretation completes and
// proves every bound at N where hic-verify's exact enumeration exhausts
// any reasonable state budget.
#include <gtest/gtest.h>

#include <cstdint>

#include "bound/bound.h"
#include "bound_test_util.h"
#include "netapp/scenarios.h"
#include "verify/checker.h"

namespace hicsync::bound {
namespace {

using bound_test::bound_source;
using bound_test::compile_for_bound;

class ScalingTest : public ::testing::TestWithParam<int> {};

TEST_P(ScalingTest, FanoutBoundsProvedAtEveryWidth) {
  const int n = GetParam();
  auto c = compile_for_bound(netapp::fanout_source(n), "fanout.hic");
  ASSERT_TRUE(c->ok());
  for (sim::OrgKind org :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    BoundResult r = bound_source(*c, org);
    EXPECT_TRUE(r.all_within_capacity()) << n;
    EXPECT_TRUE(r.all_blocking_bounded()) << n;
    // One endpoint per consumer; all of them analyzed, none sampled.
    std::size_t endpoints = 0;
    for (const BlockingStaticBound& b : r.blocking) {
      endpoints += b.consumer >= 0 ? 1 : 0;
      EXPECT_TRUE(b.bounded);
    }
    EXPECT_GE(endpoints, static_cast<std::size_t>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ScalingTest, ::testing::Values(64, 256, 1024));

TEST(ScalingTest, CycleScansGrowLinearly) {
  // The blocking client's work counter: one cycle analysis per distinct
  // (thread, usable-op signature). Four times the consumers may cost at
  // most five times the scans; rerunning every thread's analysis for every
  // endpoint would cost about sixteen.
  for (sim::OrgKind org :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    std::uint64_t previous = 0;
    for (int n : {64, 256, 1024}) {
      auto c = compile_for_bound(netapp::fanout_source(n), "fanout.hic");
      ASSERT_TRUE(c->ok());
      const std::uint64_t scans = bound_source(*c, org).cycle_scans;
      EXPECT_GE(scans, static_cast<std::uint64_t>(n)) << n;
      if (previous != 0) {
        EXPECT_LE(scans, 5 * previous) << n;
      }
      previous = scans;
    }
  }
}

TEST(ScalingTest, VerifyBudgetExhaustedWhereBoundCompletes) {
  // The acceptance witness: on the very program hic-bound just proved,
  // the exact checker cannot finish within a generous state budget.
  auto c = compile_for_bound(netapp::fanout_source(1024), "fanout1024.hic");
  ASSERT_TRUE(c->ok());

  verify::VerifyOptions vopts;
  vopts.enabled = true;
  vopts.max_states = 20000;
  vopts.bounds = false;  // the transition graph would only add memory
  verify::VerifyResult ex =
      verify::run_verify(c->program(), c->sema(), c->memory_map(),
                         c->port_plans(), sim::OrgKind::Arbitrated, vopts);
  EXPECT_FALSE(ex.complete);
  EXPECT_EQ(ex.budget, "states");
  EXPECT_EQ(ex.deadlock_free, verify::Verdict::Inconclusive);

  // ...while the static analysis proves the same properties outright.
  BoundResult st = bound_source(*c, sim::OrgKind::Arbitrated);
  EXPECT_TRUE(st.all_within_capacity());
  EXPECT_TRUE(st.all_blocking_bounded());
}

}  // namespace
}  // namespace hicsync::bound
