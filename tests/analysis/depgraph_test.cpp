#include "analysis/depgraph.h"

#include <gtest/gtest.h>

#include "../hic/hic_test_util.h"

namespace hicsync::analysis {
namespace {

using hic::testing::compile;
using hic::testing::kFigure1;

TEST(DepGraph, Figure1HasTwoEdgesNoCycle) {
  auto c = compile(kFigure1);
  ASSERT_TRUE(c->ok) << c->diags.str();
  auto g = ThreadDepGraph::build(c->program, c->sema->dependencies());
  EXPECT_EQ(g.threads().size(), 3u);
  EXPECT_EQ(g.edges().size(), 2u);
  EXPECT_FALSE(g.has_deadlock_risk());
}

TEST(DepGraph, TwoThreadCycleDetected) {
  auto c = compile(R"(
    thread a () {
      int xa, tmp;
      #producer{d2, [b,xb]}
      tmp = xb;
      #consumer{d1, [b,yb]}
      xa = tmp + 1;
    }
    thread b () {
      int xb, yb, tmp2;
      #producer{d1, [a,xa]}
      yb = xa;
      #consumer{d2, [a,tmp]}
      xb = tmp2;
    }
  )");
  ASSERT_TRUE(c->ok) << c->diags.str();
  auto g = ThreadDepGraph::build(c->program, c->sema->dependencies());
  ASSERT_TRUE(g.has_deadlock_risk());
  auto cycles = g.deadlock_cycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 2u);
  auto reports = g.deadlock_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].find("potential deadlock"), std::string::npos);
  EXPECT_NE(reports[0].find("d1"), std::string::npos);
  EXPECT_NE(reports[0].find("d2"), std::string::npos);
}

TEST(DepGraph, ThreeThreadRingDetected) {
  auto c = compile(R"(
    thread a () {
      int va, wa;
      #producer{dc, [c,vc]}
      wa = vc;
      #consumer{da, [b,wb]}
      va = wa;
    }
    thread b () {
      int vb, wb;
      #producer{da, [a,va]}
      wb = va;
      #consumer{db, [c,wc]}
      vb = wb;
    }
    thread c () {
      int vc, wc;
      #producer{db, [b,vb]}
      wc = vb;
      #consumer{dc, [a,wa]}
      vc = wc;
    }
  )");
  ASSERT_TRUE(c->ok) << c->diags.str();
  auto g = ThreadDepGraph::build(c->program, c->sema->dependencies());
  auto cycles = g.deadlock_cycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 3u);
}

TEST(DepGraph, ChainIsNotCycle) {
  auto c = compile(R"(
    thread a () {
      int va;
      #consumer{d1, [b,wb]}
      va = 1;
    }
    thread b () {
      int vb, wb;
      #producer{d1, [a,va]}
      wb = va;
      #consumer{d2, [c,wc]}
      vb = wb;
    }
    thread c () {
      int wc;
      #producer{d2, [b,vb]}
      wc = vb;
    }
  )");
  ASSERT_TRUE(c->ok) << c->diags.str();
  auto g = ThreadDepGraph::build(c->program, c->sema->dependencies());
  EXPECT_FALSE(g.has_deadlock_risk());
}

TEST(DepGraph, ThreadIndexLookup) {
  auto c = compile(kFigure1);
  auto g = ThreadDepGraph::build(c->program, c->sema->dependencies());
  EXPECT_EQ(g.thread_index("t1"), 0);
  EXPECT_EQ(g.thread_index("t3"), 2);
  EXPECT_EQ(g.thread_index("nope"), -1);
}

}  // namespace
}  // namespace hicsync::analysis
