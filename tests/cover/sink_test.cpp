#include "cover/sink.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "core/compiler.h"
#include "netapp/scenarios.h"
#include "trace/bus.h"

namespace hicsync::cover {
namespace {

// Compile → declare the model → run with a CoverageSink attached: the
// end-to-end loop `hicc --cover` drives, minus the CLI.
struct CoveredRun {
  std::unique_ptr<core::CompileResult> result;
  std::unique_ptr<sim::SystemSim> simulator;
  CoverageModel model;
  std::unique_ptr<CoverageSink> sink;
  trace::TraceBus bus;
};

std::unique_ptr<CoveredRun> run_covered(std::string_view source,
                                        sim::OrgKind org, int passes) {
  auto run = std::make_unique<CoveredRun>();
  core::CompileOptions options;
  options.organization = org;
  run->result = core::Compiler(options).compile(source);
  EXPECT_TRUE(run->result->ok()) << run->result->diags().str();

  const ModelInputs in =
      inputs_from(org, run->result->fsms(), run->result->controllers());
  declare_model(CoverRegistry::builtin(), in, run->model);
  run->sink = std::make_unique<CoverageSink>(run->model, in);

  run->simulator = run->result->make_simulator();
  run->bus.attach(run->sink.get());
  run->simulator->set_trace(&run->bus);
  EXPECT_TRUE(run->simulator->run_until_passes(passes, 10000));
  run->bus.finish(run->simulator->cycle());
  return run;
}

class SinkBothOrgs : public ::testing::TestWithParam<sim::OrgKind> {};

TEST_P(SinkBothOrgs, Figure1CoversEveryFsmStateAndNothingUnexpected) {
  auto run = run_covered(netapp::figure1_source(), GetParam(), 2);
  const std::string prefix = org_prefix(GetParam());

  // Figure 1 has no dead states: two passes must visit all of them.
  const Covergroup* states = run->model.find(prefix + ".fsm.state");
  ASSERT_NE(states, nullptr);
  std::string missing;
  for (const CoverBin* hole : states->holes()) missing += hole->name + " ";
  EXPECT_DOUBLE_EQ(states->coverage_pct(), 100.0) << "holes: " << missing;

  // Every thread completed a pass and every dependency round closed.
  const Covergroup* pass = run->model.find(prefix + ".thread.pass");
  ASSERT_NE(pass, nullptr);
  EXPECT_DOUBLE_EQ(pass->coverage_pct(), 100.0);
  const Covergroup* occupancy = run->model.find(prefix + ".deplist.occupancy");
  ASSERT_NE(occupancy, nullptr);
  EXPECT_DOUBLE_EQ(occupancy->coverage_pct(), 100.0);

  // The sink must only ever hit bins declaration anticipated: an
  // unexpected count means the declared behavior space is wrong.
  for (const Covergroup* g : run->model.groups()) {
    EXPECT_EQ(g->unexpected(), 0u) << g->name();
  }
  EXPECT_GT(run->model.total_hit(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothOrgs, SinkBothOrgs,
                         ::testing::Values(sim::OrgKind::Arbitrated,
                                           sim::OrgKind::EventDriven));

TEST(CoverageSinkTest, ArbitratedFigure1ExercisesArbitrationBins) {
  auto run =
      run_covered(netapp::figure1_source(), sim::OrgKind::Arbitrated, 2);
  const Covergroup* arb = run->model.find("arbitrated.arb.sequence");
  ASSERT_NE(arb, nullptr);
  // Both consumers win the shared port at some point; t2 and t3 request
  // simultaneously, so round-robin alternates and the fairness window
  // (last two winners are {C0, C1}) must close.
  EXPECT_GT(arb->find("bram0.win.C0")->hits, 0u);
  EXPECT_GT(arb->find("bram0.win.C1")->hits, 0u);
  EXPECT_GT(arb->find("bram0.fair_window")->hits, 0u);
}

TEST(CoverageSinkTest, EventDrivenFigure1VisitsEveryScheduleSlot) {
  auto run =
      run_covered(netapp::figure1_source(), sim::OrgKind::EventDriven, 2);
  const Covergroup* slots = run->model.find("eventdriven.sched.slot");
  ASSERT_NE(slots, nullptr);
  // The modulo schedule rotates through all slots regardless of demand.
  EXPECT_DOUBLE_EQ(slots->coverage_pct(), 100.0);
  const Covergroup* arb = run->model.find("eventdriven.arb.sequence");
  EXPECT_EQ(arb, nullptr);  // not declared for this organization
}

// The deliberately-unreachable fixture (tests/cover/fixtures/unreachable.hic
// drives the CLI variant): an `if (0)` body synthesizes states that are
// declared but can never execute, so coverage must report holes rather
// than silently reaching 100%.
constexpr std::string_view kUnreachableSource = R"(
thread p () {
  int d, tmp, t2;
  #consumer{md, [c,v]}
  d = f(tmp, t2);
  if (0) {
    d = f(d, tmp);
    d = f(d, tmp);
  }
}
thread c () {
  int v, w;
  #producer{md, [p,d]}
  v = g(d, w);
}
)";

TEST(CoverageSinkTest, UnreachableStatesStayHoles) {
  auto run = run_covered(kUnreachableSource, sim::OrgKind::Arbitrated, 2);
  const Covergroup* states = run->model.find("arbitrated.fsm.state");
  ASSERT_NE(states, nullptr);
  EXPECT_LT(states->coverage_pct(), 100.0);
  auto holes = states->holes();
  ASSERT_FALSE(holes.empty());
  for (const CoverBin* hole : holes) {
    // Only the dead branch's states may be missing.
    EXPECT_EQ(hole->name.rfind("p.S", 0), 0u) << hole->name;
  }
  // Reachable machinery is still covered.
  const Covergroup* pass = run->model.find("arbitrated.thread.pass");
  ASSERT_NE(pass, nullptr);
  EXPECT_DOUBLE_EQ(pass->coverage_pct(), 100.0);
}

}  // namespace
}  // namespace hicsync::cover
