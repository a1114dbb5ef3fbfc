#include "cover/model.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/compiler.h"
#include "netapp/scenarios.h"

namespace hicsync::cover {
namespace {

TEST(CovergroupTest, DeclareHitAndCoverage) {
  Covergroup g("g", "a test group");
  g.declare("a");
  g.declare("b");
  g.declare("a");  // idempotent: no duplicate bin
  ASSERT_EQ(g.bins().size(), 2u);
  EXPECT_EQ(g.hit_bins(), 0u);
  EXPECT_DOUBLE_EQ(g.coverage_pct(), 0.0);

  EXPECT_TRUE(g.hit("a"));
  EXPECT_TRUE(g.hit("a", 3));
  EXPECT_EQ(g.find("a")->hits, 4u);
  EXPECT_EQ(g.hit_bins(), 1u);
  EXPECT_DOUBLE_EQ(g.coverage_pct(), 50.0);

  // Hits in declaration percentage count bins, not totals.
  EXPECT_TRUE(g.hit("b"));
  EXPECT_DOUBLE_EQ(g.coverage_pct(), 100.0);
}

TEST(CovergroupTest, UndeclaredHitIsCountedNotAbsorbed) {
  Covergroup g("g", "");
  g.declare("a");
  EXPECT_FALSE(g.hit("zzz"));
  EXPECT_EQ(g.unexpected(), 1u);
  EXPECT_EQ(g.bins().size(), 1u);  // no bin materialized for the stray hit
  EXPECT_EQ(g.find("zzz"), nullptr);
}

TEST(CovergroupTest, HolesInDeclarationOrder) {
  Covergroup g("g", "");
  g.declare("z");
  g.declare("m");
  g.declare("a");
  EXPECT_TRUE(g.hit("m"));
  auto holes = g.holes();
  ASSERT_EQ(holes.size(), 2u);
  EXPECT_EQ(holes[0]->name, "z");
  EXPECT_EQ(holes[1]->name, "a");
}

TEST(CovergroupTest, EmptyGroupIsVacuouslyCovered) {
  Covergroup g("g", "");
  EXPECT_DOUBLE_EQ(g.coverage_pct(), 100.0);
  EXPECT_TRUE(g.holes().empty());
}

TEST(CoverageModelTest, GroupsCreateOnDemandAndSortByName) {
  CoverageModel m;
  m.group("b.group", "second");
  m.group("a.group", "first");
  // Re-asking must return the same group, not reset it.
  m.group("a.group").declare("bin");
  auto groups = m.groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0]->name(), "a.group");
  EXPECT_EQ(groups[1]->name(), "b.group");
  EXPECT_EQ(groups[0]->description(), "first");
  ASSERT_NE(m.find("a.group"), nullptr);
  EXPECT_EQ(m.find("a.group")->bins().size(), 1u);
  EXPECT_EQ(m.find("nope"), nullptr);
}

TEST(CoverageModelTest, HitConvenienceAndTotals) {
  CoverageModel m;
  m.group("g").declare("a");
  m.group("g").declare("b");
  m.group("h").declare("c");
  EXPECT_TRUE(m.hit("g", "a"));
  EXPECT_FALSE(m.hit("missing.group", "a"));
  EXPECT_EQ(m.total_bins(), 3u);
  EXPECT_EQ(m.total_hit(), 1u);
  EXPECT_NEAR(m.coverage_pct(), 100.0 / 3.0, 1e-9);
}

TEST(OrgPrefixTest, BothOrganizations) {
  EXPECT_STREQ(org_prefix(sim::OrgKind::Arbitrated), "arbitrated");
  EXPECT_STREQ(org_prefix(sim::OrgKind::EventDriven), "eventdriven");
}

// inputs_from must recover the controller shape the sink and the specs key
// off: figure 1 has one BRAM with one dependency, two consumers, one
// producer, and no plain port-A traffic.
TEST(ModelInputsTest, DerivedFromFigure1Compilation) {
  core::CompileOptions options;
  auto result = core::Compiler(options).compile(netapp::figure1_source());
  ASSERT_TRUE(result->ok()) << result->diags().str();

  const ModelInputs in =
      inputs_from(sim::OrgKind::Arbitrated, result->fsms(),
                  result->controllers());
  EXPECT_EQ(in.organization, sim::OrgKind::Arbitrated);
  ASSERT_NE(in.fsms, nullptr);
  EXPECT_EQ(in.fsms->size(), 3u);
  ASSERT_EQ(in.controllers.size(), 1u);
  const ControllerModel& c = in.controllers[0];
  EXPECT_EQ(c.bram_id, 0);
  EXPECT_EQ(c.num_consumers, 2);
  EXPECT_EQ(c.num_producers, 1);
  EXPECT_FALSE(c.has_port_a);
  ASSERT_EQ(c.deps.size(), 1u);
  EXPECT_EQ(c.deps[0].id, "mt1");
  // Schedule: one producer slot + one slot per consumer port.
  EXPECT_EQ(c.total_slots, 3);
}

}  // namespace
}  // namespace hicsync::cover
