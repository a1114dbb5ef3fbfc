#include "cover/registry.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/compiler.h"
#include "netapp/scenarios.h"

#ifndef HICSYNC_BOUND_FIXTURES_DIR
#error "HICSYNC_BOUND_FIXTURES_DIR must point at tests/bound/fixtures"
#endif

namespace hicsync::cover {
namespace {

ModelInputs figure1_inputs(const core::CompileResult& result,
                           sim::OrgKind org) {
  return inputs_from(org, result.fsms(), result.controllers());
}

std::unique_ptr<core::CompileResult> compile_figure1(sim::OrgKind org) {
  core::CompileOptions options;
  options.organization = org;
  auto result = core::Compiler(options).compile(netapp::figure1_source());
  EXPECT_TRUE(result->ok()) << result->diags().str();
  return result;
}

TEST(CoverRegistryTest, BuiltinCatalogueIsComplete) {
  const CoverRegistry& reg = CoverRegistry::builtin();
  EXPECT_EQ(reg.specs().size(), 10u);
  for (const auto& info : reg.infos()) {
    EXPECT_NE(info.id, nullptr);
    EXPECT_GT(std::string(info.description).size(), 0u) << info.id;
    // A spec cannot be exclusive to both organizations at once.
    EXPECT_FALSE(info.arbitrated_only && info.eventdriven_only) << info.id;
  }
  ASSERT_NE(reg.find("fsm.state"), nullptr);
  ASSERT_NE(reg.find("arb.sequence"), nullptr);
  EXPECT_TRUE(reg.find("arb.sequence")->info().arbitrated_only);
  ASSERT_NE(reg.find("sched.slot"), nullptr);
  EXPECT_TRUE(reg.find("sched.slot")->info().eventdriven_only);
  EXPECT_EQ(reg.find("no.such.group"), nullptr);
}

TEST(CoverRegistryTest, AppliesFollowsOrganizationRestriction) {
  const CoverRegistry& reg = CoverRegistry::builtin();
  EXPECT_TRUE(reg.find("fsm.state")->applies(sim::OrgKind::Arbitrated));
  EXPECT_TRUE(reg.find("fsm.state")->applies(sim::OrgKind::EventDriven));
  EXPECT_TRUE(reg.find("arb.sequence")->applies(sim::OrgKind::Arbitrated));
  EXPECT_FALSE(reg.find("arb.sequence")->applies(sim::OrgKind::EventDriven));
  EXPECT_FALSE(reg.find("sched.slot")->applies(sim::OrgKind::Arbitrated));
  EXPECT_TRUE(reg.find("sched.slot")->applies(sim::OrgKind::EventDriven));
}

TEST(QualifiedNameTest, PrefixesTheOrganization) {
  EXPECT_EQ(qualified_name(sim::OrgKind::Arbitrated, "fsm.state"),
            "arbitrated.fsm.state");
  EXPECT_EQ(qualified_name(sim::OrgKind::EventDriven, "sched.slot"),
            "eventdriven.sched.slot");
}

TEST(BinNamesTest, Conventions) {
  EXPECT_EQ(bins::port(0, trace::PortKind::C, 1), "bram0.C1");
  EXPECT_EQ(bins::port(2, trace::PortKind::D, 0), "bram2.D0");
  EXPECT_EQ(bins::port(1, trace::PortKind::A, -1), "bram1.A");
  EXPECT_EQ(bins::fsm_state("t1", 4), "t1.S4");
  EXPECT_EQ(bins::fsm_transition("t1", 0, 3), "t1.S0toS3");
}

TEST(BinNamesTest, LatencyBucketBoundaries) {
  EXPECT_EQ(bins::latency_bucket(0), "le2");
  EXPECT_EQ(bins::latency_bucket(2), "le2");
  EXPECT_EQ(bins::latency_bucket(3), "le4");
  EXPECT_EQ(bins::latency_bucket(8), "le8");
  EXPECT_EQ(bins::latency_bucket(64), "le64");
  EXPECT_EQ(bins::latency_bucket(65), "gt64");
  EXPECT_EQ(bins::latency_bucket(100000), "gt64");
}

// Declaration is exhaustive and up front: every FSM state of every thread
// gets a bin before any simulation runs — that is what makes never-executed
// states observable as holes.
TEST(DeclareModelTest, ArbitratedFigure1DeclaresTheFullSpace) {
  auto result = compile_figure1(sim::OrgKind::Arbitrated);
  CoverageModel model;
  declare_model(CoverRegistry::builtin(),
                figure1_inputs(*result, sim::OrgKind::Arbitrated), model);

  const Covergroup* states = model.find("arbitrated.fsm.state");
  ASSERT_NE(states, nullptr);
  std::size_t fsm_states = 0;
  for (const synth::ThreadFsm& fsm : result->fsms()) {
    fsm_states += fsm.states().size();
  }
  EXPECT_EQ(states->bins().size(), fsm_states);
  EXPECT_NE(states->find("t1.S0"), nullptr);

  // Port × stall-cause cross is organization-aware: the arbitrated
  // controller can lose arbitration but never waits on a schedule slot.
  const Covergroup* stalls = model.find("arbitrated.port.stall");
  ASSERT_NE(stalls, nullptr);
  EXPECT_NE(stalls->find("bram0.C0.arbitration-loss"), nullptr);
  EXPECT_NE(stalls->find("bram0.C1.dependency-not-produced"), nullptr);
  EXPECT_NE(stalls->find("bram0.D0.arbitration-loss"), nullptr);
  EXPECT_EQ(stalls->find("bram0.C0.not-our-slot"), nullptr);

  // Two consumers: win singles, all four ordered pairs, one fair window.
  const Covergroup* arb = model.find("arbitrated.arb.sequence");
  ASSERT_NE(arb, nullptr);
  EXPECT_NE(arb->find("bram0.win.C0"), nullptr);
  EXPECT_NE(arb->find("bram0.win.C1"), nullptr);
  EXPECT_NE(arb->find("bram0.pair.C0toC1"), nullptr);
  EXPECT_NE(arb->find("bram0.pair.C1toC1"), nullptr);
  EXPECT_NE(arb->find("bram0.fair_window"), nullptr);

  // Restart edge is declared alongside the static transitions.
  const Covergroup* trans = model.find("arbitrated.fsm.transition");
  ASSERT_NE(trans, nullptr);
  EXPECT_NE(trans->find("t1.restart"), nullptr);

  // No event-driven group may leak into an arbitrated model.
  EXPECT_EQ(model.find("eventdriven.fsm.state"), nullptr);
  EXPECT_EQ(model.find("arbitrated.sched.slot"), nullptr);
}

TEST(DeclareModelTest, EventDrivenFigure1DeclaresSlotsNotArbitration) {
  auto result = compile_figure1(sim::OrgKind::EventDriven);
  CoverageModel model;
  declare_model(CoverRegistry::builtin(),
                figure1_inputs(*result, sim::OrgKind::EventDriven), model);

  EXPECT_EQ(model.find("eventdriven.arb.sequence"), nullptr);
  const Covergroup* slots = model.find("eventdriven.sched.slot");
  ASSERT_NE(slots, nullptr);
  // mt1: 1 producer slot + 2 consumer slots.
  EXPECT_EQ(slots->bins().size(), 3u);
  EXPECT_NE(slots->find("bram0.slot0"), nullptr);
  EXPECT_NE(slots->find("bram0.slot2"), nullptr);

  // The static schedule cannot lose arbitration; it waits on its slot.
  const Covergroup* stalls = model.find("eventdriven.port.stall");
  ASSERT_NE(stalls, nullptr);
  EXPECT_NE(stalls->find("bram0.C0.not-our-slot"), nullptr);
  EXPECT_EQ(stalls->find("bram0.C0.arbitration-loss"), nullptr);
}

// The model is declared from the controllers the compile built, so a
// hic-bound sizing hint that pruned dead_dep.hic's `dead` entry and t3's C1
// pseudo-port prunes their bins too: no dependency cross, round latency,
// port or occupancy bin is left that the simulated controller cannot hit.
std::vector<std::string> dead_dep_bins(sim::OrgKind org, bool bound) {
  std::ifstream in(std::string(HICSYNC_BOUND_FIXTURES_DIR) + "/dead_dep.hic");
  std::ostringstream source;
  source << in.rdbuf();
  core::CompileOptions options;
  options.organization = org;
  options.bound.enabled = bound;
  auto result = core::Compiler(options).compile(source.str());
  EXPECT_TRUE(result->ok()) << result->diags().str();
  CoverageModel model;
  declare_model(CoverRegistry::builtin(),
                inputs_from(org, result->fsms(), result->controllers()),
                model);
  std::vector<std::string> bins;
  for (const Covergroup* g : model.groups()) {
    for (const CoverBin& b : g->bins()) {
      bins.push_back(g->name() + ":" + b.name);
    }
  }
  return bins;
}

bool has_bin(const std::vector<std::string>& bins, const std::string& part) {
  for (const std::string& b : bins) {
    if (b.find(part) != std::string::npos) return true;
  }
  return false;
}

TEST(CoverRegistryTest, BoundPrunedEntryDeclaresNoBins) {
  for (sim::OrgKind org :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    const std::vector<std::string> unpruned = dead_dep_bins(org, false);
    const std::vector<std::string> pruned = dead_dep_bins(org, true);
    for (const char* part :
         {":dead.C1", ":dead.le", ":bram0.C1.grant", "occupancy:bram0.open2"}) {
      EXPECT_TRUE(has_bin(unpruned, part)) << part;
      EXPECT_FALSE(has_bin(pruned, part)) << part;
    }
    EXPECT_TRUE(has_bin(pruned, ":live.C0"));
    EXPECT_TRUE(has_bin(pruned, "occupancy:bram0.open1"));
  }
}

}  // namespace
}  // namespace hicsync::cover
