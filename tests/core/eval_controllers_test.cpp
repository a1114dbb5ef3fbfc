// Differential test of the netlist evaluator over the generated
// controllers: every controller the compiler builds for the §4 fan-out
// (netapp::fanout_source(n), n = 2, 8 and 32, both organizations) is driven
// with seeded random inputs and resets, and after every settle and every
// clock edge each of ModuleSim's nets and memory words must equal the
// reference model's (tests/rtl/reference_eval.h), which interprets the
// netlist directly. The one-hot muxes and OR trees these controllers are
// built from are what the evaluator's OrSel lowering fuses; the random
// inputs raise several requests at once, so the OR trees over requests
// see several terms high.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "../rtl/reference_eval.h"
#include "core/compiler.h"
#include "netapp/scenarios.h"
#include "rtl/eval.h"
#include "support/rng.h"

namespace hicsync::core {
namespace {

using rtl::ModuleSim;
using rtl::ref::ModuleModel;

::testing::AssertionResult same_state(const rtl::Module& m,
                                      const ModuleSim& sim,
                                      const ModuleModel& model) {
  for (const rtl::Net& n : m.nets()) {
    if (sim.get(n.id) != model.get(n.id)) {
      return ::testing::AssertionFailure()
             << "net " << n.name << ": ModuleSim " << sim.get(n.id)
             << ", reference " << model.get(n.id);
    }
  }
  for (std::size_t k = 0; k < m.memories().size(); ++k) {
    const rtl::Memory& mem = m.memories()[k];
    for (std::size_t a = 0; a < static_cast<std::size_t>(mem.depth); ++a) {
      if (sim.read_mem(mem.name, a) != model.word(k, a)) {
        return ::testing::AssertionFailure()
               << mem.name << "[" << a << "]: ModuleSim "
               << sim.read_mem(mem.name, a) << ", reference "
               << model.word(k, a);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

class EvalControllers
    : public ::testing::TestWithParam<std::tuple<int, sim::OrgKind>> {};

TEST_P(EvalControllers, MatchReferenceEverySettleAndEdge) {
  const auto [consumers, organization] = GetParam();
  CompileOptions options;
  options.organization = organization;
  auto compiled =
      Compiler(options).compile(netapp::fanout_source(consumers));
  ASSERT_TRUE(compiled->ok()) << compiled->diags().str();
  ASSERT_FALSE(compiled->controllers().empty());
  for (const auto& controller : compiled->controllers()) {
    const rtl::Module& m = *controller.module;
    ModuleSim sim(m);
    ModuleModel model(m);
    model.settle();
    ASSERT_TRUE(same_state(m, sim, model)) << m.name() << " at construction";
    std::vector<const rtl::Net*> inputs;
    int rst = -1;
    for (const rtl::Port& p : m.ports()) {
      if (p.dir != rtl::PortDir::Input) continue;
      if (m.net(p.net).name == "rst") {
        rst = p.net;
      } else {
        inputs.push_back(&m.net(p.net));
      }
    }
    ASSERT_GE(rst, 0) << m.name() << " has no rst input";
    support::Rng rng(static_cast<std::uint64_t>(consumers) * 7919u +
                     (organization == sim::OrgKind::Arbitrated ? 1 : 2));
    for (int cycle = 0; cycle < 2000; ++cycle) {
      // Requests and valids are 1-bit inputs: high half the time, so
      // several pseudo-ports ask at once; wider inputs take any value.
      for (const rtl::Net* n : inputs) {
        const std::uint64_t v =
            n->width == 1 ? (rng.next_bool(0.5) ? 1 : 0) : rng.next_u64();
        sim.set_input(n->id, v);
        model.set(n->id, v);
      }
      const std::uint64_t in_reset = cycle == 0 || rng.next_bool(0.01);
      sim.set_input(rst, in_reset);
      model.set(rst, in_reset);
      sim.settle();
      model.settle();
      ASSERT_TRUE(same_state(m, sim, model))
          << m.name() << " cycle " << cycle << " after the settle";
      sim.step_edge();
      model.edge();
      ASSERT_TRUE(same_state(m, sim, model))
          << m.name() << " cycle " << cycle << " after the edge";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FanoutBothOrgs, EvalControllers,
    ::testing::Combine(::testing::Values(2, 8, 32),
                       ::testing::Values(sim::OrgKind::Arbitrated,
                                         sim::OrgKind::EventDriven)),
    [](const ::testing::TestParamInfo<std::tuple<int, sim::OrgKind>>& info) {
      return std::string(std::get<1>(info.param) == sim::OrgKind::Arbitrated
                             ? "arb"
                             : "ed") +
             std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace hicsync::core
