// The check registry and driver: every check on a minimal hand-built
// offender, result rendering, compiler integration (expectations from the
// BramReport), the examples corpus staying clean under both organizations,
// and the Table 1/2 fan-out programs at 64/256/1024 consumers.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "netapp/scenarios.h"
#include "nlint/nlint.h"

namespace hicsync::nlint {
namespace {

using rtl::ebin;
using rtl::econst;
using rtl::emux;
using rtl::enot;
using rtl::eref;
using rtl::Module;
using rtl::RtlOp;

bool has_finding(const NlintResult& r, const std::string& check_id) {
  for (const Finding& f : r.findings) {
    if (f.check_id == check_id) return true;
  }
  return false;
}

std::unique_ptr<core::CompileResult> compile_nlint(const std::string& source,
                                                   sim::OrgKind org) {
  core::CompileOptions opts;
  opts.organization = org;
  opts.nlint.enabled = true;
  opts.source_name = "test.hic";
  core::Compiler compiler(opts);
  return compiler.compile(source);
}

TEST(NlintRegistryTest, EveryCheckHasIdSeverityAndDescription) {
  EXPECT_EQ(check_registry().size(), 10u);
  for (const CheckInfo& c : check_registry()) {
    EXPECT_EQ(std::string(c.id).rfind("nlint-", 0), 0u) << c.id;
    EXPECT_NE(std::string(c.description), "");
    EXPECT_EQ(find_check(c.id), &c);
  }
  EXPECT_EQ(find_check("nlint-no-such-check"), nullptr);
}

TEST(NlintCheckTest, UndrivenNetIsAnError) {
  // One undriven net read at each expression site kind: assign value,
  // next-state, enable, memory address, write enable and write data.
  Module m("t");
  const int ghost = m.add_wire("ghost", 1);
  const int out = m.add_output("out", 1);
  m.assign(out, eref(ghost, 1));
  const int g_next = m.add_wire("g_next", 8);
  const int q = m.add_reg("q", 8);
  m.seq(q, eref(g_next, 8));
  const int a = m.add_input("a", 8);
  const int g_en = m.add_wire("g_en", 1);
  const int p = m.add_reg("p", 8);
  m.seq(p, eref(a, 8), eref(g_en, 1));
  const int g_addr = m.add_wire("g_addr", 4);
  const int g_we = m.add_wire("g_we", 1);
  const int g_wdata = m.add_wire("g_wdata", 8);
  rtl::Memory& mem = m.add_memory("buf", 8, 16);
  rtl::MemoryPort port;
  port.addr = eref(g_addr, 4);
  port.write_enable = eref(g_we, 1);
  port.write_data = eref(g_wdata, 8);
  mem.ports.push_back(std::move(port));
  NlintResult r = run_module(m, NlintOptions{});
  for (const char* net : {"ghost", "g_next", "g_en", "g_addr", "g_we",
                          "g_wdata"}) {
    bool named = false;
    for (const Finding& f : r.findings) {
      if (f.check_id == "nlint-undriven-net" &&
          f.message.find("'" + std::string(net) + "'") != std::string::npos) {
        named = true;
      }
    }
    EXPECT_TRUE(named) << net << "\n" << r.text();
  }
  EXPECT_GT(r.errors(), 0);
}

TEST(NlintCheckTest, MultipleDriversListsEveryDriver) {
  Module m("t");
  const int a = m.add_input("a", 1);
  const int w = m.add_wire("w", 1);
  m.assign(w, eref(a, 1));
  m.assign(w, enot(eref(a, 1)));
  const int out = m.add_output("out", 1);
  m.assign(out, eref(w, 1));
  NlintResult r = run_module(m, NlintOptions{});
  ASSERT_TRUE(has_finding(r, "nlint-multiple-drivers")) << r.text();
  for (const Finding& f : r.findings) {
    if (f.check_id != "nlint-multiple-drivers") continue;
    EXPECT_NE(f.message.find("2 drivers"), std::string::npos) << f.message;
    EXPECT_NE(f.message.find("continuous assign #0"), std::string::npos);
    EXPECT_NE(f.message.find("continuous assign #1"), std::string::npos);
  }
}

TEST(NlintCheckTest, ContPlusSeqDriverConflict) {
  Module m("t");
  const int a = m.add_input("a", 1);
  const int q = m.add_reg("q", 1);
  m.assign(q, eref(a, 1));
  m.seq(q, enot(eref(a, 1)));
  const int out = m.add_output("out", 1);
  m.assign(out, eref(q, 1));
  NlintResult r = run_module(m, NlintOptions{});
  EXPECT_TRUE(has_finding(r, "nlint-multiple-drivers")) << r.text();
}

TEST(NlintCheckTest, UnreadNetIsOnlyANote) {
  Module m("t");
  const int a = m.add_input("a", 1);
  const int orphan = m.add_reg("orphan", 1);
  m.seq(orphan, eref(a, 1));
  NlintResult r = run_module(m, NlintOptions{});
  EXPECT_TRUE(has_finding(r, "nlint-unread-net")) << r.text();
  EXPECT_EQ(r.errors(), 0);  // intentional FF-inventory padding stays legal
  EXPECT_GT(r.notes(), 0);
}

TEST(NlintCheckTest, DeadConeBehindConstantSelect) {
  Module m("t");
  const int a = m.add_input("a", 8);
  const int dead = m.add_wire("dead", 8);
  const int sel = m.add_wire("sel", 1);
  m.assign(dead, enot(eref(a, 8)));
  m.assign(sel, econst(1, 1));
  const int out = m.add_output("out", 8);
  // sel folds to 1: the `dead` arm can never propagate.
  m.assign(out, emux(eref(sel, 1), eref(a, 8), eref(dead, 8)));
  NlintResult r = run_module(m, NlintOptions{});
  ASSERT_TRUE(has_finding(r, "nlint-dead-cone")) << r.text();
  for (const Finding& f : r.findings) {
    if (f.check_id == "nlint-dead-cone") {
      EXPECT_NE(f.message.find("'dead'"), std::string::npos) << f.message;
    }
  }
  EXPECT_EQ(r.errors(), 0);
}

TEST(NlintCheckTest, WidthMismatchOnAssignTarget) {
  Module m("t");
  const int a = m.add_input("a", 8);
  const int out = m.add_output("out", 16);
  m.assign(out, eref(a, 8));
  NlintResult r = run_module(m, NlintOptions{});
  EXPECT_TRUE(has_finding(r, "nlint-width-mismatch")) << r.text();
}

TEST(NlintCheckTest, SliceOutOfBounds) {
  Module m("t");
  const int a = m.add_input("a", 8);
  const int out = m.add_output("out", 4);
  m.assign(out, rtl::eslice(eref(a, 8), 10, 7));  // hi past the msb
  NlintResult r = run_module(m, NlintOptions{});
  EXPECT_TRUE(has_finding(r, "nlint-width-mismatch")) << r.text();
}

TEST(NlintCheckTest, UninitializedFeedbackRegister) {
  Module m("t");
  const int en = m.add_input("en", 1);
  const int q = m.add_reg("q", 4);
  m.seq(q, emux(eref(en, 1), ebin(RtlOp::Add, eref(q, 4), econst(1, 4)),
                eref(q, 4)),
        nullptr, 0, /*has_reset=*/false);
  const int out = m.add_output("out", 4);
  m.assign(out, eref(q, 4));
  NlintResult r = run_module(m, NlintOptions{});
  EXPECT_TRUE(has_finding(r, "nlint-uninitialized-feedback")) << r.text();
  EXPECT_EQ(r.errors(), 0);  // warning severity
}

TEST(NlintCheckTest, NoFeedbackMeansNoResetFinding) {
  Module m("t");
  const int a = m.add_input("a", 4);
  const int q = m.add_reg("q", 4);
  m.seq(q, eref(a, 4), nullptr, 0, /*has_reset=*/false);
  const int out = m.add_output("out", 4);
  m.assign(out, eref(q, 4));
  NlintResult r = run_module(m, NlintOptions{});
  EXPECT_FALSE(has_finding(r, "nlint-uninitialized-feedback")) << r.text();
}

TEST(NlintCheckTest, CensusDriftAgainstExpectations) {
  Module m("t");
  const int a = m.add_input("a", 1);
  const int q = m.add_reg("q", 4);
  m.seq(q, econst(0, 4), eref(a, 1));
  const int out = m.add_output("out", 4);
  m.assign(out, eref(q, 4));
  Expectations exp;
  exp.org = Expectations::Org::Arbitrated;
  exp.ffs = 7;  // the module actually has 4
  NlintResult r = run_module(m, NlintOptions{}, &exp);
  ASSERT_TRUE(has_finding(r, "nlint-census-drift")) << r.text();
  for (const Finding& f : r.findings) {
    if (f.check_id == "nlint-census-drift") {
      EXPECT_NE(f.message.find("netlist has 4"), std::string::npos);
      EXPECT_NE(f.message.find("model expects 7"), std::string::npos);
    }
  }
}

TEST(NlintCheckTest, CheckSelectionFilters) {
  Module m("t");
  const int ghost = m.add_wire("ghost", 1);
  const int out = m.add_output("out", 16);
  m.assign(out, eref(ghost, 1));  // undriven AND width-mismatched
  NlintOptions only_width;
  only_width.checks = {"nlint-width-mismatch"};
  NlintResult r = run_module(m, only_width);
  EXPECT_TRUE(has_finding(r, "nlint-width-mismatch"));
  EXPECT_FALSE(has_finding(r, "nlint-undriven-net"));
}

TEST(NlintCheckTest, FindingsNameDriversAndWidthSites) {
  // Every driver kind and every width-check site, message for message.
  Module m("t");
  const int a = m.add_input("a", 8);
  const int e2 = m.add_input("e2", 2);
  const int b = m.add_input("b", 4);
  const int out = m.add_output("out", 16);
  m.assign(out, eref(a, 8));
  const int q = m.add_reg("q", 4);
  m.seq(q, eref(a, 8), eref(a, 1));
  const int r = m.add_reg("r", 4);
  m.seq(r, eref(b, 4), eref(e2, 2));
  rtl::Memory& mem = m.add_memory("ram", 8, 4);
  const int rd = m.add_wire("rd", 8);
  mem.ports.push_back({eref(a, 2), eref(e2, 2), eref(b, 4), rd});
  mem.ports.push_back({eref(b, 2), eref(b, 1), eref(b, 8), -1});
  m.assign(rd, eref(a, 8));
  const int d = m.add_wire("d", 1);
  m.assign(d, econst(0, 1));
  m.assign(d, econst(1, 1));
  m.assign(q, eref(b, 4));
  m.assign(a, econst(3, 8));
  const int o2 = m.add_output("o2", 1);
  m.assign(o2, eref(d, 1));
  NlintOptions opts;
  opts.checks = {"nlint-width-mismatch", "nlint-multiple-drivers"};
  NlintResult res = run_module(m, opts);
  std::vector<std::string> got;
  for (const Finding& f : res.findings) got.push_back(f.message);
  const std::vector<std::string> want = {
      "net 'a' has 2 drivers: continuous assign #5, input port",
      "net 'q' has 2 drivers: continuous assign #4, sequential assign #0",
      "net 'rd' has 2 drivers: continuous assign #1, memory read port",
      "net 'd' has 2 drivers: continuous assign #2, continuous assign #3",
      "assign to 'out': value is 8-bit for a 16-bit net",
      "next-state of 'q': value is 8-bit for a 4-bit register",
      "next-state of 'q' (enable): reference to 8-bit net 'a' typed as "
      "1-bit",
      "next-state of 'r': enable is 2-bit (must be 1-bit)",
      "memory 'ram' port 0 (address): reference to 8-bit net 'a' typed as "
      "2-bit",
      "memory 'ram' port 0: write enable is 2-bit (must be 1-bit)",
      "memory 'ram' port 0: write data is 4-bit for a 8-bit memory",
      "memory 'ram' port 1 (address): reference to 4-bit net 'b' typed as "
      "2-bit",
      "memory 'ram' port 1 (write enable): reference to 4-bit net 'b' "
      "typed as 1-bit",
      "memory 'ram' port 1 (write data): reference to 4-bit net 'b' typed "
      "as 8-bit",
  };
  EXPECT_EQ(got, want);
}

TEST(NlintResultTest, TextAndJsonRenderFindings) {
  Module m("t");
  const int ghost = m.add_wire("ghost", 1);
  const int out = m.add_output("out", 1);
  m.assign(out, eref(ghost, 1));
  NlintResult r = run_module(m, NlintOptions{});
  EXPECT_NE(r.text().find("nlint-undriven-net"), std::string::npos);
  EXPECT_NE(r.json().find("\"check\":\"nlint-undriven-net\""),
            std::string::npos);
  EXPECT_NE(r.json().find("\"module\":\"t\""), std::string::npos);
}

// --- compiler integration ------------------------------------------------

TEST(NlintCompilerTest, GeneratedControllersAreCleanBothOrgs) {
  const std::string source = netapp::fanout_source(4);
  for (sim::OrgKind org :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    auto result = compile_nlint(source, org);
    ASSERT_TRUE(result->ok());
    const NlintResult& nr = result->nlint_result();
    EXPECT_EQ(nr.errors(), 0) << nr.text();
    EXPECT_EQ(result->nlint_error_count(), 0u);
    ASSERT_FALSE(nr.modules.empty());
    for (const ModuleSummary& ms : nr.modules) {
      EXPECT_GT(ms.claims_total, 0) << ms.module;
      EXPECT_EQ(ms.claims_proved, ms.claims_total) << nr.text();
      EXPECT_EQ(ms.claims_refuted, 0);
      EXPECT_EQ(ms.claims_inconclusive, 0);
    }
  }
}

TEST(NlintCompilerTest, FindingsFlowIntoDiagnosticsUnderCheckIds) {
  // nlint diagnostics carry their check IDs through the shared engine, so
  // -W style tooling and the JSON diagnostics interface see them.
  auto result = compile_nlint(netapp::fanout_source(2),
                              sim::OrgKind::Arbitrated);
  ASSERT_TRUE(result->ok());
  // A clean compile reports no nlint diagnostics at all.
  EXPECT_EQ(result->diags().check_count("nlint-comb-loop"), 0u);
  EXPECT_EQ(result->nlint_error_count(), 0u);
}

TEST(NlintCompilerTest, LintOnlyStopsBeforeGeneration) {
  // lint.only ends the flow after port planning even with nlint enabled:
  // no controllers are generated, so the netlist pass has nothing to see.
  core::CompileOptions opts;
  opts.nlint.enabled = true;
  opts.lint.enabled = true;
  opts.lint.only = true;
  core::Compiler compiler(opts);
  auto result = compiler.compile(netapp::fanout_source(2));
  ASSERT_TRUE(result->ok());
  EXPECT_TRUE(result->controllers().empty());
  EXPECT_TRUE(result->nlint_result().modules.empty());
}

TEST(NlintCompilerTest, ExamplesCorpusCleanBothOrgs) {
  int examples = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(HICSYNC_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".hic") continue;
    ++examples;
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    for (sim::OrgKind org :
         {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
      auto result = compile_nlint(ss.str(), org);
      ASSERT_TRUE(result->ok()) << entry.path();
      const NlintResult& nr = result->nlint_result();
      EXPECT_EQ(nr.errors(), 0) << entry.path() << "\n" << nr.text();
      EXPECT_EQ(nr.claims_inconclusive(), 0)
          << entry.path() << "\n" << nr.text();
    }
  }
  EXPECT_GT(examples, 0);
}

class NlintScalingTest : public ::testing::TestWithParam<int> {};

TEST_P(NlintScalingTest, FanoutProvedAtEveryWidth) {
  const int n = GetParam();
  const std::string source = netapp::fanout_source(n);
  for (sim::OrgKind org :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    auto result = compile_nlint(source, org);
    ASSERT_TRUE(result->ok());
    const NlintResult& nr = result->nlint_result();
    EXPECT_EQ(nr.errors(), 0) << n << "\n" << nr.text();
    ASSERT_EQ(nr.modules.size(), 1u);
    // Every claim settled — comb-loop freedom, single grant, width
    // consistency and the census all hold at every fan-out width, with
    // no claim left to an inconclusive verdict.
    EXPECT_EQ(nr.modules[0].claims_proved, nr.modules[0].claims_total) << n;
    EXPECT_EQ(nr.modules[0].claims_inconclusive, 0) << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, NlintScalingTest,
                         ::testing::Values(64, 256, 1024));

}  // namespace
}  // namespace hicsync::nlint
