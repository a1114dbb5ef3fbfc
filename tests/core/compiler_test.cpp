#include "core/compiler.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "netapp/scenarios.h"
#include "perf/profile.h"

namespace hicsync::core {
namespace {

TEST(Compiler, Figure1EndToEnd) {
  Compiler compiler;
  auto r = compiler.compile(netapp::figure1_source());
  ASSERT_TRUE(r->ok()) << r->diags().str();
  EXPECT_EQ(r->program().threads.size(), 3u);
  EXPECT_EQ(r->sema().dependencies().size(), 1u);
  EXPECT_EQ(r->fsms().size(), 3u);
  EXPECT_EQ(r->memory_map().brams().size(), 1u);
  ASSERT_EQ(r->bram_reports().size(), 1u);
  EXPECT_EQ(r->bram_reports()[0].consumers, 2);
  EXPECT_EQ(r->bram_reports()[0].producers, 1);
  EXPECT_GT(r->bram_reports()[0].area.luts, 0);
  EXPECT_GT(r->min_fmax_mhz(), 0.0);
  EXPECT_TRUE(r->deadlock_warnings().empty());
}

TEST(Compiler, ParseErrorReported) {
  Compiler compiler;
  auto r = compiler.compile("thread t () { int x; x = ; }");
  EXPECT_FALSE(r->ok());
  EXPECT_TRUE(r->diags().has_errors());
  EXPECT_TRUE(r->bram_reports().empty());
}

TEST(Compiler, SemaErrorReported) {
  Compiler compiler;
  auto r = compiler.compile("thread t () { int x; x = y; }");
  EXPECT_FALSE(r->ok());
  EXPECT_TRUE(r->diags().contains("unknown variable"));
}

TEST(Compiler, DeadlockWarningSurfaces) {
  Compiler compiler;
  auto r = compiler.compile(R"(
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
  ASSERT_TRUE(r->ok()) << r->diags().str();
  ASSERT_EQ(r->deadlock_warnings().size(), 1u);
  EXPECT_NE(r->deadlock_warnings()[0].find("potential deadlock"),
            std::string::npos);
}

TEST(Compiler, VerilogContainsControllerModule) {
  Compiler compiler;
  auto r = compiler.compile(netapp::figure1_source());
  ASSERT_TRUE(r->ok());
  std::string v = r->verilog();
  EXPECT_NE(v.find("module memorg_bram0"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(v.find("c_req0"), std::string::npos);
}

TEST(Compiler, OrganizationOptionSelectsGenerator) {
  CompileOptions arb_opts;
  arb_opts.organization = sim::OrgKind::Arbitrated;
  auto arb = Compiler(arb_opts).compile(netapp::figure1_source());
  CompileOptions ev_opts;
  ev_opts.organization = sim::OrgKind::EventDriven;
  auto ev = Compiler(ev_opts).compile(netapp::figure1_source());
  ASSERT_TRUE(arb->ok());
  ASSERT_TRUE(ev->ok());
  // The arbitrated controller exposes d_req; the event-driven one p_req.
  EXPECT_NE(arb->verilog().find("d_req0"), std::string::npos);
  EXPECT_NE(ev->verilog().find("p_req0"), std::string::npos);
  // §4 shape: event-driven is smaller and faster.
  EXPECT_LT(ev->total_overhead().luts, arb->total_overhead().luts);
  EXPECT_GT(ev->min_fmax_mhz(), arb->min_fmax_mhz());
}

TEST(Compiler, SimulatorFromResultRuns) {
  Compiler compiler;
  auto r = compiler.compile(netapp::figure1_source());
  ASSERT_TRUE(r->ok());
  auto sim = r->make_simulator();
  sim->externs().register_fn("f", [](const auto&) { return 77u; });
  sim->externs().register_fn("g",
                             [](const auto& a) { return a.at(0) + 1; });
  sim->externs().register_fn("h",
                             [](const auto& a) { return a.at(0) + 2; });
  ASSERT_TRUE(sim->run_until_passes(1, 300));
  EXPECT_EQ(sim->register_value("t2", "y1"), 78u);
  EXPECT_EQ(sim->register_value("t3", "z1"), 79u);
}

TEST(Compiler, SimulatorRejectsOrganizationMismatch) {
  // The simulator runs the compiled controllers; asking it for the other
  // organization must fail loudly, not simulate something else.
  auto r = Compiler().compile(netapp::figure1_source());
  ASSERT_TRUE(r->ok());
  sim::SystemOptions options;
  options.organization = sim::OrgKind::EventDriven;
  EXPECT_THROW((void)r->make_simulator(options), std::invalid_argument);
  options.organization = sim::OrgKind::Arbitrated;
  EXPECT_NE(r->make_simulator(options), nullptr);
}

TEST(Compiler, ScheduleChainingReducesStates) {
  const char* src = R"(
    thread t () {
      int a, b, c, d;
      a = 1;
      b = 2;
      c = 3;
      d = 4;
    }
  )";
  auto plain = Compiler().compile(src);
  CompileOptions chained_opts;
  chained_opts.schedule.chain_states = true;
  auto chained = Compiler(chained_opts).compile(src);
  ASSERT_TRUE(plain->ok());
  ASSERT_TRUE(chained->ok());
  EXPECT_GT(plain->fsm("t")->states().size(),
            chained->fsm("t")->states().size());
}

TEST(Compiler, UseCamOptionChangesArbitratedArea) {
  // With several dependencies on one BRAM, the serial scan saves LUTs.
  std::string src = R"(
    thread p () {
      int a, b, c;
      #consumer{d1, [q,u]}
      a = 1;
      #consumer{d2, [q,v]}
      b = 2;
      #consumer{d3, [q,w]}
      c = 3;
    }
    thread q () {
      int u, v, w;
      #producer{d1, [p,a]}
      u = a;
      #producer{d2, [p,b]}
      v = b;
      #producer{d3, [p,c]}
      w = c;
    }
  )";
  CompileOptions cam_opts;
  cam_opts.use_cam = true;
  CompileOptions scan_opts;
  scan_opts.use_cam = false;
  auto cam = Compiler(cam_opts).compile(src);
  auto scan = Compiler(scan_opts).compile(src);
  ASSERT_TRUE(cam->ok());
  ASSERT_TRUE(scan->ok());
  EXPECT_LE(scan->total_overhead().luts, cam->total_overhead().luts);
}

TEST(Compiler, SixteenConsumersBeyondBaselineSizing) {
  // More consumers than the fixed baseline sizing
  // (kArbitratedBaselineConsumers = 8): the registers regrow to fit and the
  // whole flow still works.
  auto r = Compiler().compile(netapp::fanout_source(16));
  ASSERT_TRUE(r->ok()) << r->diags().str();
  EXPECT_EQ(r->bram_reports()[0].consumers, 16);
  auto sim = r->make_simulator();
  sim->externs().register_fn("parse_pkt", [](const auto&) { return 9u; });
  sim->externs().register_fn(
      "classify", [](const auto& a) { return a.at(0) + a.at(1); });
  ASSERT_TRUE(sim->run_until_passes(1, 2000));
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(sim->register_value("c" + std::to_string(i),
                                  "v" + std::to_string(i)),
              9u + static_cast<std::uint64_t>(i));
  }
}

TEST(Compiler, ReportMentionsKeyFacts) {
  Compiler compiler;
  auto r = compiler.compile(netapp::figure1_source());
  std::string report = render_report(*r);
  EXPECT_NE(report.find("threads: 3"), std::string::npos);
  EXPECT_NE(report.find("mt1"), std::string::npos);
  EXPECT_NE(report.find("dependency number 2"), std::string::npos);
  EXPECT_NE(report.find("Fmax"), std::string::npos);
  EXPECT_NE(report.find("memorg_bram0"), std::string::npos);
}

TEST(Compiler, ReportOnFailureShowsDiags) {
  auto r = Compiler().compile("thread t ( { }");
  std::string report = render_report(*r);
  EXPECT_NE(report.find("FAILED"), std::string::npos);
}

TEST(Compiler, IpForwardingCompilesWithThreeControllers) {
  auto r = Compiler().compile(netapp::ip_forwarding_source());
  ASSERT_TRUE(r->ok()) << r->diags().str();
  // rx0, rx1, fwd each produce into their own BRAM cluster.
  EXPECT_EQ(r->bram_reports().size(), 3u);
  EXPECT_TRUE(r->deadlock_warnings().empty());
}

// hic-bound is strictly opt-in: a profiled lint-only compile has no
// "bound" phase unless bound.enabled is set, and has one when it is.
TEST(Compiler, BoundPhaseIsOptIn) {
  for (bool enabled : {false, true}) {
    perf::PassTimer timer;
    CompileOptions options;
    options.profiler = &timer;
    options.lint.enabled = true;
    options.lint.only = true;
    options.bound.enabled = enabled;
    auto r = Compiler(options).compile(netapp::figure1_source());
    ASSERT_TRUE(r->ok()) << r->diags().str();
    bool has_bound = false;
    for (const perf::PassTimer::Phase& p : timer.phases()) {
      has_bound = has_bound || p.name == "bound";
    }
    EXPECT_EQ(has_bound, enabled) << "bound.enabled=" << enabled;
  }
}

}  // namespace
}  // namespace hicsync::core
