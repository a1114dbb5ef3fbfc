// Cross-cutting equivalence properties over randomized programs:
//  * the two memory organizations compute identical results (they differ
//    in timing/area, never in values);
//  * operation chaining (the scheduler) preserves semantics;
//  * inferred dependencies behave exactly like explicit pragmas.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/compiler.h"
#include "support/rng.h"

namespace hicsync::core {
namespace {

/// Deterministic random fanout program: one producer computing a chain of
/// arithmetic on locals, N consumers each applying a random operation to
/// the shared value. The producer's first two assignments are independent
/// register writes, so operation chaining merges them into one state.
std::string random_program(support::Rng& rng, int consumers) {
  std::string src = "thread p () {\n  int data, t0, t1, t2;\n";
  src += "  t0 = " + std::to_string(rng.next_range(1, 100)) + ";\n";
  src += "  t2 = " + std::to_string(rng.next_range(1, 100)) + ";\n";
  src += "  t1 = t0 * " + std::to_string(rng.next_range(2, 9)) + " + " +
         std::to_string(rng.next_range(0, 50)) + ";\n";
  src += "  #consumer{m";
  for (int i = 0; i < consumers; ++i) {
    src += ", [c" + std::to_string(i) + ",v" + std::to_string(i) + "]";
  }
  src += "}\n  data = (t1 ^ " + std::to_string(rng.next_range(0, 255)) +
         ") + t2;\n}\n";
  const char* ops[] = {"+", "*", "^", "-", "&", "|"};
  for (int i = 0; i < consumers; ++i) {
    std::string n = std::to_string(i);
    std::string op = ops[rng.next_below(6)];
    src += "thread c" + n + " () {\n  int v" + n +
           ";\n  #producer{m, [p,data]}\n  v" + n + " = data " + op + " " +
           std::to_string(rng.next_range(1, 64)) + ";\n}\n";
  }
  return src;
}

std::size_t state_count(const CompileResult& r) {
  std::size_t n = 0;
  for (const auto& fsm : r.fsms()) n += fsm.states().size();
  return n;
}

/// Precondition of the chaining tests: chaining must actually merge
/// states in `src`, or the two runs compared are the same run.
void expect_chaining_fires(const std::string& src) {
  CompileOptions chained;
  chained.schedule.chain_states = true;
  auto plain = Compiler().compile(src);
  auto merged = Compiler(chained).compile(src);
  ASSERT_TRUE(plain->ok() && merged->ok());
  ASSERT_LT(state_count(*merged), state_count(*plain)) << src;
}

std::map<std::string, std::uint64_t> run_and_collect(
    const std::string& src, const CompileOptions& options, int consumers) {
  auto r = Compiler(options).compile(src);
  EXPECT_TRUE(r->ok()) << r->diags().str();
  auto sim = r->make_simulator();
  EXPECT_TRUE(sim->run_until_passes(1, 2000));
  std::map<std::string, std::uint64_t> values;
  for (int i = 0; i < consumers; ++i) {
    std::string t = "c" + std::to_string(i);
    values[t] = sim->register_value(t, "v" + std::to_string(i));
  }
  return values;
}

class RandomProgramEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramEquivalence, OrganizationsComputeSameValues) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const int consumers = static_cast<int>(rng.next_range(2, 6));
  const std::string src = random_program(rng, consumers);

  CompileOptions arb;
  arb.organization = sim::OrgKind::Arbitrated;
  CompileOptions ev;
  ev.organization = sim::OrgKind::EventDriven;
  auto a = run_and_collect(src, arb, consumers);
  auto b = run_and_collect(src, ev, consumers);
  EXPECT_EQ(a, b) << src;
  // And the values are nonzero-ish sanity: at least one consumer saw data.
  bool any = false;
  for (const auto& [t, v] : a) any |= (v != 0);
  EXPECT_TRUE(any);
}

TEST_P(RandomProgramEquivalence, ChainingPreservesSemantics) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const int consumers = static_cast<int>(rng.next_range(2, 5));
  const std::string src = random_program(rng, consumers);
  expect_chaining_fires(src);

  CompileOptions plain;
  CompileOptions chained;
  chained.schedule.chain_states = true;
  auto a = run_and_collect(src, plain, consumers);
  auto b = run_and_collect(src, chained, consumers);
  EXPECT_EQ(a, b) << src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramEquivalence,
                         ::testing::Range(1, 9));

TEST(Equivalence, InferenceMatchesExplicitPragmasEndToEnd) {
  // The same computation written with pragmas vs inferred: identical
  // consumer results and identical controller structure.
  const char* with_pragmas = R"(
    thread p () {
      int data;
      #consumer{m, [c0,v0], [c1,v1]}
      data = f();
    }
    thread c0 () {
      int v0;
      #producer{m, [p,data]}
      v0 = data + 1;
    }
    thread c1 () {
      int v1;
      #producer{m, [p,data]}
      v1 = data + 2;
    }
  )";
  const char* without_pragmas = R"(
    thread p () { int data; data = f(); }
    thread c0 () { int v0; v0 = data + 1; }
    thread c1 () { int v1; v1 = data + 2; }
  )";
  auto run = [](const char* src, bool infer) {
    CompileOptions options;
    options.infer_dependencies = infer;
    auto r = Compiler(options).compile(src);
    EXPECT_TRUE(r->ok()) << r->diags().str();
    auto sim = r->make_simulator();
    sim->externs().register_fn("f", [](const auto&) { return 500u; });
    EXPECT_TRUE(sim->run_until_passes(1, 1000));
    return std::pair{sim->register_value("c0", "v0"),
                     sim->register_value("c1", "v1")};
  };
  auto a = run(with_pragmas, false);
  auto b = run(without_pragmas, true);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(a.first, 501u);
  EXPECT_EQ(a.second, 502u);
}

TEST(Equivalence, ChainingNeverSlowsSimulation) {
  support::Rng rng(42);
  for (int trial = 0; trial < 3; ++trial) {
    const int consumers = 3;
    const std::string src = random_program(rng, consumers);
    CompileOptions plain;
    CompileOptions chained;
    chained.schedule.chain_states = true;
    auto rp = Compiler(plain).compile(src);
    auto rc = Compiler(chained).compile(src);
    ASSERT_TRUE(rp->ok());
    ASSERT_TRUE(rc->ok());
    ASSERT_LT(state_count(*rc), state_count(*rp)) << src;
    auto sp = rp->make_simulator();
    auto sc = rc->make_simulator();
    ASSERT_TRUE(sp->run_until_passes(1, 2000));
    ASSERT_TRUE(sc->run_until_passes(1, 2000));
    EXPECT_LE(sc->cycle(), sp->cycle()) << src;
  }
}

}  // namespace
}  // namespace hicsync::core
