#include "analysis/access.h"

#include <gtest/gtest.h>

#include "../hic/hic_test_util.h"

namespace hicsync::analysis {
namespace {

using hic::testing::compile;
using hic::testing::kFigure1;

struct Built {
  std::unique_ptr<hic::testing::Compiled> c;
  std::vector<std::vector<Access>> accesses;  // one list per thread
};

Built build(const std::string& src) {
  Built b;
  b.c = compile(src);
  EXPECT_TRUE(b.c->ok) << b.c->diags.str();
  for (const auto& t : b.c->program.threads) {
    b.accesses.push_back(collect_accesses(Cfg::build(t)));
  }
  return b;
}

TEST(UseDef, CountsDefsAndUses) {
  auto b = build("thread t () { int a, x; a = 1; x = a + a; }");
  int defs = 0;
  int uses = 0;
  for (const Access& a : b.accesses[0]) ++(a.is_def ? defs : uses);
  EXPECT_EQ(defs, 2);  // a, x
  EXPECT_EQ(uses, 2);  // a twice
}

TEST(UseDef, UsesPrecedeTheDefInOneAssign) {
  auto b = build("thread t () { int tbl[4], i, x; tbl[i] = x; }");
  const auto& acc = b.accesses[0];
  ASSERT_EQ(acc.size(), 3u);
  EXPECT_EQ(acc[0].symbol->name(), "x");  // right-hand side first
  EXPECT_FALSE(acc[0].is_def);
  EXPECT_EQ(acc[1].symbol->name(), "tbl");  // then the target's base
  EXPECT_TRUE(acc[1].is_def);
  EXPECT_EQ(acc[2].symbol->name(), "i");  // a subscript is a use
  EXPECT_FALSE(acc[2].is_def);
}

TEST(UseDef, BranchConditionCountsAsUse) {
  auto b = build(R"(
    thread t () {
      int c, x;
      c = 1;
      if (c == 1) x = 2;
    }
  )");
  int uses_of_c = 0;
  for (const Access& a : b.accesses[0]) {
    if (!a.is_def && a.symbol->name() == "c") ++uses_of_c;
  }
  EXPECT_EQ(uses_of_c, 1);
}

TEST(UseDef, InterThreadReadsDetected) {
  auto b = build(kFigure1);
  // t2 (index 1) reads t1.x1, a symbol owned by another thread.
  std::vector<const Access*> cross;
  for (const Access& a : b.accesses[1]) {
    if (a.symbol->thread() != "t2") cross.push_back(&a);
  }
  ASSERT_EQ(cross.size(), 1u);
  EXPECT_FALSE(cross[0]->is_def);
  EXPECT_EQ(cross[0]->symbol->qualified_name(), "t1.x1");
  // t1 (producer) touches only its own symbols.
  for (const Access& a : b.accesses[0]) EXPECT_EQ(a.symbol->thread(), "t1");
}

}  // namespace
}  // namespace hicsync::analysis
