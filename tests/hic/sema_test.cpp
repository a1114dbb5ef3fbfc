#include "hic/sema.h"

#include <gtest/gtest.h>

#include "hic_test_util.h"

namespace hicsync::hic {
namespace {

using testing::compile;
using testing::kFigure1;

TEST(Sema, Figure1BindsOneDependency) {
  auto c = compile(kFigure1);
  ASSERT_TRUE(c->ok) << c->diags.str();
  const auto& deps = c->sema->dependencies();
  ASSERT_EQ(deps.size(), 1u);
  const Dependency& d = deps[0];
  EXPECT_EQ(d.id, "mt1");
  EXPECT_EQ(d.producer_thread, "t1");
  ASSERT_NE(d.shared_var, nullptr);
  EXPECT_EQ(d.shared_var->qualified_name(), "t1.x1");
  EXPECT_TRUE(d.shared_var->is_shared());
  EXPECT_EQ(d.dependency_number(), 2);
}

TEST(Sema, Figure1ConsumerOrderIsPragmaOrder) {
  auto c = compile(kFigure1);
  ASSERT_TRUE(c->ok) << c->diags.str();
  const Dependency& d = c->sema->dependencies()[0];
  ASSERT_EQ(d.consumers.size(), 2u);
  EXPECT_EQ(d.consumers[0].thread, "t2");
  EXPECT_EQ(d.consumers[0].dest->qualified_name(), "t2.y1");
  EXPECT_EQ(d.consumers[1].thread, "t3");
  EXPECT_EQ(d.consumers[1].dest->qualified_name(), "t3.z1");
}

TEST(Sema, CrossThreadReadResolvesThroughPragma) {
  auto c = compile(kFigure1);
  ASSERT_TRUE(c->ok) << c->diags.str();
  // In t2, `x1` inside g(x1, y2) must resolve to t1's symbol.
  const ThreadDecl& t2 = c->program.threads[1];
  const Expr& call = *t2.body[0]->value;
  ASSERT_EQ(call.kind, ExprKind::Call);
  const Expr& x1 = *call.operands[0];
  ASSERT_NE(x1.symbol, nullptr);
  EXPECT_EQ(x1.symbol->thread(), "t1");
}

TEST(Sema, CrossThreadReadWithoutPragmaIsError) {
  auto c = compile(R"(
    thread t1 () { int x1; x1 = 1; }
    thread t2 () { int y1; y1 = x1 + 1; }
  )");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("unknown variable 'x1'"));
}

TEST(Sema, WritingRemoteVariableIsError) {
  auto c = compile(R"(
    thread t1 () {
      int x1;
      #consumer{m, [t2,y1]}
      x1 = 1;
    }
    thread t2 () {
      int y1;
      #producer{m, [t1,x1]}
      x1 = y1;
    }
  )");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("only the producer thread writes"));
}

TEST(Sema, DuplicateVariableDiagnosed) {
  auto c = compile("thread t () { int x; char x; x = 1; }");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("duplicate variable"));
}

TEST(Sema, DuplicateThreadDiagnosed) {
  auto c = compile(R"(
    thread t () { int x; x = 1; }
    thread t () { int y; y = 2; }
  )");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("duplicate thread name"));
}

TEST(Sema, UnknownTypeDiagnosed) {
  auto c = compile("thread t () { mystery x; x = 1; }");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("unknown type"));
}

TEST(Sema, UnionMemberAccessTypes) {
  auto c = compile(R"(
    union word {
      bits<16> half;
      int full;
    }
    thread t () {
      word w;
      int x;
      x = w.full;
      w.half = 3;
    }
  )");
  EXPECT_TRUE(c->ok) << c->diags.str();
}

TEST(Sema, UnknownUnionMemberDiagnosed) {
  auto c = compile(R"(
    union word { int full; }
    thread t () { word w; int x; x = w.nope; }
  )");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("no member 'nope'"));
}

TEST(Sema, MemberAccessOnNonUnionDiagnosed) {
  auto c = compile("thread t () { int x, y; x = y.f; }");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("non-union"));
}

TEST(Sema, IndexingNonArrayDiagnosed) {
  auto c = compile("thread t () { int x, y; x = y[0]; }");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("not an array"));
}

TEST(Sema, BreakOutsideLoopDiagnosed) {
  auto c = compile("thread t () { int x; x = 0; break; }");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("'break' outside"));
}

TEST(Sema, DuplicateCaseArmDiagnosed) {
  auto c = compile(R"(
    thread t () {
      int s, x;
      case (s) { when 1: x = 1; when 1: x = 2; }
    }
  )");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("duplicate case arm"));
}

TEST(Sema, MessageArithmeticDiagnosed) {
  auto c = compile("thread t () { message m; int x; x = m + 1; }");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("arithmetic on a message"));
}

TEST(Sema, MessageAssignFromIntDiagnosed) {
  auto c = compile("thread t () { message m; m = 42; }");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("non-message value"));
}

TEST(Sema, MissingConsumerSideDiagnosed) {
  // #consumer in producer lists t2, but t2 has no matching #producer pragma.
  auto c = compile(R"(
    thread t1 () {
      int x1;
      #consumer{m, [t2,y1]}
      x1 = 1;
    }
    thread t2 () { int y1; y1 = 0; }
  )");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("no #producer"));
}

TEST(Sema, MissingProducerSideDiagnosed) {
  auto c = compile(R"(
    thread t1 () { int x1; x1 = 1; }
    thread t2 () {
      int y1;
      #producer{m, [t1,x1]}
      y1 = x1;
    }
  )");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("no #consumer pragma"));
}

TEST(Sema, UnlistedConsumerDiagnosed) {
  // t3 declares #producer{m,...} but the producing pragma only lists t2.
  auto c = compile(R"(
    thread t1 () {
      int x1;
      #consumer{m, [t2,y1]}
      x1 = 1;
    }
    thread t2 () {
      int y1;
      #producer{m, [t1,x1]}
      y1 = x1;
    }
    thread t3 () {
      int z1;
      #producer{m, [t1,x1]}
      z1 = x1;
    }
  )");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("does not list it"));
}

TEST(Sema, SelfDependencyDiagnosed) {
  auto c = compile(R"(
    thread t1 () {
      int x1, y1;
      #consumer{m, [t1,y1]}
      x1 = 1;
    }
  )");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("self-dependency"));
}

TEST(Sema, UnknownConsumerThreadDiagnosed) {
  auto c = compile(R"(
    thread t1 () {
      int x1;
      #consumer{m, [ghost,y1]}
      x1 = 1;
    }
  )");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("unknown consumer thread"));
}

TEST(Sema, MultipleProducerPragmasForOneIdDiagnosed) {
  auto c = compile(R"(
    thread t1 () {
      int x1;
      #consumer{m, [t3,z1]}
      x1 = 1;
    }
    thread t2 () {
      int x2;
      #consumer{m, [t3,z1]}
      x2 = 1;
    }
    thread t3 () {
      int z1;
      #producer{m, [t1,x1]}
      z1 = x1;
    }
  )");
  EXPECT_FALSE(c->ok);
  EXPECT_TRUE(c->diags.contains("multiple #consumer pragmas"));
}

TEST(Sema, TwoIndependentDependencies) {
  auto c = compile(R"(
    thread p () {
      int a, b;
      #consumer{da, [c1,u]}
      a = 1;
      #consumer{db, [c2,v]}
      b = 2;
    }
    thread c1 () {
      int u;
      #producer{da, [p,a]}
      u = a;
    }
    thread c2 () {
      int v;
      #producer{db, [p,b]}
      v = b;
    }
  )");
  ASSERT_TRUE(c->ok) << c->diags.str();
  EXPECT_EQ(c->sema->dependencies().size(), 2u);
}

TEST(Sema, MultipleDependenciesOnSameVariable) {
  // The paper: "the additional identifier, mt1, ... is used to identify
  // multiple dependencies on same variable in threads."
  auto c = compile(R"(
    thread p () {
      int a;
      #consumer{d1, [c1,u]}
      a = 1;
      #consumer{d2, [c2,v]}
      a = 2;
    }
    thread c1 () {
      int u;
      #producer{d1, [p,a]}
      u = a;
    }
    thread c2 () {
      int v;
      #producer{d2, [p,a]}
      v = a;
    }
  )");
  ASSERT_TRUE(c->ok) << c->diags.str();
  const auto& deps = c->sema->dependencies();
  ASSERT_EQ(deps.size(), 2u);
  EXPECT_EQ(deps[0].shared_var, deps[1].shared_var);
}

TEST(Sema, EightConsumerFanout) {
  // The paper's largest scenario: 1 producer, 8 consumers.
  std::string src = R"(
    thread p () {
      int data;
      #consumer{m, [c0,v0], [c1,v1], [c2,v2], [c3,v3], [c4,v4], [c5,v5], [c6,v6], [c7,v7]}
      data = f();
    }
  )";
  for (int i = 0; i < 8; ++i) {
    std::string n = std::to_string(i);
    src += "thread c" + n + " () { int v" + n + "; #producer{m, [p,data]} v" +
           n + " = g(data); }\n";
  }
  auto c = compile(src);
  ASSERT_TRUE(c->ok) << c->diags.str();
  ASSERT_EQ(c->sema->dependencies().size(), 1u);
  EXPECT_EQ(c->sema->dependencies()[0].dependency_number(), 8);
}

TEST(Sema, SymbolStorageBits) {
  auto c = compile(R"(
    thread t () {
      int a;
      char ch;
      bits<12> b;
      int arr[16];
      a = 0;
    }
  )");
  ASSERT_TRUE(c->ok) << c->diags.str();
  auto bits = [&](const char* name) {
    const Symbol* s = c->sema->lookup("t", name);
    return s->element_count() *
           static_cast<std::uint64_t>(s->type()->bit_width());
  };
  EXPECT_EQ(bits("a"), 32u);
  EXPECT_EQ(bits("ch"), 8u);
  EXPECT_EQ(bits("b"), 12u);
  EXPECT_EQ(bits("arr"), 512u);
}

TEST(Sema, LookupUnknownReturnsNull) {
  auto c = compile("thread t () { int x; x = 1; }");
  ASSERT_TRUE(c->ok);
  EXPECT_EQ(c->sema->lookup("t", "nope"), nullptr);
  EXPECT_EQ(c->sema->lookup("ghost", "x"), nullptr);
}

}  // namespace
}  // namespace hicsync::hic
