#include "memalloc/allocator.h"

#include <gtest/gtest.h>

#include "../hic/hic_test_util.h"
#include "memalloc/sizing.h"

namespace hicsync::memalloc {
namespace {

using hic::testing::compile;
using hic::testing::kFigure1;

TEST(Sizing, Figure1ThreadSizes) {
  auto c = compile(kFigure1);
  ASSERT_TRUE(c->ok) << c->diags.str();
  // Bits of each thread's storage on either side of is_memory_resident.
  auto split = [&](const std::string& thread) {
    std::pair<std::uint64_t, std::uint64_t> memory_register{0, 0};
    for (const hic::Symbol* sym : c->sema->thread_table(thread)->symbols()) {
      const std::uint64_t bits =
          sym->element_count() *
          static_cast<std::uint64_t>(sym->type()->bit_width());
      (is_memory_resident(*sym) ? memory_register.first
                                : memory_register.second) += bits;
    }
    return memory_register;
  };
  // t1: x1 shared (memory), xtmp + x2 registers.
  EXPECT_EQ(split("t1"), std::make_pair(std::uint64_t{32}, std::uint64_t{64}));
  // t2: both y1 and y2 are private scalars.
  EXPECT_EQ(split("t2"), std::make_pair(std::uint64_t{0}, std::uint64_t{64}));
}

TEST(Sizing, ArraysAreMemoryResident) {
  auto c = compile("thread t () { int tbl[16]; tbl[0] = 1; }");
  ASSERT_TRUE(c->ok) << c->diags.str();
  auto* tbl = c->sema->lookup("t", "tbl");
  EXPECT_TRUE(is_memory_resident(*tbl));
}

TEST(Allocator, Figure1SingleSharedBram) {
  auto c = compile(kFigure1);
  ASSERT_TRUE(c->ok) << c->diags.str();
  MemoryMap map = Allocator().allocate(*c->sema);
  // One BRAM hosting x1; xtmp/x2/y1/y2/z1/z2 are registers.
  ASSERT_EQ(map.brams().size(), 1u);
  EXPECT_EQ(map.registers().size(), 6u);
  const BramInstance& b = map.brams()[0];
  ASSERT_EQ(b.placements.size(), 1u);
  EXPECT_EQ(b.placements[0].symbol->qualified_name(), "t1.x1");
  EXPECT_EQ(b.placements[0].base_address, 0u);
  ASSERT_EQ(b.dependencies.size(), 1u);
  EXPECT_EQ(b.dependencies[0]->id, "mt1");
}

TEST(Allocator, LocateFindsPlacement) {
  auto c = compile(kFigure1);
  MemoryMap map = Allocator().allocate(*c->sema);
  auto* x1 = c->sema->lookup("t1", "x1");
  auto loc = map.locate(x1);
  ASSERT_NE(loc.bram, nullptr);
  ASSERT_NE(loc.placement, nullptr);
  EXPECT_EQ(loc.placement->symbol, x1);
  // Registers have no location.
  auto* y2 = c->sema->lookup("t2", "y2");
  EXPECT_EQ(map.locate(y2).bram, nullptr);
}

TEST(Allocator, SharedVariablesOfOneProducerShareBram) {
  auto c = compile(R"(
    thread p () {
      int a, b;
      #consumer{da, [c1,u]}
      a = 1;
      #consumer{db, [c1,v]}
      b = 2;
    }
    thread c1 () {
      int u, v;
      #producer{da, [p,a]}
      u = a;
      #producer{db, [p,b]}
      v = b;
    }
  )");
  ASSERT_TRUE(c->ok) << c->diags.str();
  MemoryMap map = Allocator().allocate(*c->sema);
  ASSERT_EQ(map.brams().size(), 1u);
  EXPECT_EQ(map.brams()[0].placements.size(), 2u);
  EXPECT_EQ(map.brams()[0].dependencies.size(), 2u);
  // Distinct non-overlapping addresses.
  const auto& p0 = map.brams()[0].placements[0];
  const auto& p1 = map.brams()[0].placements[1];
  EXPECT_NE(p0.base_address, p1.base_address);
}

TEST(Allocator, DistinctProducersGetDistinctBrams) {
  auto c = compile(R"(
    thread p1 () {
      int a;
      #consumer{da, [c1,u]}
      a = 1;
    }
    thread p2 () {
      int b;
      #consumer{db, [c1,v]}
      b = 2;
    }
    thread c1 () {
      int u, v;
      #producer{da, [p1,a]}
      u = a;
      #producer{db, [p2,b]}
      v = b;
    }
  )");
  ASSERT_TRUE(c->ok) << c->diags.str();
  MemoryMap map = Allocator().allocate(*c->sema);
  EXPECT_EQ(map.brams().size(), 2u);
}

TEST(Allocator, ArrayPackedIntoSharedBramWhenItFits) {
  auto c = compile(R"(
    thread p () {
      int a;
      int tbl[8];
      #consumer{d, [q,u]}
      a = 1;
      tbl[0] = a;
    }
    thread q () {
      int u;
      #producer{d, [p,a]}
      u = a;
    }
  )");
  ASSERT_TRUE(c->ok) << c->diags.str();
  MemoryMap map = Allocator().allocate(*c->sema);
  // tbl (256 bits) fits in the shared 36-wide BRAM.
  ASSERT_EQ(map.brams().size(), 1u);
  EXPECT_EQ(map.brams()[0].placements.size(), 2u);
}

TEST(Allocator, WordAddressingMultiWordElements) {
  // A 64-bit user type needs 2 words of a 36-bit-wide BRAM per element.
  auto c = compile(R"(
    type wide = bits<64>;
    thread t () {
      wide w[4];
      w[0] = 1;
    }
  )");
  ASSERT_TRUE(c->ok) << c->diags.str();
  MemoryMap map = Allocator().allocate(*c->sema);
  ASSERT_EQ(map.brams().size(), 1u);
  const auto& p = map.brams()[0].placements[0];
  EXPECT_EQ(p.words, 8u);  // 4 elements × 2 words
}

TEST(Allocator, TotalPrimitivesForLargeArray) {
  auto c = compile(R"(
    thread t () {
      int big[2048];
      big[0] = 1;
    }
  )");
  ASSERT_TRUE(c->ok) << c->diags.str();
  MemoryMap map = Allocator().allocate(*c->sema);
  // 2048 words of 36-bit shape = 4 primitives of 512 words.
  EXPECT_EQ(map.total_primitives(), 4);
}

TEST(Allocator, NaiveBoundAtLeastAllocatorResult) {
  auto c = compile(R"(
    thread p () {
      int a, b;
      #consumer{da, [c1,u]}
      a = 1;
      #consumer{db, [c1,v]}
      b = 2;
    }
    thread c1 () {
      int u, v;
      #producer{da, [p,a]}
      u = a;
      #producer{db, [p,b]}
      v = b;
    }
  )");
  ASSERT_TRUE(c->ok) << c->diags.str();
  MemoryMap map = Allocator().allocate(*c->sema);
  EXPECT_LE(map.total_primitives(), naive_bram_bound(*c->sema));
}

TEST(Allocator, StrRendersMap) {
  auto c = compile(kFigure1);
  MemoryMap map = Allocator().allocate(*c->sema);
  std::string s = map.str();
  EXPECT_NE(s.find("t1.x1"), std::string::npos);
  EXPECT_NE(s.find("dependency mt1"), std::string::npos);
}

}  // namespace
}  // namespace hicsync::memalloc
