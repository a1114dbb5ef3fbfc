// Variable → BRAM allocation.
//
// Produces the memory map the organization generators consume: which BRAM
// instance holds each memory-resident variable and at which base address
// (the "base address of the data structure in BRAM" stored in the §3.1
// dependency list).
//
// Policy (mirrors the paper's experiments): variables connected by a
// dependency — the shared variable plus anything else its thread group
// touches in memory — are co-located so one BRAM serves one producer/
// consumer cluster; remaining memory-resident variables are first-fit
// packed. Plain scalars stay in registers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hic/sema.h"
#include "memalloc/bram.h"

namespace hicsync::memalloc {

/// One variable placed in a BRAM.
struct Placement {
  hic::Symbol* symbol = nullptr;
  std::uint32_t base_address = 0;  // word address
  std::uint32_t words = 0;
};

/// One allocated BRAM instance (possibly ganged from several primitives).
struct BramInstance {
  int id = -1;
  BramShape shape;           // per-port shape used by the controller
  int primitives = 1;        // physical 18 Kbit blocks ganged together
  std::vector<Placement> placements;
  /// Dependencies whose shared variable lives here (drives the §3.1
  /// dependency list and the §3.2 select logic of this BRAM's controller).
  std::vector<const hic::Dependency*> dependencies;

  [[nodiscard]] std::uint32_t words_used() const;
  [[nodiscard]] const Placement* find(const hic::Symbol* sym) const;
};

/// The full memory map of a program.
class MemoryMap {
 public:
  [[nodiscard]] const std::vector<BramInstance>& brams() const {
    return brams_;
  }
  [[nodiscard]] const std::vector<hic::Symbol*>& registers() const {
    return registers_;
  }

  /// BRAM + placement of a symbol; {nullptr, nullptr} for registers.
  struct Location {
    const BramInstance* bram = nullptr;
    const Placement* placement = nullptr;
  };
  [[nodiscard]] Location locate(const hic::Symbol* sym) const;

  /// Total physical 18 Kbit primitives used.
  [[nodiscard]] int total_primitives() const;

  [[nodiscard]] std::string str() const;

  friend class Allocator;

 private:
  std::vector<BramInstance> brams_;
  std::vector<hic::Symbol*> registers_;
  std::map<const hic::Symbol*, std::pair<int, int>> index_;  // bram, slot
};

class Allocator {
 public:
  /// Allocates every memory-resident symbol of the program. Memory that
  /// carries no dependency is packed first-fit into the BRAMs already
  /// allocated before a new one is opened.
  [[nodiscard]] MemoryMap allocate(const hic::Sema& sema) const;
};

}  // namespace hicsync::memalloc
