// Variable accesses of one thread, read off its CFG.
//
// The paper (§2) notes that producers/consumers could be extracted with
// "standard compiler use-def analysis [7]" instead of pragmas. The lint
// checks need only the first step of that: which statement reads or writes
// which resolved symbol. A read of a symbol owned by another thread is a
// cross-thread access, which race-unsynced-access matches against the
// pragma-declared dependencies.
#pragma once

#include <vector>

#include "analysis/cfg.h"
#include "hic/symbol.h"

namespace hicsync::analysis {

/// One variable access inside a CFG node.
struct Access {
  const hic::Stmt* stmt = nullptr;
  hic::Symbol* symbol = nullptr;
  bool is_def = false;
};

/// Every access of resolved symbols in `cfg`, in node order. Within an
/// assignment the right-hand side's uses come before the target's def
/// (evaluation order); an index subscript is always a use. A branch node
/// contributes the uses in its condition.
[[nodiscard]] std::vector<Access> collect_accesses(const Cfg& cfg);

}  // namespace hicsync::analysis
