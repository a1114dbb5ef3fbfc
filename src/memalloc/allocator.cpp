#include "memalloc/allocator.h"

#include <algorithm>

#include "memalloc/sizing.h"
#include "support/strings.h"

namespace hicsync::memalloc {

std::uint32_t BramInstance::words_used() const {
  std::uint32_t used = 0;
  for (const Placement& p : placements) {
    used = std::max(used, p.base_address + p.words);
  }
  return used;
}

const Placement* BramInstance::find(const hic::Symbol* sym) const {
  for (const Placement& p : placements) {
    if (p.symbol == sym) return &p;
  }
  return nullptr;
}

MemoryMap::Location MemoryMap::locate(const hic::Symbol* sym) const {
  auto it = index_.find(sym);
  if (it == index_.end()) return {};
  const BramInstance& b = brams_[static_cast<std::size_t>(it->second.first)];
  return Location{&b, &b.placements[static_cast<std::size_t>(it->second.second)]};
}

int MemoryMap::total_primitives() const {
  int total = 0;
  for (const BramInstance& b : brams_) total += b.primitives;
  return total;
}

std::string MemoryMap::str() const {
  std::string out;
  for (const BramInstance& b : brams_) {
    out += support::format("bram%d %dx%d (%d primitive%s)\n", b.id,
                           b.shape.depth, b.shape.width, b.primitives,
                           b.primitives == 1 ? "" : "s");
    for (const Placement& p : b.placements) {
      out += support::format("  @%u..%u %s\n", p.base_address,
                             p.base_address + p.words - 1,
                             p.symbol->qualified_name().c_str());
    }
    for (const auto* dep : b.dependencies) {
      out += "  dependency " + dep->id + "\n";
    }
  }
  out += "registers:";
  for (const hic::Symbol* r : registers_) {
    out += " " + r->qualified_name();
  }
  out += '\n';
  return out;
}

namespace {

/// Words a symbol occupies at the given word width.
std::uint32_t words_for(const hic::Symbol& sym, int word_width) {
  std::uint64_t per_element =
      (static_cast<std::uint64_t>(sym.type()->bit_width()) +
       static_cast<std::uint64_t>(word_width) - 1) /
      static_cast<std::uint64_t>(word_width);
  if (per_element == 0) per_element = 1;
  return static_cast<std::uint32_t>(per_element * sym.element_count());
}

void place(BramInstance& bram, hic::Symbol* sym) {
  Placement p;
  p.symbol = sym;
  p.base_address = bram.words_used();
  p.words = words_for(*sym, bram.shape.width);
  bram.placements.push_back(p);
}

}  // namespace

MemoryMap Allocator::allocate(const hic::Sema& sema) const {
  MemoryMap map;

  // Partition symbols.
  std::vector<hic::Symbol*> memory_syms;
  for (hic::Symbol* sym : sema.all_symbols()) {
    if (is_memory_resident(*sym)) {
      memory_syms.push_back(sym);
    } else {
      map.registers_.push_back(sym);
    }
  }

  // Group dependencies by shared variable clusters: dependencies whose
  // shared variables are produced by the same thread share one BRAM (the
  // paper's scenarios: one BRAM, one producer, N consumers). Order is
  // load-bearing: Sema delivers dependencies in the producer's program
  // order, and the event-driven modulo schedule follows it — so keep that
  // order for both cluster variables and the per-BRAM dependency list.
  std::vector<std::string> cluster_order;  // producing threads, first-seen
  std::map<std::string, std::vector<const hic::Symbol*>> cluster_vars;
  for (const hic::Dependency& dep : sema.dependencies()) {
    const std::string& thread = dep.shared_var->thread();
    auto& vars = cluster_vars[thread];
    if (vars.empty()) cluster_order.push_back(thread);
    if (std::find(vars.begin(), vars.end(), dep.shared_var) == vars.end()) {
      vars.push_back(dep.shared_var);
    }
  }

  auto new_bram = [&](int width) -> BramInstance& {
    BramInstance b;
    b.id = static_cast<int>(map.brams_.size());
    b.shape = BramModel::shape_for_width(width);
    map.brams_.push_back(std::move(b));
    return map.brams_.back();
  };

  std::vector<char> placed(memory_syms.size(), 0);
  auto index_of = [&](const hic::Symbol* s) -> int {
    for (std::size_t i = 0; i < memory_syms.size(); ++i) {
      if (memory_syms[i] == s) return static_cast<int>(i);
    }
    return -1;
  };

  // One BRAM per producing-thread cluster, in first-seen producer order.
  for (const std::string& thread : cluster_order) {
    const auto& vars = cluster_vars[thread];
    int width = 0;
    for (const hic::Symbol* s : vars) {
      width = std::max(width, s->type()->bit_width());
    }
    BramInstance& bram = new_bram(width);
    for (const hic::Symbol* s : vars) {
      int idx = index_of(s);
      if (idx < 0) continue;
      place(bram, memory_syms[static_cast<std::size_t>(idx)]);
      placed[static_cast<std::size_t>(idx)] = 1;
    }
    // Dependency order inside the BRAM = Sema's program order.
    for (const hic::Dependency& dep : sema.dependencies()) {
      if (dep.shared_var->thread() == thread) {
        bram.dependencies.push_back(&dep);
      }
    }
  }

  // Remaining memory-resident symbols (arrays, non-shared): first fit.
  for (std::size_t i = 0; i < memory_syms.size(); ++i) {
    if (placed[i]) continue;
    hic::Symbol* sym = memory_syms[i];
    bool done = false;
    for (BramInstance& b : map.brams_) {
      if (sym->type()->bit_width() > b.shape.width) continue;
      std::uint32_t need = words_for(*sym, b.shape.width);
      if (b.words_used() + need <=
          static_cast<std::uint32_t>(b.shape.depth) *
              static_cast<std::uint32_t>(b.primitives)) {
        place(b, sym);
        done = true;
        break;
      }
    }
    if (!done) {
      BramInstance& b = new_bram(sym->type()->bit_width());
      place(b, sym);
      // Deep arrays may need several ganged primitives.
      b.primitives = std::max(
          1, BramModel::primitives_for(
                 b.shape.width,
                 static_cast<std::int64_t>(words_for(*sym, b.shape.width))));
    }
  }

  // Build the index.
  for (std::size_t bi = 0; bi < map.brams_.size(); ++bi) {
    const BramInstance& b = map.brams_[bi];
    for (std::size_t pi = 0; pi < b.placements.size(); ++pi) {
      map.index_[b.placements[pi].symbol] = {static_cast<int>(bi),
                                             static_cast<int>(pi)};
    }
  }
  return map;
}

}  // namespace hicsync::memalloc
