// hic-cover: functional-coverage model over the synchronization machinery.
//
// hic-trace answers "what happened in this run"; the coverage model answers
// "which behaviors have *ever* happened across runs" — the standard
// observability instrument of hardware verification. A CoverageModel is a
// set of covergroups, each a flat list of named bins declared *up front*
// from the compiled program (every FSM state, every stall cause a port can
// exhibit, every schedule slot, ...). Running a simulation with a
// cover::CoverageSink attached marks bins hit; bins never hit are the
// holes the `hic-cover` report surfaces. Models persist as append-only
// JSONL records (cover/db.h) and merge across runs by summing hits.
//
// Covergroup names are prefixed with the memory organization
// ("arbitrated." / "eventdriven.") so a merged database keeps the two
// controllers' behavior spaces apart — the paper's §4 comparison is
// exactly about their differing dynamics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "memorg/controller.h"
#include "memorg/deplist.h"
#include "sim/system.h"
#include "synth/fsm.h"

namespace hicsync::cover {

struct CoverBin {
  std::string name;
  std::uint64_t hits = 0;
};

/// One covergroup: bins in declaration order plus a by-name index. A
/// coverage percentage counts *bins hit at least once*, not hit totals.
class Covergroup {
 public:
  Covergroup(std::string name, std::string description)
      : name_(std::move(name)), description_(std::move(description)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& description() const { return description_; }
  [[nodiscard]] const std::vector<CoverBin>& bins() const { return bins_; }

  /// Declares a bin (idempotent: re-declaring an existing bin is a no-op).
  void declare(const std::string& bin);
  /// Marks a bin hit. Returns false — and counts the event as unexpected —
  /// when the bin was never declared, so stray hits are visible instead of
  /// silently inflating coverage.
  bool hit(const std::string& bin, std::uint64_t n = 1);

  [[nodiscard]] const CoverBin* find(const std::string& bin) const;
  [[nodiscard]] std::size_t hit_bins() const;
  [[nodiscard]] std::uint64_t unexpected() const { return unexpected_; }
  void add_unexpected(std::uint64_t n) { unexpected_ += n; }
  /// 100% when the group declares no bins (vacuously covered).
  [[nodiscard]] double coverage_pct() const;
  /// Bins with zero hits, in declaration order.
  [[nodiscard]] std::vector<const CoverBin*> holes() const;

 private:
  std::string name_;
  std::string description_;
  std::vector<CoverBin> bins_;
  std::map<std::string, std::size_t> index_;
  std::uint64_t unexpected_ = 0;
};

class CoverageModel {
 public:
  /// Returns (creating on first use) the named group. A later call may
  /// supply the description the first omitted.
  Covergroup& group(const std::string& name,
                    const std::string& description = "");
  [[nodiscard]] const Covergroup* find(const std::string& name) const;
  /// Groups sorted by name (the report and DB order).
  [[nodiscard]] std::vector<const Covergroup*> groups() const;

  /// Convenience: hit `bin` of `group_name`; false when either is unknown.
  bool hit(const std::string& group_name, const std::string& bin,
           std::uint64_t n = 1);

  [[nodiscard]] std::size_t total_bins() const;
  [[nodiscard]] std::size_t total_hit() const;
  [[nodiscard]] double coverage_pct() const;

 private:
  std::map<std::string, std::unique_ptr<Covergroup>> groups_;
};

// ---------------------------------------------------------------------------
// Model declaration inputs
// ---------------------------------------------------------------------------

/// What the bin declarations need to know about one generated controller.
struct ControllerModel {
  int bram_id = -1;
  int num_consumers = 0;
  int num_producers = 0;
  /// Any thread performs plain (port A) accesses on this BRAM.
  bool has_port_a = false;
  std::vector<memorg::DepEntry> deps;
  /// Event-driven schedule length (producer + consumer slots).
  int total_slots = 0;
};

struct ModelInputs {
  sim::OrgKind organization = sim::OrgKind::Arbitrated;
  /// Synthesized FSMs, one per thread (not owned; must outlive the model
  /// declaration and any CoverageSink built from these inputs).
  const std::vector<synth::ThreadFsm>* fsms = nullptr;
  std::vector<ControllerModel> controllers;
};

/// Covergroup-name prefix of an organization: "arbitrated" / "eventdriven".
[[nodiscard]] const char* org_prefix(sim::OrgKind k);

/// Derives the declaration inputs from the FSMs and controllers a
/// compilation built (the pieces SystemSim runs), so bins follow any
/// pruning the controllers saw.
[[nodiscard]] ModelInputs inputs_from(
    sim::OrgKind organization, const std::vector<synth::ThreadFsm>& fsms,
    const std::vector<memorg::GeneratedController>& controllers);

}  // namespace hicsync::cover
