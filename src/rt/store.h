// Program loading for hic-rt.
//
// ProgramStore turns hicbin bytes (artifact.h) into live, simulatable
// LoadedPrograms. A load derives the design from the embedded source the
// way the compiler does: the front end (parse → optional dependency
// inference → sema), a check of the rebuilt semantics against the
// recorded digest, then synthesis, allocation and port planning under the
// recorded `chain`. The artifact's memory map and port plans are checks,
// not inputs: they must equal the rebuilt ones (rt-plan-mismatch
// otherwise). The controllers are then built once, under the recorded
// `use_cam` and organization, and every simulator of the program runs
// them (docs/RUNTIME.md). Techmap and timing are not re-run: the
// artifact's controller rows carry area/Fmax for stats. Artifacts record
// no hic-bound sizing hints, so a program compiled with --bound is served
// with its unpruned controllers.
//
// LoadedProgram is self-contained and immutable once built; the store
// hands out shared_ptr<const LoadedProgram> so sessions, shards and stats
// readers can hold a program across hot-swaps of the store.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "hic/ast.h"
#include "hic/sema.h"
#include "memorg/controller.h"
#include "rt/artifact.h"
#include "sim/system.h"
#include "support/diagnostics.h"
#include "synth/fsm.h"

namespace hicsync::rt {

/// A loaded program: the artifact's metadata plus live front-end
/// structures and the FSMs and controllers rebuilt from them, ready to
/// build simulators from. Not
/// movable — Sema, the map and the simulators hold pointers into it — so
/// it always lives on the heap behind a shared_ptr.
class LoadedProgram {
 public:
  LoadedProgram(const LoadedProgram&) = delete;
  LoadedProgram& operator=(const LoadedProgram&) = delete;

  /// Key the program registers under: the artifact's source_name.
  [[nodiscard]] const std::string& name() const {
    return artifact_.source_name;
  }
  [[nodiscard]] const Artifact& artifact() const { return artifact_; }
  [[nodiscard]] const hic::Program& program() const { return program_; }
  [[nodiscard]] const hic::Sema& sema() const { return *sema_; }
  [[nodiscard]] sim::OrgKind organization() const { return organization_; }
  [[nodiscard]] const std::vector<synth::ThreadFsm>& fsms() const {
    return fsms_;
  }
  [[nodiscard]] const std::vector<memorg::GeneratedController>& controllers()
      const {
    return controllers_;
  }

  /// A fresh cycle-accurate simulator over this program's FSMs and
  /// controllers (the shard workers call this once per shard, then
  /// reset()-recycle between runs); it generates nothing. The simulator
  /// borrows them, so this LoadedProgram must outlive it.
  [[nodiscard]] std::unique_ptr<sim::SystemSim> make_simulator(
      sim::SystemOptions options) const;
  [[nodiscard]] std::unique_ptr<sim::SystemSim> make_simulator() const;

  /// Human-readable one-program summary (hic-rtd stats).
  [[nodiscard]] std::string describe() const;

 private:
  friend class ProgramStore;
  friend std::shared_ptr<const LoadedProgram> load_program(
      Artifact artifact, ArtifactError* error);
  LoadedProgram() = default;

  Artifact artifact_;
  support::DiagnosticEngine diags_;
  hic::Program program_;
  std::unique_ptr<hic::Sema> sema_;
  sim::OrgKind organization_ = sim::OrgKind::Arbitrated;
  std::vector<synth::ThreadFsm> fsms_;
  rtl::Design design_;
  std::vector<memorg::GeneratedController> controllers_;
};

/// Thread-safe registry of loaded programs, keyed by artifact source_name.
/// Loading the same name again replaces the entry (existing holders keep
/// their shared_ptr).
class ProgramStore {
 public:
  /// Parses, validates and loads hicbin bytes. On failure returns
  /// nullptr with `error` carrying a stable rt-* code (see artifact.h).
  std::shared_ptr<const LoadedProgram> load_bytes(std::string_view bytes,
                                                  ArtifactError* error);
  /// load_bytes over a file's contents (rt-io-error if unreadable).
  std::shared_ptr<const LoadedProgram> load_file(const std::string& path,
                                                 ArtifactError* error);

  [[nodiscard]] std::shared_ptr<const LoadedProgram> get(
      const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const LoadedProgram>> programs_;
};

/// The load step on its own (no registry): front end + digest check +
/// synthesis, allocation and port planning + comparison with the recorded
/// decisions + controller build.
/// Exposed for tests and for in-process embedders that manage lifetime
/// themselves.
std::shared_ptr<const LoadedProgram> load_program(Artifact artifact,
                                                  ArtifactError* error);

}  // namespace hicsync::rt
