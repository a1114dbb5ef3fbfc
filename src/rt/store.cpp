#include "rt/store.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "hic/infer.h"
#include "hic/parser.h"
#include "memalloc/allocator.h"
#include "memalloc/portplan.h"
#include "support/strings.h"
#include "synth/scheduler.h"

namespace hicsync::rt {

namespace {

bool fail(ArtifactError* error, const std::string& code,
          const std::string& message) {
  if (error != nullptr) {
    error->code = code;
    error->message = message;
  }
  return false;
}

/// First error line of the engine, for embedding in an ArtifactError.
std::string first_error(const support::DiagnosticEngine& diags) {
  for (const support::Diagnostic* d : diags.sorted_diagnostics()) {
    if (d->severity == support::Severity::Error) return d->str();
  }
  return "unknown front-end error";
}

}  // namespace

std::unique_ptr<sim::SystemSim> LoadedProgram::make_simulator(
    sim::SystemOptions options) const {
  return std::make_unique<sim::SystemSim>(program_, *sema_, fsms_,
                                          controllers_, options);
}

std::unique_ptr<sim::SystemSim> LoadedProgram::make_simulator() const {
  sim::SystemOptions options;
  options.organization = organization_;
  options.restart_threads = true;
  return make_simulator(options);
}

std::string LoadedProgram::describe() const {
  std::string out = support::format(
      "%s: %s organization, %d thread%s, %d dependenc%s, %d bram%s\n",
      name().c_str(), artifact_.organization.c_str(),
      static_cast<int>(program_.threads.size()),
      program_.threads.size() == 1 ? "" : "s",
      static_cast<int>(sema_->dependencies().size()),
      sema_->dependencies().size() == 1 ? "y" : "ies",
      static_cast<int>(controllers_.size()),
      controllers_.size() == 1 ? "" : "s");
  for (const ArtifactController& c : artifact_.controllers) {
    out += support::format(
        "  %s: %d consumer%s, %d producer%s, %d slices, %.1f MHz\n",
        c.module.c_str(), c.consumers, c.consumers == 1 ? "" : "s",
        c.producers, c.producers == 1 ? "" : "s", c.slices, c.fmax_mhz);
  }
  return out;
}

std::shared_ptr<const LoadedProgram> load_program(Artifact artifact,
                                                  ArtifactError* error) {
  // shared_ptr<LoadedProgram> during construction, const on return.
  std::shared_ptr<LoadedProgram> lp(new LoadedProgram());
  std::string org_error;
  if (!sim::parse_org(artifact.organization, &lp->organization_,
                      &org_error)) {
    fail(error, "rt-corrupt", org_error);
    return nullptr;
  }
  lp->diags_.set_source_name(artifact.source_name);

  // Front end only: parse → (infer) → sema. The embedded source was
  // compiling when the artifact was emitted, so failures here mean the
  // toolchain's language rules moved underneath the artifact.
  try {
    lp->program_ = hic::parse_source(artifact.source, lp->diags_);
  } catch (const support::CompileError& e) {
    fail(error, "rt-source-error",
         std::string("embedded source no longer parses: ") + e.what());
    return nullptr;
  }
  if (lp->diags_.has_errors()) {
    fail(error, "rt-source-error",
         "embedded source no longer parses: " + first_error(lp->diags_));
    return nullptr;
  }
  if (artifact.infer_dependencies) {
    hic::infer_dependencies(lp->program_, lp->diags_);
    if (lp->diags_.has_errors()) {
      fail(error, "rt-source-error",
           "dependency inference failed: " + first_error(lp->diags_));
      return nullptr;
    }
  }
  lp->sema_ = std::make_unique<hic::Sema>(lp->program_, lp->diags_);
  if (!lp->sema_->run()) {
    fail(error, "rt-source-error",
         "embedded source no longer analyzes: " + first_error(lp->diags_));
    return nullptr;
  }

  // The recorded decisions were derived from these semantics; a different
  // program cannot be checked against them.
  std::string digest = sema_digest(*lp->sema_);
  if (digest != artifact.sema_digest) {
    fail(error, "rt-sema-mismatch",
         support::format(
             "rebuilt semantic digest %s does not match recorded %s",
             digest.c_str(), artifact.sema_digest.c_str()));
    return nullptr;
  }

  // Derive the FSMs, the memory map and the port plans exactly as the
  // compiler does, under the recorded compile choices.
  synth::SchedulePolicy schedule;
  schedule.chain_states = artifact.chain;
  lp->fsms_ =
      synth::synthesize_program(lp->program_, *lp->sema_, schedule);
  const memalloc::MemoryMap map = memalloc::Allocator().allocate(*lp->sema_);
  const std::vector<memalloc::BramPortPlan> plans =
      memalloc::PortPlanner::plan(*lp->sema_, map, lp->fsms_);

  // The recorded decisions are checks: a load serves what it rebuilt, and
  // only if the artifact describes the same thing.
  const std::string difference = first_difference(
      artifact.decisions, encode_decisions(map, plans));
  if (!difference.empty()) {
    fail(error, "rt-plan-mismatch", difference);
    return nullptr;
  }

  // The one build every shard's simulator runs.
  lp->controllers_ = memorg::build_controllers(
      lp->design_, map, plans,
      {lp->organization_, artifact.use_cam});
  std::size_t row = 0;
  while (row < artifact.controllers.size() && row < lp->controllers_.size() &&
         artifact.controllers[row].module ==
             lp->controllers_[row].module->name()) {
    ++row;
  }
  if (row != artifact.controllers.size() ||
      row != lp->controllers_.size()) {
    fail(error, "rt-plan-mismatch",
         support::format("controllers[%zu] differs from the %zu rebuilt "
                         "controller modules",
                         row, lp->controllers_.size()));
    return nullptr;
  }

  lp->artifact_ = std::move(artifact);
  if (error != nullptr) *error = ArtifactError{};
  return lp;
}

std::shared_ptr<const LoadedProgram> ProgramStore::load_bytes(
    std::string_view bytes, ArtifactError* error) {
  Artifact artifact;
  if (!parse_artifact(bytes, &artifact, error)) return nullptr;
  std::shared_ptr<const LoadedProgram> lp =
      load_program(std::move(artifact), error);
  if (lp == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  programs_[lp->name()] = lp;
  return lp;
}

std::shared_ptr<const LoadedProgram> ProgramStore::load_file(
    const std::string& path, ArtifactError* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail(error, "rt-io-error", "cannot read artifact file " + path);
    return nullptr;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return load_bytes(ss.str(), error);
}

std::shared_ptr<const LoadedProgram> ProgramStore::get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = programs_.find(name);
  return it == programs_.end() ? nullptr : it->second;
}

std::vector<std::string> ProgramStore::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(programs_.size());
  for (const auto& [name, lp] : programs_) out.push_back(name);
  return out;
}

std::size_t ProgramStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return programs_.size();
}

}  // namespace hicsync::rt
