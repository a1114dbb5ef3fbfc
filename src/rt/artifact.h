// The hic program artifact ("hicbin") — the xclbin analog of the XRT
// execution model (SNIPPETS.md: execution-model.rst) for compiled hic
// programs.
//
// `hicc --emit-artifact=prog.hicbin` serializes what a runtime needs to
// serve a program: the source (the input every load compiles again), the
// compile choices (organization, `use_cam`, `chain`, inference), the memory
// map and port plans the allocator and port planner decided, and
// per-controller area/timing metadata. A versioned, length- and
// digest-checked header makes corruption, truncation and version skew
// first-class load errors with stable `rt-*` codes rather than downstream
// misbehavior.
//
// Framing:
//
//   HICBIN <version> <payload-bytes> <fnv1a64-hex>\n
//   <payload JSON, exactly payload-bytes long>
//
// The payload is one JSON object (schema below, written by emit_artifact).
// Loading is ProgramStore's job (store.h). Unlike an xclbin's fixed
// bitstream, a hicbin's design is regenerated from source on every load,
// so the recorded decisions are checks, not inputs: the load re-runs the
// front end, allocation and port planning on the embedded source and
// compares encode_decisions() of the rebuilt map with the recorded rows
// (rt-plan-mismatch on any difference). Nothing recorded reaches the
// generators or the simulator. No sizing hints are recorded, so --bound
// builds load unpruned.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "memalloc/portplan.h"

namespace hicsync::core {
class CompileResult;
}
namespace hicsync::hic {
class Sema;
}

namespace hicsync::rt {

inline constexpr const char* kArtifactMagic = "HICBIN";
inline constexpr int kArtifactVersion = 1;

/// A load failure with a stable machine-checkable code. Codes:
///   rt-bad-magic      not a hicbin (wrong magic or unparsable header)
///   rt-version-skew   produced by an incompatible artifact version
///   rt-truncated      payload shorter than the header declares
///   rt-corrupt        digest mismatch, malformed JSON, missing fields or
///                     a number that is not an in-range integer
///   rt-source-error   embedded source no longer passes the front end
///   rt-sema-mismatch  rebuilt semantics differ from the recorded digest
///   rt-plan-mismatch  the rebuilt memory map, port plans or controller
///                     modules differ from the recorded ones
///   rt-io-error       file could not be read/written
struct ArtifactError {
  std::string code;
  std::string message;

  [[nodiscard]] bool ok() const { return code.empty(); }
  [[nodiscard]] std::string str() const {
    return ok() ? std::string("ok") : "[" + code + "] " + message;
  }
};

// ---- Name-based payload rows. ---------------------------------------------

struct ArtifactPlacement {
  std::string thread;
  std::string var;
  std::uint32_t base_address = 0;
  std::uint32_t words = 0;

  bool operator==(const ArtifactPlacement&) const = default;
};

struct ArtifactBram {
  int id = -1;
  int width = 0;
  int depth = 0;
  int primitives = 1;
  std::vector<ArtifactPlacement> placements;
  std::vector<std::string> deps;  // dependency ids hosted by this BRAM

  bool operator==(const ArtifactBram&) const = default;
};

struct ArtifactPortClient {
  std::string thread;
  std::string port;  // "A" | "B" | "C" | "D"
  int pseudo_port = 0;
  std::vector<std::string> deps;

  bool operator==(const ArtifactPortClient&) const = default;
};

struct ArtifactPortPlan {
  int bram_id = -1;
  std::vector<ArtifactPortClient> clients;

  bool operator==(const ArtifactPortPlan&) const = default;
};

/// The allocator's and port planner's decisions, by name: what an artifact
/// records and what a load rebuilds and compares.
struct ArtifactDecisions {
  std::vector<ArtifactBram> brams;
  std::vector<std::string> registers;  // qualified "thread.var"
  std::vector<ArtifactPortPlan> plans;

  bool operator==(const ArtifactDecisions&) const = default;
};

/// Per-controller metadata (informational: lets `hic-rtd stats` and
/// reports describe the loaded design without re-running techmap/timing;
/// a load checks only the row count and module names).
struct ArtifactController {
  std::string module;
  int consumers = 0;
  int producers = 0;
  int dependencies = 0;
  int luts = 0;
  int ffs = 0;
  int slices = 0;
  double fmax_mhz = 0.0;
};

struct Artifact {
  int version = kArtifactVersion;
  std::string source_name;
  std::string source;
  std::string organization;  // "arbitrated" | "event-driven"
  bool use_cam = true;
  bool chain = false;
  bool infer_dependencies = false;
  double target_clock_mhz = 125.0;
  std::string sema_digest;  // fnv1a64 hex of the canonical Sema rendering
  ArtifactDecisions decisions;
  std::vector<ArtifactController> controllers;
};

/// Canonical digest of a Sema: thread names, symbol declarations (name,
/// width, element count, memory residency) and bound dependencies in
/// program order.
[[nodiscard]] std::string sema_digest(const hic::Sema& sema);

/// The one encoding of a memory map and its port plans into name-based
/// rows: emit_artifact writes these, and a load compares them for the map
/// it rebuilt with the ones the artifact recorded.
[[nodiscard]] ArtifactDecisions encode_decisions(
    const memalloc::MemoryMap& map,
    const std::vector<memalloc::BramPortPlan>& plans);

/// Names the first BRAM, register list or port plan of `recorded` that
/// differs from `rebuilt` (an rt-plan-mismatch message); empty if equal.
[[nodiscard]] std::string first_difference(const ArtifactDecisions& recorded,
                                           const ArtifactDecisions& rebuilt);

/// Serializes a successful compilation (result.ok() must be true) plus its
/// source text into hicbin bytes.
[[nodiscard]] std::string emit_artifact(const core::CompileResult& result,
                                        std::string_view source);

/// Validates framing and decodes the payload. Returns false and fills
/// `error` (rt-bad-magic/rt-version-skew/rt-truncated/rt-corrupt) on any
/// defect; `out` is only touched on success.
[[nodiscard]] bool parse_artifact(std::string_view bytes, Artifact* out,
                                  ArtifactError* error);

}  // namespace hicsync::rt
