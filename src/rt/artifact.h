// The hic program artifact ("hicbin") — the xclbin analog of the XRT
// execution model (SNIPPETS.md: execution-model.rst) for compiled hic
// programs.
//
// `hicc --emit-artifact=prog.hicbin` serializes the post-compile state a
// runtime needs to serve a program without re-running the back half of the
// compiler: the source (front-end rehydration input), the organization
// choice, the memory map and port plans (the allocator's and planner's
// decisions, stored verbatim), and per-controller area/timing metadata.
// A versioned, length- and digest-checked header makes corruption,
// truncation and version skew first-class load errors with stable `rt-*`
// codes rather than downstream misbehavior.
//
// Framing:
//
//   HICBIN <version> <payload-bytes> <fnv1a64-hex>\n
//   <payload JSON, exactly payload-bytes long>
//
// The payload is one JSON object (schema below, written by emit_artifact).
// Loading is ProgramStore's job (store.h): it re-runs the front end
// (parse/infer/sema) on the embedded source, checks the recorded semantic
// digest against the rebuilt Sema, and resolves the stored map/plans
// against it — allocation and port planning are *not* re-run; the
// artifact's decisions are authoritative. The FSMs and controllers are
// built once per load under the recorded `chain`, `use_cam` and
// organization (no sizing hints are recorded, so --bound builds load
// unpruned).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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
///   rt-corrupt        digest mismatch, malformed JSON or missing fields
///   rt-source-error   embedded source no longer passes the front end
///   rt-sema-mismatch  rebuilt semantics differ from the recorded digest
///   rt-resolve-error  a stored symbol/dependency is unknown to the Sema
///   rt-io-error       file could not be read/written
struct ArtifactError {
  std::string code;
  std::string message;

  [[nodiscard]] bool ok() const { return code.empty(); }
  [[nodiscard]] std::string str() const {
    return ok() ? std::string("ok") : "[" + code + "] " + message;
  }
};

// ---- Raw (name-based, unresolved) payload structures. --------------------

struct ArtifactPlacement {
  std::string thread;
  std::string var;
  std::uint32_t base_address = 0;
  std::uint32_t words = 0;
};

struct ArtifactBram {
  int id = -1;
  int width = 0;
  int depth = 0;
  int primitives = 1;
  std::vector<ArtifactPlacement> placements;
  std::vector<std::string> deps;  // dependency ids hosted by this BRAM
};

struct ArtifactPortClient {
  std::string thread;
  std::string port;  // "A" | "B" | "C" | "D"
  int pseudo_port = 0;
  std::vector<std::string> deps;
};

struct ArtifactPortPlan {
  int bram_id = -1;
  std::vector<ArtifactPortClient> clients;
};

/// Per-controller metadata (informational: lets `hic-rtd stats` and
/// reports describe the loaded design without re-running techmap/timing).
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
  std::vector<ArtifactBram> brams;
  std::vector<std::string> registers;  // qualified "thread.var"
  std::vector<ArtifactPortPlan> plans;
  std::vector<ArtifactController> controllers;
};

/// Canonical digest of a Sema: thread names, symbol declarations (name,
/// width, element count, memory residency) and bound dependencies in
/// program order. Two sources with the same digest place and plan
/// identically, which is what artifact loading relies on.
[[nodiscard]] std::string sema_digest(const hic::Sema& sema);

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
