// hic-diff run bundles: everything one traced simulation produced, on disk,
// so two runs can be compared after the fact (docs/OBSERVABILITY.md,
// "Cross-run differencing").
//
// A bundle is a directory:
//
//   manifest.json   program identity (source digest), organization and
//                   compile configuration, cycle count, convergence, and
//                   the per-controller area/Fmax model rows
//   events.jsonl    the full TraceBus event stream, one JSON object per
//                   line, cycles nondecreasing (BundleCaptureSink)
//   metrics.json    the MetricsSink snapshot (`--trace=metrics` JSON form)
//   cover.jsonl     optional: one coverage-DB record (hicc --cover format)
//
// `hicc --trace=bundle[,out=DIR]` writes one; `hic-diff A B` loads two and
// runs the alignment engine + delta reporter over them. Everything is
// plain JSON/JSONL so the capture also round-trips through
// support::parse_json / parse_jsonl in tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cover/model.h"
#include "support/json.h"
#include "trace/bus.h"

namespace hicsync::diffview {

inline constexpr int kBundleSchemaVersion = 1;

/// A trace event with owned strings (trace::Event's string_views borrow
/// the emitter's storage and die with the simulation).
struct CapturedEvent {
  std::uint64_t cycle = 0;
  trace::EventKind kind = trace::EventKind::PortRequest;
  trace::PortKind port = trace::PortKind::None;
  trace::StallCause cause = trace::StallCause::None;
  int controller = -1;
  int pseudo_port = -1;
  std::int64_t value = -1;
  std::string thread;
  std::string dep;

  /// "cycle 42 produce bram0 C1 thread=t1 dep=mt1" — the rendering the
  /// forensics context windows use.
  [[nodiscard]] std::string str() const;
};

/// TraceSink that buffers the complete event stream for post-run
/// differencing. Strings are interned per event; attach only when a bundle
/// was requested (capture is not free like the null-bus fast path).
class BundleCaptureSink : public trace::TraceSink {
 public:
  void on_event(const trace::Event& e) override;
  void finish(std::uint64_t final_cycle) override { cycles_ = final_cycle; }

  [[nodiscard]] const std::vector<CapturedEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

  /// The events.jsonl rendering: one compact JSON object per line, fields
  /// with default values omitted. Cycles are nondecreasing (emission
  /// order), which the capture-sink tests assert.
  [[nodiscard]] std::string events_jsonl() const;

 private:
  std::vector<CapturedEvent> events_;
  std::uint64_t cycles_ = 0;
};

/// One controller's area/Fmax model row (copied from core::BramReport —
/// diffview sits below core, so the fields travel as plain data).
struct AreaRow {
  int bram_id = -1;
  std::string module_name;
  int luts = 0;
  int ffs = 0;
  int slices = 0;
  double fmax_mhz = 0.0;
};

/// manifest.json: the identity and configuration of one captured run.
struct Manifest {
  int schema = kBundleSchemaVersion;
  std::string run_id;          // e.g. "fig1@arbitrated"
  std::string program;         // source name the driver compiled
  std::string source_digest;   // fnv1a64 hex of the source text
  std::string organization;    // sim::to_string(OrgKind)
  bool use_cam = true;
  bool chain = false;
  bool infer = false;
  int passes = 1;
  std::uint64_t max_cycles = 0;
  std::uint64_t cycles = 0;
  bool converged = false;
  std::vector<AreaRow> areas;

  [[nodiscard]] std::string to_json() const;
  /// False (with `error`) on schema skew or missing required fields.
  [[nodiscard]] static bool from_json(const support::JsonValue& v,
                                      Manifest* out,
                                      std::string* error = nullptr);
};

/// A fully-loaded bundle, ready for alignment and delta reporting.
struct Bundle {
  std::string dir;  // where it was loaded from (diagnostics)
  Manifest manifest;
  std::vector<CapturedEvent> events;
  support::JsonValue metrics;       // parsed metrics.json (Null if absent)
  cover::CoverageModel coverage;    // merged cover.jsonl records
  bool has_coverage = false;
};

/// Parses an events.jsonl document. False on the first malformed line.
[[nodiscard]] bool parse_events_jsonl(std::string_view text,
                                      std::vector<CapturedEvent>* out,
                                      std::string* error = nullptr);

/// Writes a bundle directory (created if needed): manifest.json,
/// events.jsonl, metrics.json and — when `cover_record` is nonempty —
/// cover.jsonl. False (with `error`) on I/O failure.
[[nodiscard]] bool write_bundle(const std::string& dir,
                                const std::string& manifest_json,
                                const std::string& events_jsonl,
                                const std::string& metrics_json,
                                const std::string& cover_record,
                                std::string* error = nullptr);

/// Loads a bundle directory written by write_bundle. metrics.json and
/// cover.jsonl are optional; manifest.json and events.jsonl are not.
[[nodiscard]] bool load_bundle(const std::string& dir, Bundle* out,
                               std::string* error = nullptr);

/// support::fnv1a64 of `bytes` as a 16-digit lowercase hex string — the
/// program digest stamped into manifests.
[[nodiscard]] std::string digest_hex(std::string_view bytes);

}  // namespace hicsync::diffview
