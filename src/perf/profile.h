// hic-perf pass profiler: per-pass wall time, peak RSS and node-count
// accounting for the compilation flow.
//
// core::Compiler brackets each pass with a ScopedPhase against the
// PassTimer the caller passed in CompileOptions::profiler. A null timer is
// the common case and costs exactly one predictable branch per phase
// (the Overhead.DisabledProfilerIsABranch test holds it under 10 ns).
//
// Rendering reuses the trace::MetricsRegistry counter registry — the same
// machinery `--trace=metrics` reports through — so profile series and
// simulation metrics share one naming scheme and one JSON shape.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/metrics.h"

namespace hicsync::perf {

/// Peak resident-set size of this process in bytes (0 if getrusage
/// fails).
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Accumulates named phases (in first-seen order) and named counts.
class PassTimer {
 public:
  struct Phase {
    std::string name;
    std::uint64_t wall_ns = 0;
    std::uint64_t calls = 0;
  };

  /// Adds `wall_ns` to the named phase, creating it on first use. Phases
  /// re-entered across loop iterations (techmap per controller) accumulate.
  void add(std::string_view name, std::uint64_t wall_ns);

  /// Records a named quantity (AST statements, netlist nets, ...). Last
  /// write wins.
  void set_count(std::string_view name, std::uint64_t value);

  [[nodiscard]] const std::vector<Phase>& phases() const { return phases_; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>&
  counts() const {
    return counts_;
  }
  [[nodiscard]] std::uint64_t total_wall_ns() const;

  /// The same data as trace-metrics series: `pass.<name>.wall_us` /
  /// `pass.<name>.calls` counters plus `nodes.<name>` and
  /// `mem.peak_rss_kb`.
  [[nodiscard]] trace::MetricsRegistry registry() const;

  /// Human-readable profile: ordered pass table (wall ms, share, calls),
  /// node counts, peak RSS.
  [[nodiscard]] std::string text() const;
  /// Machine-readable profile; embeds registry().json() under "registry".
  [[nodiscard]] std::string json() const;

 private:
  std::vector<Phase> phases_;
  std::vector<std::pair<std::string, std::uint64_t>> counts_;
};

/// RAII bracket around one pass. With a null timer the constructor and
/// destructor are each a single branch — cheap enough to leave compiled
/// into every Compiler::compile call.
class ScopedPhase {
 public:
  ScopedPhase(PassTimer* timer, const char* name)
      : timer_(timer), name_(name) {
    if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPhase() {
    if (timer_ != nullptr) {
      auto end = std::chrono::steady_clock::now();
      timer_->add(name_,
                  static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          end - start_)
                          .count()));
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PassTimer* timer_;
  const char* name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace hicsync::perf
