// hic-rt request telemetry: per-command spans in a per-shard ring, and the
// stage statistics, slow-request forensics and Chrome-trace export worked
// out from that ring.
//
// Every command the service executes leaves a Span — steady-clock
// timestamps at each lifecycle edge (enqueue → dequeue → execute end →
// complete), the shard queue depth when it was enqueued, the simulator
// cycles it consumed, and the client-assigned trace-context tag from the
// wire protocol. The shard worker writes each span into its shard's
// bounded ring (oldest evicted first) under the shard's own telemetry
// mutex — never the shard queue lock the submit path contends on, so span
// capture cannot stretch a submitter's enqueue. Recording is that one
// write, four all-time counters and the slow-threshold test; with
// telemetry disabled the whole layer is a single branch per command.
//
// Three readers, all working from the retained spans when they read:
//   * stage statistics (queue/execute/complete/total microseconds, run
//     cycles) with count/min/mean/max and nearest-rank p50/p95/p99 — what
//     the `telemetry` wire op and `hic-rtd watch` report;
//   * the slow-request log: a span at or over the configured threshold is
//     promoted to a JSONL forensics record carrying the span, the
//     session's earlier spans still in the ring and a snapshot of the
//     shard's queue — enough to answer "what was this shard doing when
//     the request stalled" after the fact;
//   * Chrome-trace export: one track per shard, one X event per span
//     (trace::ChromeTraceSink conventions), so a whole run renders as a
//     timeline in chrome://tracing or Perfetto.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.h"

namespace hicsync::rt {

struct TelemetryOptions {
  /// Master switch. Off: no timestamps are taken, no spans recorded.
  bool enabled = false;
  /// Spans retained per shard; the ring evicts oldest-first beyond this.
  /// The stage statistics describe these spans. The default keeps the
  /// ring cache-resident: streaming ~200-byte spans through a
  /// multi-thousand-slot ring measurably taxes the sim's working set on
  /// small-cache hosts (~3% throughput at 4096 slots vs <1% here), so
  /// depth beyond recent-forensics needs is not free.
  std::size_t ring_capacity = 256;
  /// Spans whose enqueue→complete latency reaches this many microseconds
  /// are promoted to the slow-request log.
  std::uint64_t slow_threshold_us = 100000;
  /// JSONL file the promoted forensics records append to. Empty: records
  /// are counted and kept in the in-memory recent list only.
  std::string slow_log_path;
};

using TelemetryClock = std::chrono::steady_clock;

/// One command's lifecycle. `kind`/`error` use the service's stable
/// vocabulary; timestamps are steady-clock instants taken on the
/// submitting thread (enqueue) and the shard worker (the rest).
struct Span {
  std::uint64_t session = 0;
  std::uint64_t sequence = 0;
  const char* kind = "?";
  bool ok = true;
  std::string error;  // stable "rt-*: detail" when !ok
  std::string tag;    // client-assigned trace context ("" = untagged)
  std::uint64_t queue_depth = 0;  // shard queue depth at enqueue
  std::uint64_t cycles = 0;       // simulator cycles consumed (Run)

  TelemetryClock::time_point enqueue;   // pushed onto the shard queue
  TelemetryClock::time_point dequeue;   // worker popped it (execute begins)
  TelemetryClock::time_point exec_end;  // execute() returned
  TelemetryClock::time_point complete;  // promise delivered

  [[nodiscard]] std::uint64_t queue_us() const;     // enqueue → dequeue
  [[nodiscard]] std::uint64_t execute_us() const;   // dequeue → exec_end
  [[nodiscard]] std::uint64_t complete_us() const;  // exec_end → complete
  [[nodiscard]] std::uint64_t total_us() const;     // enqueue → complete
};

/// One entry of a shard-queue snapshot in a forensics record.
struct QueuedCommand {
  std::uint64_t session = 0;
  const char* kind = "?";
};

/// Thread-safe JSONL appender shared by every shard's slow-path promotion.
/// An empty path counts entries without touching the filesystem.
class SlowRequestLog {
 public:
  explicit SlowRequestLog(std::string path);

  void append(const std::string& json_line);
  [[nodiscard]] std::uint64_t entries() const;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  mutable std::mutex mu_;
  std::uint64_t entries_ = 0;  // guarded by mu_
};

/// Per-shard telemetry state, synchronized by its own mutex. Only the
/// shard's worker writes (record) and readers poll rarely, so the worker's
/// acquisition is effectively uncontended — and, crucially, span capture
/// never holds the shard queue lock that the submit path blocks on.
class ShardTelemetry {
 public:
  ShardTelemetry(int shard, const TelemetryOptions& options,
                 TelemetryClock::time_point epoch);

  /// Writes the span into the ring, evicting the oldest past capacity.
  /// Returns true when the span crossed the slow threshold, in which case
  /// *slow_json is the complete forensics JSONL line (span + the
  /// session's earlier retained spans + `queue_snapshot`) for the caller
  /// to append outside the shard lock.
  bool record(Span span, const std::vector<QueuedCommand>& queue_snapshot,
              std::string* slow_json);

  [[nodiscard]] std::uint64_t spans_recorded() const;
  [[nodiscard]] std::uint64_t spans_dropped() const;
  [[nodiscard]] std::uint64_t slow_count() const;
  /// Worker busy time accumulated across executed commands, µs.
  [[nodiscard]] std::uint64_t busy_us() const;
  /// Retained spans, oldest first (at most ring_capacity).
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes this shard's telemetry object ({"shard":..,"stages":{..},..})
  /// as the next value of `w`. `queue_depth` is sampled by the caller.
  void render_json(support::JsonWriter& w, std::uint64_t queue_depth) const;

  /// Appends the human-readable shard summary (the `hic-rtd` stats view):
  /// a header line plus one line per populated stage.
  void render_text(std::string* out, std::uint64_t queue_depth) const;

  /// Appends one serialized Chrome-trace X event per retained span
  /// (ts/dur in microseconds relative to the service epoch; pid 1,
  /// tid shard+1 — the caller emits the matching metadata events).
  void append_chrome_events(std::vector<std::string>* events) const;

 private:
  /// Invokes fn(span) on each retained span, oldest first; mu_ held.
  template <typename Fn>
  void for_each_span(Fn&& fn) const {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      fn(ring_[(ring_head_ + i) % ring_.size()]);
    }
  }

  int shard_ = -1;
  TelemetryOptions options_;
  TelemetryClock::time_point epoch_;

  /// Guards everything below. Held only by the owning worker's record()
  /// and by occasional poll reads — never by the submit path.
  mutable std::mutex mu_;
  std::vector<Span> ring_;   // circular once full
  std::size_t ring_head_ = 0;  // oldest span once full, else 0
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t slow_ = 0;
  std::uint64_t busy_us_ = 0;
};

/// Composes the full Chrome-trace document from per-shard event lists:
/// process/thread metadata (process "hic-rt", one named track per shard)
/// followed by the span events, in trace::chrome_trace_document's envelope.
[[nodiscard]] std::string compose_chrome_trace(
    int shards, const std::vector<std::string>& events);

}  // namespace hicsync::rt
