// rt::Service — the async session/command engine over a sharded simulator
// pool.
//
// The shape follows the XRT execution model (SNIPPETS.md): clients open
// sessions against a loaded program, submit produce/run/consume commands
// into per-session FIFO queues, and collect completions through futures.
// Sessions are sharded across N worker threads (session id mod
// shards); each shard owns one recycled sim::SystemSim, so no simulator
// state is ever touched from two threads and the whole engine is clean
// under TSan by construction.
//
// Command semantics (deterministic by design — docs/RUNTIME.md):
//   produce  folds the payload words into the session's input seed
//            (sticky: later runs of this session see all prior produces);
//   run      reset-recycles the shard's simulator, seeds its externs from
//            the session seed (workload.h), runs to the pass target and
//            caches every register variable's final value on the session;
//   consume  reads cached register values from the last run.
// Because `run` goes through exactly the run_workload() the differential
// tests use for their single-instance baseline, a session's results are
// bit-identical to a fresh simulator fed the same produces — regardless of
// shard count, scheduling order or how many sessions share the shard.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "rt/buffer.h"
#include "rt/store.h"
#include "rt/telemetry.h"

namespace hicsync::rt {

struct ServiceOptions {
  /// Worker threads, each owning one simulator instance.
  int shards = 1;
  /// Pass target for `run` commands that do not specify one.
  int default_passes = 1;
  /// Cycle budget per run; exceeding it fails the command (rt-timeout).
  std::uint64_t max_cycles = 200000;
  /// Request telemetry (rt/telemetry.h): per-command spans, stage
  /// statistics, slow-request forensics, Chrome-trace export. Disabled by
  /// default; disabled telemetry costs one branch per command.
  TelemetryOptions telemetry;
};

enum class CommandKind { Open, Close, Produce, Run, Consume };

[[nodiscard]] const char* to_string(CommandKind k);

/// The result of one command. `sequence` is the per-session
/// submission index (0-based, gap-free) — the stress tests assert no loss
/// or duplication by checking the delivered sequence sets.
struct CommandResult {
  bool ok = false;
  std::string error;  // stable "rt-*: detail" when !ok
  std::uint64_t session = 0;
  std::uint64_t sequence = 0;
  CommandKind kind = CommandKind::Run;
  int shard = -1;
  /// Client-assigned trace-context tag, echoed verbatim ("" = untagged).
  std::string tag;

  // Run (also echoed by Consume from the session cache):
  bool converged = false;
  std::uint64_t cycles = 0;
  std::uint64_t rounds = 0;
  /// Run: every register variable ("thread.var", value) in canonical
  /// order. Consume: the requested subset, in request order.
  std::vector<std::pair<std::string, std::uint64_t>> registers;
};

class Service {
 public:
  Service(std::shared_ptr<const LoadedProgram> program,
          ServiceOptions options);
  ~Service();  // shuts down (drains queues, joins workers)

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] const LoadedProgram& program() const { return *program_; }
  [[nodiscard]] int shards() const;

  /// Opens a session and returns its id immediately; the Open command is
  /// enqueued on the session's shard and — queues being FIFO — is
  /// guaranteed to execute before any command submitted for the id after
  /// this returns.
  std::uint64_t open_session();
  /// `tag` on any submit is the client's trace context: carried on the
  /// command's telemetry span, echoed in CommandResult::tag and on the
  /// wire. Ignored (beyond the echo) when telemetry is disabled.
  std::future<CommandResult> close_session(std::uint64_t session,
                                           std::string tag = {});

  std::future<CommandResult> produce(std::uint64_t session,
                                     BufferHandle inputs,
                                     std::string tag = {});
  /// `passes <= 0` uses options.default_passes.
  std::future<CommandResult> run(std::uint64_t session, int passes = 0,
                                 std::string tag = {});
  /// Empty `names` = all register variables.
  std::future<CommandResult> consume(std::uint64_t session,
                                     std::vector<std::string> names,
                                     std::string tag = {});

  /// Blocks until every submitted command has completed.
  void drain();
  /// Drains, stops the workers and joins them. Idempotent; commands
  /// submitted afterwards complete immediately with rt-stopped.
  void shutdown();

  /// Pool the produce payloads come from.
  [[nodiscard]] BufferPool& buffers() { return buffers_; }

  struct ShardStats {
    int shard = -1;
    std::uint64_t commands = 0;
    std::uint64_t runs = 0;
    std::uint64_t failures = 0;
    std::uint64_t sim_cycles = 0;
    std::uint64_t max_queue_depth = 0;
    std::uint64_t sessions = 0;  // currently open on this shard
    /// Per-session sequence counters held: one per session not yet closed
    /// (an accepted Close drops its session's counter).
    std::uint64_t sequence_counters = 0;
    /// Latency percentiles (µs, queue push to completion) of
    /// the shard — zeros until the shard completes its first command.
    std::uint64_t latency_p50_us = 0;
    std::uint64_t latency_p95_us = 0;
    std::uint64_t latency_p99_us = 0;
  };
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_closed = 0;
    std::uint64_t runs = 0;
    std::uint64_t sim_cycles = 0;
    /// Service-level completion-latency percentiles (µs): every shard's
    /// latency histogram folded together with Histogram::merge
    /// (identical bucket layouts, so the merge is exact).
    std::uint64_t latency_samples = 0;
    std::uint64_t latency_p50_us = 0;
    std::uint64_t latency_p95_us = 0;
    std::uint64_t latency_p99_us = 0;
    std::vector<ShardStats> shards;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::string stats_text() const;
  [[nodiscard]] std::string stats_json() const;

  // --- Telemetry surface (rt/telemetry.h). All readers lock each shard
  // briefly; safe to call concurrently with traffic (that is the point of
  // `hic-rtd watch`). With telemetry disabled json/text report
  // {"enabled":false} / a one-line notice and chrome export is empty.
  [[nodiscard]] bool telemetry_enabled() const {
    return options_.telemetry.enabled;
  }
  [[nodiscard]] const TelemetryOptions& telemetry_options() const {
    return options_.telemetry;
  }
  /// {"enabled","slow_threshold_us","slow_log_path","slow_log_entries",
  ///  "shards":[per-shard stage statistics over the retained spans, with
  ///  p50/p95/p99, and slow_recent]}.
  [[nodiscard]] std::string telemetry_json() const;
  /// Human-readable rendering of the same (what `hic-rtd run` prints).
  [[nodiscard]] std::string telemetry_text() const;
  /// Chrome-trace document: one track per shard, one X event per retained
  /// span. Empty string when telemetry is disabled.
  [[nodiscard]] std::string telemetry_chrome_json() const;
  /// Total spans promoted to the slow-request log (0 when disabled).
  [[nodiscard]] std::uint64_t slow_log_entries() const;

 private:
  struct Work;
  struct Session;
  struct Shard;

  std::future<CommandResult> submit(std::unique_ptr<Work> work);
  void worker(Shard& shard);
  void execute(Shard& shard, Work& work, CommandResult* result);
  /// Delivers the result; returns the span's complete edge (telemetry
  /// on) or the epoch.
  TelemetryClock::time_point complete(Shard& shard, std::unique_ptr<Work> work,
                                      CommandResult result);

  std::shared_ptr<const LoadedProgram> program_;
  ServiceOptions options_;
  BufferPool buffers_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Telemetry: epoch anchors span/trace timestamps; the slow log is shared
  // by every shard (its own mutex). Both null/zero when disabled.
  TelemetryClock::time_point telemetry_epoch_;
  std::unique_ptr<SlowRequestLog> slow_log_;

  std::atomic<std::uint64_t> next_session_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> sessions_closed_{0};

  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::uint64_t pending_ = 0;  // guarded by drain_mu_
  bool stopped_ = false;       // guarded by drain_mu_
};

}  // namespace hicsync::rt
