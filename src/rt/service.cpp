#include "rt/service.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <thread>

#include "rt/workload.h"
#include "support/json.h"
#include "support/strings.h"
#include "trace/metrics.h"

namespace hicsync::rt {

const char* to_string(CommandKind k) {
  switch (k) {
    case CommandKind::Open: return "open";
    case CommandKind::Close: return "close";
    case CommandKind::Produce: return "produce";
    case CommandKind::Run: return "run";
    case CommandKind::Consume: return "consume";
  }
  return "?";
}

namespace {

const std::vector<std::uint64_t> kLatencyBoundsUs = {
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000};

}  // namespace

struct Service::Work {
  CommandKind kind = CommandKind::Run;
  std::uint64_t session = 0;
  std::uint64_t sequence = 0;
  BufferHandle payload;              // Produce inputs
  std::vector<std::string> names;    // Consume register names
  int passes = 0;                    // Run
  std::string tag;                   // client trace context
  std::promise<CommandResult> promise;
  // The enqueue edge, shared by the stats latency and the telemetry span.
  std::chrono::steady_clock::time_point enqueued;

  // Telemetry only (rt/telemetry.h). The exec-end edge needs no timestamp
  // of its own: complete() runs directly after execute() and its entry
  // clock sample serves as both the latency endpoint and the span's
  // exec_end.
  TelemetryClock::time_point dequeued;
  std::uint64_t queue_depth = 0;  // shard queue depth at enqueue
};

struct Service::Session {
  std::uint64_t id = 0;
  std::uint64_t seed = kWorkloadSeedInit;
  std::uint64_t produced_words = 0;
  bool has_run = false;
  std::vector<std::pair<std::string, std::uint64_t>> last_registers;
};

struct Service::Shard {
  int index = -1;
  std::thread thread;

  // Queue + counters, guarded by mu. The simulator and the sessions are
  // touched only on the shard's worker thread.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::unique_ptr<Work>> queue;
  bool stop = false;
  std::map<std::uint64_t, std::uint64_t> next_sequence;
  std::uint64_t commands = 0;
  std::uint64_t runs = 0;
  std::uint64_t failures = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t open_sessions = 0;
  // Latency (µs, queue push to complete), guarded by mu.
  trace::Histogram latency_us{kLatencyBoundsUs};
  // Internally synchronized (its own mutex, uncontended on the worker):
  // span capture never holds `mu`, so it cannot stretch a submitter's
  // enqueue. The pointer is set at construction and never changes
  // (null = disabled).
  std::unique_ptr<ShardTelemetry> telemetry;

  // Worker-thread-only state.
  std::unique_ptr<sim::SystemSim> sim;
  std::map<std::uint64_t, Session> sessions;
};

Service::Service(std::shared_ptr<const LoadedProgram> program,
                 ServiceOptions options)
    : program_(std::move(program)), options_(options) {
  if (options_.shards < 1) options_.shards = 1;
  if (options_.telemetry.enabled) {
    telemetry_epoch_ = TelemetryClock::now();
    slow_log_ =
        std::make_unique<SlowRequestLog>(options_.telemetry.slow_log_path);
  }
  for (int i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    if (options_.telemetry.enabled) {
      shard->telemetry = std::make_unique<ShardTelemetry>(
          i, options_.telemetry, telemetry_epoch_);
    }
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([this, s] { worker(*s); });
  }
}

Service::~Service() { shutdown(); }

int Service::shards() const { return static_cast<int>(shards_.size()); }

std::uint64_t Service::open_session() {
  std::uint64_t id = next_session_.fetch_add(1, std::memory_order_relaxed);
  auto work = std::make_unique<Work>();
  work->kind = CommandKind::Open;
  work->session = id;
  submit(std::move(work));  // future intentionally dropped; queue is FIFO
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::future<CommandResult> Service::close_session(std::uint64_t session,
                                                  std::string tag) {
  auto work = std::make_unique<Work>();
  work->kind = CommandKind::Close;
  work->session = session;
  work->tag = std::move(tag);
  return submit(std::move(work));
}

std::future<CommandResult> Service::produce(std::uint64_t session,
                                            BufferHandle inputs,
                                            std::string tag) {
  auto work = std::make_unique<Work>();
  work->kind = CommandKind::Produce;
  work->session = session;
  work->payload = std::move(inputs);
  work->tag = std::move(tag);
  return submit(std::move(work));
}

std::future<CommandResult> Service::run(std::uint64_t session, int passes,
                                        std::string tag) {
  auto work = std::make_unique<Work>();
  work->kind = CommandKind::Run;
  work->session = session;
  work->passes = passes;
  work->tag = std::move(tag);
  return submit(std::move(work));
}

std::future<CommandResult> Service::consume(std::uint64_t session,
                                            std::vector<std::string> names,
                                            std::string tag) {
  auto work = std::make_unique<Work>();
  work->kind = CommandKind::Consume;
  work->session = session;
  work->names = std::move(names);
  work->tag = std::move(tag);
  return submit(std::move(work));
}

std::future<CommandResult> Service::submit(std::unique_ptr<Work> work) {
  Shard& shard =
      *shards_[work->session % static_cast<std::uint64_t>(shards_.size())];
  std::future<CommandResult> future = work->promise.get_future();

  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (stopped_) {
      CommandResult r;
      r.ok = false;
      r.error = "rt-stopped: service is shut down";
      r.session = work->session;
      r.kind = work->kind;
      work->promise.set_value(r);
      return future;
    }
    ++pending_;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    work->sequence = shard.next_sequence[work->session]++;
    work->queue_depth = static_cast<std::uint64_t>(shard.queue.size());
    // The enqueue edge: after the drain and shard locks, so a submitter's
    // lock wait is not counted as queue time.
    work->enqueued = std::chrono::steady_clock::now();
    shard.queue.push_back(std::move(work));
    shard.max_queue_depth =
        std::max(shard.max_queue_depth,
                 static_cast<std::uint64_t>(shard.queue.size()));
  }
  shard.cv.notify_one();
  return future;
}

void Service::worker(Shard& shard) {
  // With telemetry on, a command popped without waiting is dequeued at the
  // moment the previous one completed (or at its enqueue, if that came
  // later), so that edge's clock read serves both spans.
  TelemetryClock::time_point last_complete;
  bool waited = true;
  for (;;) {
    std::unique_ptr<Work> work;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      waited = waited || shard.queue.empty();
      shard.cv.wait(lock,
                    [&shard] { return shard.stop || !shard.queue.empty(); });
      // Graceful shutdown: drain everything already queued before exiting.
      if (shard.queue.empty()) return;
      work = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    if (shard.telemetry != nullptr) {
      work->dequeued = waited ? TelemetryClock::now()
                              : std::max(last_complete, work->enqueued);
    }
    CommandResult result;
    execute(shard, *work, &result);
    last_complete = complete(shard, std::move(work), std::move(result));
    waited = false;
  }
}

void Service::execute(Shard& shard, Work& work, CommandResult* result) {
  result->ok = true;
  result->session = work.session;
  result->sequence = work.sequence;
  result->kind = work.kind;
  result->shard = shard.index;
  result->tag = work.tag;

  auto fail = [&](std::string message) {
    result->ok = false;
    result->error = std::move(message);
  };

  auto find_session = [&]() -> Session* {
    auto it = shard.sessions.find(work.session);
    if (it == shard.sessions.end()) {
      fail(support::format("rt-no-session: session %llu is not open",
                           static_cast<unsigned long long>(work.session)));
      return nullptr;
    }
    return &it->second;
  };

  switch (work.kind) {
    case CommandKind::Open: {
      Session s;
      s.id = work.session;
      shard.sessions[work.session] = std::move(s);
      break;
    }
    case CommandKind::Close: {
      if (shard.sessions.erase(work.session) == 0) {
        fail(support::format("rt-no-session: session %llu is not open",
                             static_cast<unsigned long long>(work.session)));
      } else {
        sessions_closed_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    case CommandKind::Produce: {
      Session* s = find_session();
      if (s == nullptr) break;
      s->seed = fold_seed(s->seed, work.payload.data(), work.payload.size());
      s->produced_words += work.payload.size();
      break;
    }
    case CommandKind::Run: {
      Session* s = find_session();
      if (s == nullptr) break;
      if (shard.sim == nullptr) {
        // Lazy: the simulator is built on the worker thread that will own
        // it, so its whole lifetime stays on one thread.
        shard.sim = program_->make_simulator();
      }
      int passes = work.passes > 0 ? work.passes : options_.default_passes;
      WorkloadResult r =
          run_workload(*shard.sim, program_->program(), program_->sema(),
                       passes, options_.max_cycles, s->seed);
      result->converged = r.converged;
      result->cycles = r.cycles;
      result->rounds = r.rounds;
      result->registers = r.registers;
      s->has_run = true;
      s->last_registers = std::move(r.registers);
      if (!result->converged) {
        fail(support::format(
            "rt-timeout: run did not reach %d pass%s in %llu cycles", passes,
            passes == 1 ? "" : "es",
            static_cast<unsigned long long>(options_.max_cycles)));
      }
      break;
    }
    case CommandKind::Consume: {
      Session* s = find_session();
      if (s == nullptr) break;
      if (!s->has_run) {
        fail("rt-no-run: session has no completed run to consume from");
        break;
      }
      if (work.names.empty()) {
        result->registers = s->last_registers;
      } else {
        for (const std::string& name : work.names) {
          bool found = false;
          for (const auto& [reg, value] : s->last_registers) {
            if (reg == name) {
              result->registers.emplace_back(reg, value);
              found = true;
              break;
            }
          }
          if (!found) {
            fail("rt-unknown-register: no register variable '" + name + "'");
            break;
          }
        }
      }
      break;
    }
  }
}

TelemetryClock::time_point Service::complete(Shard& shard,
                                             std::unique_ptr<Work> work,
                                             CommandResult result) {
  auto now = std::chrono::steady_clock::now();
  auto latency_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                            work->enqueued)
          .count());
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.commands;
    if (!result.ok) ++shard.failures;
    if (result.kind == CommandKind::Run && result.ok) {
      ++shard.runs;
      shard.sim_cycles += result.cycles;
    }
    shard.open_sessions = shard.sessions.size();
    // A closed session's sequence counter goes with it, unless a command
    // submitted after the Close was already numbered from it.
    if (result.kind == CommandKind::Close && result.ok) {
      auto it = shard.next_sequence.find(work->session);
      if (it != shard.next_sequence.end() &&
          it->second == work->sequence + 1) {
        shard.next_sequence.erase(it);
      }
    }
    shard.latency_us.record(latency_us);
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (!result.ok) failed_.fetch_add(1, std::memory_order_relaxed);

  // Promise first, then the drain accounting — so drain() returning
  // guarantees every future is ready.
  work->promise.set_value(result);

  // Span capture happens after delivery — the complete edge covers the
  // promise hand-off — and entirely off shard.mu: telemetry
  // has its own (worker-uncontended) mutex, so recording a span can
  // never stretch a submitter's enqueue. Only a slow span's queue
  // snapshot touches shard.mu, and slow spans are the exception.
  TelemetryClock::time_point completed;
  if (shard.telemetry != nullptr) {
    Span span;
    span.session = work->session;
    span.sequence = work->sequence;
    span.kind = to_string(work->kind);
    span.ok = result.ok;
    if (!result.ok) span.error = result.error;
    span.tag = std::move(work->tag);
    span.queue_depth = work->queue_depth;
    span.cycles = result.cycles;
    span.enqueue = work->enqueued;
    span.dequeue = work->dequeued;
    span.exec_end = now;  // complete()'s entry sample, right after execute()
    span.complete = completed = TelemetryClock::now();
    std::vector<QueuedCommand> snapshot;
    if (span.total_us() >= options_.telemetry.slow_threshold_us) {
      std::lock_guard<std::mutex> lock(shard.mu);
      snapshot.reserve(shard.queue.size());
      for (const auto& pending : shard.queue) {
        snapshot.push_back({pending->session, to_string(pending->kind)});
      }
    }
    std::string slow_json;
    shard.telemetry->record(std::move(span), snapshot, &slow_json);
    // SlowRequestLog has its own mutex shared by all shards.
    if (!slow_json.empty()) slow_log_->append(slow_json);
  }

  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    --pending_;
  }
  drain_cv_.notify_all();
  return completed;
}

void Service::drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] { return pending_ == 0; });
}

void Service::shutdown() {
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  drain();
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->stop = true;
    }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

Service::Stats Service::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  s.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  trace::Histogram merged(kLatencyBoundsUs);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    ShardStats ss;
    ss.shard = shard->index;
    ss.commands = shard->commands;
    ss.runs = shard->runs;
    ss.failures = shard->failures;
    ss.sim_cycles = shard->sim_cycles;
    ss.max_queue_depth = shard->max_queue_depth;
    ss.sessions = shard->open_sessions;
    ss.sequence_counters = shard->next_sequence.size();
    ss.latency_p50_us = shard->latency_us.percentile(50);
    ss.latency_p95_us = shard->latency_us.percentile(95);
    ss.latency_p99_us = shard->latency_us.percentile(99);
    merged.merge(shard->latency_us);
    s.runs += ss.runs;
    s.sim_cycles += ss.sim_cycles;
    s.shards.push_back(ss);
  }
  s.latency_samples = merged.count();
  if (merged.count() > 0) {
    s.latency_p50_us = merged.percentile(50);
    s.latency_p95_us = merged.percentile(95);
    s.latency_p99_us = merged.percentile(99);
  }
  return s;
}

std::string Service::stats_text() const {
  Stats s = stats();
  std::string out = support::format(
      "rt-service: %s over %d shard%s\n"
      "  commands: %llu submitted, %llu completed, %llu failed\n"
      "  sessions: %llu opened, %llu closed\n"
      "  runs: %llu (%llu simulated cycles)\n",
      program_->name().c_str(), shards(), shards() == 1 ? "" : "s",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.sessions_opened),
      static_cast<unsigned long long>(s.sessions_closed),
      static_cast<unsigned long long>(s.runs),
      static_cast<unsigned long long>(s.sim_cycles));
  out += support::format(
      "  latency (all shards): p50/p95/p99 %llu/%llu/%llu us over %llu "
      "sample(s)\n",
      static_cast<unsigned long long>(s.latency_p50_us),
      static_cast<unsigned long long>(s.latency_p95_us),
      static_cast<unsigned long long>(s.latency_p99_us),
      static_cast<unsigned long long>(s.latency_samples));
  for (const ShardStats& ss : s.shards) {
    out += support::format(
        "  shard %d: %llu commands (%llu runs, %llu failures), "
        "%llu cycles, max queue %llu, %llu open sessions, "
        "latency p50/p95/p99 %llu/%llu/%llu us\n",
        ss.shard, static_cast<unsigned long long>(ss.commands),
        static_cast<unsigned long long>(ss.runs),
        static_cast<unsigned long long>(ss.failures),
        static_cast<unsigned long long>(ss.sim_cycles),
        static_cast<unsigned long long>(ss.max_queue_depth),
        static_cast<unsigned long long>(ss.sessions),
        static_cast<unsigned long long>(ss.latency_p50_us),
        static_cast<unsigned long long>(ss.latency_p95_us),
        static_cast<unsigned long long>(ss.latency_p99_us));
  }
  BufferPool::Stats bs = buffers_.stats();
  out += support::format(
      "  buffers: %llu allocated, %llu reused, %llu live\n",
      static_cast<unsigned long long>(bs.allocated),
      static_cast<unsigned long long>(bs.reused),
      static_cast<unsigned long long>(bs.live));
  return out;
}

std::string Service::stats_json() const {
  Stats s = stats();
  support::JsonWriter w(0);
  w.begin_object();
  w.key("program").value(program_->name());
  w.key("shards").value(shards());
  w.key("submitted").value(s.submitted);
  w.key("completed").value(s.completed);
  w.key("failed").value(s.failed);
  w.key("sessions_opened").value(s.sessions_opened);
  w.key("sessions_closed").value(s.sessions_closed);
  w.key("runs").value(s.runs);
  w.key("sim_cycles").value(s.sim_cycles);
  w.key("latency_us").begin_object();
  w.key("samples").value(s.latency_samples);
  w.key("p50").value(s.latency_p50_us);
  w.key("p95").value(s.latency_p95_us);
  w.key("p99").value(s.latency_p99_us);
  w.end_object();
  w.key("shard_stats").begin_array();
  for (const ShardStats& ss : s.shards) {
    w.begin_object();
    w.key("shard").value(ss.shard);
    w.key("commands").value(ss.commands);
    w.key("runs").value(ss.runs);
    w.key("failures").value(ss.failures);
    w.key("sim_cycles").value(ss.sim_cycles);
    w.key("max_queue_depth").value(ss.max_queue_depth);
    w.key("sessions").value(ss.sessions);
    w.key("latency_us").begin_object();
    w.key("p50").value(ss.latency_p50_us);
    w.key("p95").value(ss.latency_p95_us);
    w.key("p99").value(ss.latency_p99_us);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  BufferPool::Stats bs = buffers_.stats();
  w.key("buffers").begin_object();
  w.key("allocated").value(bs.allocated);
  w.key("reused").value(bs.reused);
  w.key("live").value(bs.live);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string Service::telemetry_json() const {
  support::JsonWriter w(0);
  w.begin_object();
  w.key("enabled").value(options_.telemetry.enabled);
  if (!options_.telemetry.enabled) {
    w.end_object();
    return w.str();
  }
  w.key("slow_threshold_us").value(options_.telemetry.slow_threshold_us);
  w.key("slow_log_path").value(options_.telemetry.slow_log_path);
  w.key("slow_log_entries").value(slow_log_->entries());
  w.key("shards").begin_array();
  for (const auto& shard : shards_) {
    std::uint64_t queue_depth;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      queue_depth = static_cast<std::uint64_t>(shard->queue.size());
    }
    shard->telemetry->render_json(w, queue_depth);
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string Service::telemetry_text() const {
  if (!options_.telemetry.enabled) {
    return "rt-telemetry: disabled\n";
  }
  std::string out = support::format(
      "rt-telemetry: %d shard%s, slow threshold %llu us, %llu slow "
      "request%s%s%s\n",
      shards(), shards() == 1 ? "" : "s",
      static_cast<unsigned long long>(options_.telemetry.slow_threshold_us),
      static_cast<unsigned long long>(slow_log_->entries()),
      slow_log_->entries() == 1 ? "" : "s",
      options_.telemetry.slow_log_path.empty() ? "" : ", log: ",
      options_.telemetry.slow_log_path.c_str());
  for (const auto& shard : shards_) {
    std::uint64_t queue_depth;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      queue_depth = static_cast<std::uint64_t>(shard->queue.size());
    }
    shard->telemetry->render_text(&out, queue_depth);
  }
  return out;
}

std::string Service::telemetry_chrome_json() const {
  if (!options_.telemetry.enabled) return "";
  std::vector<std::string> events;
  for (const auto& shard : shards_) {
    shard->telemetry->append_chrome_events(&events);
  }
  return compose_chrome_trace(shards(), events);
}

std::uint64_t Service::slow_log_entries() const {
  return slow_log_ == nullptr ? 0 : slow_log_->entries();
}

}  // namespace hicsync::rt
