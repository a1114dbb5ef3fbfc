#include "rt/telemetry.h"

#include <algorithm>
#include <fstream>

#include "support/strings.h"
#include "trace/chrome.h"

namespace hicsync::rt {

namespace {

std::uint64_t us_between(TelemetryClock::time_point a,
                         TelemetryClock::time_point b) {
  if (b <= a) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

/// Stage-latency bucket bounds (µs): resolves sub-millisecond queue hops
/// and still separates multi-second pathologies.
const std::vector<std::uint64_t> kStageBoundsUs = {
    1,    2,    5,    10,    20,    50,    100,   200,
    500,  1000, 2000, 5000,  10000, 20000, 50000, 100000,
    200000, 500000, 1000000, 5000000};

/// Run-cycle bucket bounds, matching the simulator's typical pass sizes.
const std::vector<std::uint64_t> kCycleBounds = {
    64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536, 262144};

/// Per-session span history carried into a forensics record.
constexpr std::size_t kHistoryDepth = 8;
/// Recent slow-span summaries kept per shard (the `telemetry` op's
/// slow_recent list).
constexpr std::size_t kSlowRecent = 16;

}  // namespace

void SessionHistory::push(SpanBrief brief, std::size_t depth) {
  if (slots.empty()) slots.resize(depth == 0 ? 1 : depth);
  slots[head] = std::move(brief);
  head = (head + 1) % slots.size();
  if (size < slots.size()) ++size;
}

std::uint64_t Span::submit_us() const { return us_between(submit, enqueue); }
std::uint64_t Span::queue_us() const { return us_between(enqueue, dequeue); }
std::uint64_t Span::execute_us() const {
  return us_between(dequeue, exec_end);
}
std::uint64_t Span::complete_us() const {
  return us_between(exec_end, complete);
}
std::uint64_t Span::total_us() const { return us_between(submit, complete); }

// ---------------------------------------------------------------------------
// SlowRequestLog
// ---------------------------------------------------------------------------

SlowRequestLog::SlowRequestLog(std::string path) : path_(std::move(path)) {}

void SlowRequestLog::append(const std::string& json_line) {
  std::lock_guard<std::mutex> lock(mu_);
  ++entries_;
  if (path_.empty()) return;
  std::ofstream out(path_, std::ios::app);
  if (out) out << json_line << '\n';
}

std::uint64_t SlowRequestLog::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

// ---------------------------------------------------------------------------
// ShardTelemetry
// ---------------------------------------------------------------------------

const ShardTelemetry::Stage ShardTelemetry::kStages[5] = {
    {"submit_us", &Span::submit_us},     {"queue_us", &Span::queue_us},
    {"execute_us", &Span::execute_us},   {"complete_us", &Span::complete_us},
    {"total_us", &Span::total_us},
};

ShardTelemetry::ShardTelemetry(int shard, const TelemetryOptions& options,
                               TelemetryClock::time_point epoch)
    : shard_(shard), options_(options), epoch_(epoch) {
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  // Size then clear: capacity stays reserved AND every page is touched
  // now, so the worker never takes ring-growth page faults mid-traffic.
  ring_.resize(options_.ring_capacity);
  ring_.clear();
  for (std::size_t i = 0; i < 5; ++i) {
    stage_hist_[i] = &registry_.histogram(
        std::string("telemetry.") + kStages[i].name, kStageBoundsUs);
  }
  cycles_hist_ = &registry_.histogram("telemetry.run_cycles", kCycleBounds);
}

bool ShardTelemetry::record(Span span,
                            const std::vector<QueuedCommand>& queue_snapshot,
                            std::string* slow_json) {
  // One pass over the stage values, in kStages order (submit, queue,
  // execute, complete, total) — each is a duration subtraction and this
  // function runs once per command.
  const std::uint64_t stage_us[5] = {span.submit_us(), span.queue_us(),
                                     span.execute_us(), span.complete_us(),
                                     span.total_us()};

  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_;
  busy_us_ += stage_us[2];

  for (std::size_t i = 0; i < 5; ++i) {
    stage_hist_[i]->record(stage_us[i]);
  }
  if (span.cycles > 0) cycles_hist_->record(span.cycles);

  SpanBrief brief;
  brief.sequence = span.sequence;
  brief.kind = span.kind;
  brief.ok = span.ok;
  brief.total_us = stage_us[4];
  brief.tag = span.tag;

  // Promotion reads the history *before* this span is appended, so a
  // forensics record shows what the session did leading up to the stall.
  SessionHistory& history = history_[span.session];
  const bool slow = stage_us[4] >= options_.slow_threshold_us;
  if (slow) {
    ++slow_;
    slow_recent_.push_back(brief);
    while (slow_recent_.size() > kSlowRecent) {
      slow_recent_.pop_front();
    }
    if (slow_json != nullptr) {
      render_slow_line(span, queue_snapshot, history, slow_json);
    }
  }
  history.push(std::move(brief), kHistoryDepth);

  if (ring_.size() < options_.ring_capacity) {
    ring_.push_back(std::move(span));
  } else {
    ring_full_ = true;
    ++dropped_;
    ring_[ring_head_] = std::move(span);
    ring_head_ = (ring_head_ + 1) % options_.ring_capacity;
  }
  return slow;
}

void ShardTelemetry::session_closed(std::uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  history_.erase(session);
}

std::uint64_t ShardTelemetry::spans_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t ShardTelemetry::spans_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::uint64_t ShardTelemetry::slow_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_;
}

std::uint64_t ShardTelemetry::busy_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_us_;
}

std::vector<Span> ShardTelemetry::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.reserve(ring_.size());
  if (!ring_full_) {
    out = ring_;
    return out;
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_head_ + i) % ring_.size()]);
  }
  return out;
}

namespace {

void write_brief(support::JsonWriter& w, const SpanBrief& b) {
  w.begin_object();
  w.key("sequence").value(b.sequence);
  w.key("kind").value(b.kind);
  w.key("ok").value(b.ok);
  w.key("total_us").value(b.total_us);
  if (!b.tag.empty()) w.key("tag").value(b.tag);
  w.end_object();
}

}  // namespace

void ShardTelemetry::render_slow_line(
    const Span& span, const std::vector<QueuedCommand>& queue_snapshot,
    const SessionHistory& history, std::string* out) const {
  support::JsonWriter w(0);
  w.begin_object();
  w.key("ts_us").value(us_between(epoch_, span.complete));
  w.key("shard").value(shard_);
  w.key("session").value(span.session);
  w.key("sequence").value(span.sequence);
  w.key("kind").value(span.kind);
  if (!span.tag.empty()) w.key("tag").value(span.tag);
  w.key("ok").value(span.ok);
  if (!span.ok) w.key("error").value(span.error);
  w.key("total_us").value(span.total_us());
  w.key("stages").begin_object();
  for (const Stage& stage : kStages) {
    if (stage.value == &Span::total_us) continue;
    w.key(stage.name).value((span.*stage.value)());
  }
  w.end_object();
  w.key("cycles").value(span.cycles);
  w.key("queue_depth_at_enqueue").value(span.queue_depth);
  w.key("queue_snapshot").begin_object();
  w.key("depth").value(static_cast<std::uint64_t>(queue_snapshot.size()));
  w.key("pending").begin_array();
  for (const QueuedCommand& q : queue_snapshot) {
    w.begin_object();
    w.key("session").value(q.session);
    w.key("kind").value(q.kind);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("history").begin_array();
  history.for_each([&w](const SpanBrief& b) { write_brief(w, b); });
  w.end_array();
  w.end_object();
  *out = w.str();
}

void ShardTelemetry::render_json(support::JsonWriter& w,
                                 std::uint64_t queue_depth) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.begin_object();
  w.key("shard").value(shard_);
  w.key("queue_depth").value(queue_depth);
  w.key("busy_us").value(busy_us_);
  w.key("spans_recorded").value(recorded_);
  w.key("spans_dropped").value(dropped_);
  w.key("slow_count").value(slow_);
  w.key("stages").begin_object();
  for (const Stage& stage : kStages) {
    const trace::Histogram* h =
        registry_.find_histogram(std::string("telemetry.") + stage.name);
    w.key(stage.name).begin_object();
    w.key("count").value(h != nullptr ? h->count() : 0);
    w.key("min").value(h != nullptr ? h->min() : 0);
    w.key("mean").value(h != nullptr ? h->mean() : 0.0);
    w.key("max").value(h != nullptr ? h->max() : 0);
    w.key("p50").value(h != nullptr ? h->percentile(50) : 0);
    w.key("p95").value(h != nullptr ? h->percentile(95) : 0);
    w.key("p99").value(h != nullptr ? h->percentile(99) : 0);
    w.end_object();
  }
  w.end_object();
  const trace::Histogram* cycles =
      registry_.find_histogram("telemetry.run_cycles");
  w.key("run_cycles").begin_object();
  w.key("count").value(cycles != nullptr ? cycles->count() : 0);
  w.key("p50").value(cycles != nullptr ? cycles->percentile(50) : 0);
  w.key("p95").value(cycles != nullptr ? cycles->percentile(95) : 0);
  w.key("p99").value(cycles != nullptr ? cycles->percentile(99) : 0);
  w.end_object();
  w.key("slow_recent").begin_array();
  for (const SpanBrief& b : slow_recent_) write_brief(w, b);
  w.end_array();
  w.end_object();
}

void ShardTelemetry::render_text(std::string* out,
                                 std::uint64_t queue_depth) const {
  std::lock_guard<std::mutex> lock(mu_);
  *out += support::format(
      "  shard %d: %llu spans (%llu dropped), %llu slow, busy %llu us, "
      "queue %llu\n",
      shard_, static_cast<unsigned long long>(recorded_),
      static_cast<unsigned long long>(dropped_),
      static_cast<unsigned long long>(slow_),
      static_cast<unsigned long long>(busy_us_),
      static_cast<unsigned long long>(queue_depth));
  for (const Stage& stage : kStages) {
    const trace::Histogram* h =
        registry_.find_histogram(std::string("telemetry.") + stage.name);
    if (h == nullptr || h->count() == 0) continue;
    *out += support::format(
        "    %-11s count %llu, p50 %llu, p95 %llu, p99 %llu, "
        "max %llu us\n",
        stage.name, static_cast<unsigned long long>(h->count()),
        static_cast<unsigned long long>(h->percentile(50)),
        static_cast<unsigned long long>(h->percentile(95)),
        static_cast<unsigned long long>(h->percentile(99)),
        static_cast<unsigned long long>(h->max()));
  }
}

void ShardTelemetry::append_chrome_events(
    std::vector<std::string>* events) const {
  for (const Span& span : spans()) {
    std::uint64_t ts = us_between(epoch_, span.submit);
    std::uint64_t dur = std::max<std::uint64_t>(span.total_us(), 1);
    std::string args = support::format(
        "{\"session\":%llu,\"sequence\":%llu,\"queue_depth\":%llu,"
        "\"cycles\":%llu,\"ok\":%s",
        static_cast<unsigned long long>(span.session),
        static_cast<unsigned long long>(span.sequence),
        static_cast<unsigned long long>(span.queue_depth),
        static_cast<unsigned long long>(span.cycles),
        span.ok ? "true" : "false");
    if (!span.tag.empty()) {
      args += ",\"tag\":\"" + support::json_escape(span.tag) + "\"";
    }
    args += "}";
    events->push_back(support::format(
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,"
        "\"pid\":1,\"tid\":%d,\"args\":%s}",
        span.kind, static_cast<unsigned long long>(ts),
        static_cast<unsigned long long>(dur), shard_ + 1, args.c_str()));
  }
}

std::string compose_chrome_trace(int shards,
                                 const std::vector<std::string>& events) {
  std::vector<std::string> lines;
  lines.push_back(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"hic-rt\"}}");
  for (int i = 0; i < shards; ++i) {
    lines.push_back(support::format(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
        "\"args\":{\"name\":\"shard %d\"}}",
        i + 1, i));
  }
  lines.insert(lines.end(), events.begin(), events.end());
  return trace::chrome_trace_document(lines);
}

}  // namespace hicsync::rt
