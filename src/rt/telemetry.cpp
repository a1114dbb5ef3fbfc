#include "rt/telemetry.h"

#include <algorithm>
#include <fstream>
#include <numeric>

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

/// Earlier spans of the session carried into a forensics record, at most.
constexpr std::size_t kHistoryDepth = 8;
/// Retained slow spans listed in the `telemetry` op's slow_recent, at most.
constexpr std::size_t kSlowRecent = 16;

struct Stage {
  const char* name;
  std::uint64_t (Span::*value)() const;
};
const Stage kStages[] = {
    {"queue_us", &Span::queue_us},
    {"execute_us", &Span::execute_us},
    {"complete_us", &Span::complete_us},
    {"total_us", &Span::total_us},
};

/// One stage over the retained spans: nearest-rank percentiles (the
/// ceil(p/100 * count)-th smallest value); all zero when there is none.
struct Summary {
  std::uint64_t count = 0;
  std::uint64_t min = 0;
  double mean = 0.0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
};

Summary summarize(std::vector<std::uint64_t> values) {
  Summary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  auto rank = [&](std::size_t p) { return values[(p * n + 99) / 100 - 1]; };
  s.count = n;
  s.min = values.front();
  s.mean = static_cast<double>(
               std::accumulate(values.begin(), values.end(),
                               std::uint64_t{0})) /
           static_cast<double>(n);
  s.max = values.back();
  s.p50 = rank(50);
  s.p95 = rank(95);
  s.p99 = rank(99);
  return s;
}

/// A stage over spans in any order (the statistics do not depend on it).
Summary summarize(const std::vector<Span>& spans, const Stage& stage) {
  std::vector<std::uint64_t> values;
  values.reserve(spans.size());
  for (const Span& span : spans) values.push_back((span.*stage.value)());
  return summarize(std::move(values));
}

void write_brief(support::JsonWriter& w, const Span& span) {
  w.begin_object();
  w.key("sequence").value(span.sequence);
  w.key("kind").value(span.kind);
  w.key("ok").value(span.ok);
  w.key("total_us").value(span.total_us());
  if (!span.tag.empty()) w.key("tag").value(span.tag);
  w.end_object();
}

std::string slow_line(const Span& span, int shard,
                      TelemetryClock::time_point epoch,
                      const std::vector<QueuedCommand>& queue_snapshot,
                      const std::vector<const Span*>& history) {
  support::JsonWriter w(0);
  w.begin_object();
  w.key("ts_us").value(us_between(epoch, span.complete));
  w.key("shard").value(shard);
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
  for (const Span* earlier : history) write_brief(w, *earlier);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace

std::uint64_t Span::queue_us() const { return us_between(enqueue, dequeue); }
std::uint64_t Span::execute_us() const {
  return us_between(dequeue, exec_end);
}
std::uint64_t Span::complete_us() const {
  return us_between(exec_end, complete);
}
std::uint64_t Span::total_us() const { return us_between(enqueue, complete); }

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

ShardTelemetry::ShardTelemetry(int shard, const TelemetryOptions& options,
                               TelemetryClock::time_point epoch)
    : shard_(shard), options_(options), epoch_(epoch) {
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  // Size then clear: capacity stays reserved AND every page is touched
  // now, so the worker never takes ring-growth page faults mid-traffic.
  ring_.resize(options_.ring_capacity);
  ring_.clear();
}

bool ShardTelemetry::record(Span span,
                            const std::vector<QueuedCommand>& queue_snapshot,
                            std::string* slow_json) {
  const std::uint64_t execute_us = span.execute_us();
  const bool slow = span.total_us() >= options_.slow_threshold_us;

  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_;
  busy_us_ += execute_us;
  if (slow) {
    ++slow_;
    // Rendered before the span joins the ring, so the history is what the
    // session did leading up to the stall.
    if (slow_json != nullptr) {
      std::vector<const Span*> history;
      for_each_span([&](const Span& earlier) {
        if (earlier.session == span.session) history.push_back(&earlier);
      });
      if (history.size() > kHistoryDepth) {
        history.erase(history.begin(), history.end() - kHistoryDepth);
      }
      *slow_json = slow_line(span, shard_, epoch_, queue_snapshot, history);
    }
  }
  if (ring_.size() < options_.ring_capacity) {
    ring_.push_back(std::move(span));
  } else {
    ++dropped_;
    ring_[ring_head_] = std::move(span);
    if (++ring_head_ == ring_.size()) ring_head_ = 0;
  }
  return slow;
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
  for_each_span([&out](const Span& span) { out.push_back(span); });
  return out;
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
    const Summary s = summarize(ring_, stage);
    w.key(stage.name).begin_object();
    w.key("count").value(s.count);
    w.key("min").value(s.min);
    w.key("mean").value(s.mean);
    w.key("max").value(s.max);
    w.key("p50").value(s.p50);
    w.key("p95").value(s.p95);
    w.key("p99").value(s.p99);
    w.end_object();
  }
  w.end_object();
  std::vector<std::uint64_t> cycles;
  std::vector<const Span*> slow;
  for_each_span([&](const Span& span) {
    if (span.cycles > 0) cycles.push_back(span.cycles);
    if (span.total_us() >= options_.slow_threshold_us) slow.push_back(&span);
  });
  const Summary run_cycles = summarize(std::move(cycles));
  w.key("run_cycles").begin_object();
  w.key("count").value(run_cycles.count);
  w.key("p50").value(run_cycles.p50);
  w.key("p95").value(run_cycles.p95);
  w.key("p99").value(run_cycles.p99);
  w.end_object();
  w.key("slow_recent").begin_array();
  const std::size_t first =
      slow.size() > kSlowRecent ? slow.size() - kSlowRecent : 0;
  for (std::size_t i = first; i < slow.size(); ++i) write_brief(w, *slow[i]);
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
    const Summary s = summarize(ring_, stage);
    if (s.count == 0) continue;
    *out += support::format(
        "    %-11s count %llu, p50 %llu, p95 %llu, p99 %llu, "
        "max %llu us\n",
        stage.name, static_cast<unsigned long long>(s.count),
        static_cast<unsigned long long>(s.p50),
        static_cast<unsigned long long>(s.p95),
        static_cast<unsigned long long>(s.p99),
        static_cast<unsigned long long>(s.max));
  }
}

void ShardTelemetry::append_chrome_events(
    std::vector<std::string>* events) const {
  for (const Span& span : spans()) {
    std::uint64_t ts = us_between(epoch_, span.enqueue);
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
