#include "trace/chrome.h"

#include "support/strings.h"

namespace hicsync::trace {

std::string chrome_trace_document(const std::vector<std::string>& events) {
  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    out += events[i];
    if (i + 1 < events.size()) out += ",";
    out += "\n";
  }
  out += "],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

namespace {

std::string port_track_name(const Event& e) {
  std::string n = "bram" + std::to_string(e.controller) + "." +
                  to_string(e.port);
  if (e.pseudo_port >= 0 && e.port != PortKind::A) {
    n += std::to_string(e.pseudo_port);
  }
  return n;
}

constexpr int kThreadPid = 1;
constexpr int kPortPid = 2;
constexpr int kDepPid = 3;

}  // namespace

ChromeTraceSink::Track ChromeTraceSink::track(int pid,
                                              const std::string& name) {
  std::string key = std::to_string(pid) + "/" + name;
  auto it = tracks_.find(key);
  if (it == tracks_.end()) {
    Track t;
    t.pid = pid;
    t.tid = ++next_tid_[pid];
    it = tracks_.emplace(key, t).first;
    events_.push_back(support::format(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"name\":\"%s\"}}",
        t.pid, t.tid, name.c_str()));
  }
  return it->second;
}

void ChromeTraceSink::emit_json(const std::string& line) {
  events_.push_back(line);
}

void ChromeTraceSink::on_event(const Event& e) {
  switch (e.kind) {
    case EventKind::PortGrant: {
      Track t = track(kPortPid, port_track_name(e));
      emit_json(support::format(
          "{\"name\":\"grant\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%llu,"
          "\"pid\":%d,\"tid\":%d,\"args\":{\"thread\":\"%.*s\"}}",
          static_cast<unsigned long long>(e.cycle), t.pid, t.tid,
          static_cast<int>(e.thread.size()), e.thread.data()));
      break;
    }
    case EventKind::PortStall: {
      Track t = track(kPortPid, port_track_name(e));
      emit_json(support::format(
          "{\"name\":\"stall\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%llu,"
          "\"pid\":%d,\"tid\":%d,"
          "\"args\":{\"cause\":\"%s\",\"thread\":\"%.*s\"}}",
          static_cast<unsigned long long>(e.cycle), t.pid, t.tid,
          to_string(e.cause), static_cast<int>(e.thread.size()),
          e.thread.data()));
      break;
    }
    case EventKind::FsmState: {
      std::string thread(e.thread);
      Track t = track(kThreadPid, thread);
      OpenSpan& span = state_spans_[thread];
      if (span.open) {
        emit_json(support::format(
            "{\"name\":\"S%lld\",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,"
            "\"pid\":%d,\"tid\":%d}",
            static_cast<long long>(span.value),
            static_cast<unsigned long long>(span.start),
            static_cast<unsigned long long>(
                e.cycle > span.start ? e.cycle - span.start : 1),
            t.pid, t.tid));
      }
      span.open = true;
      span.start = e.cycle;
      span.value = e.value;
      break;
    }
    case EventKind::ThreadBlock: {
      std::string thread(e.thread);
      track(kThreadPid, thread);
      OpenSpan& span = block_spans_[thread];
      span.open = true;
      span.start = e.cycle;
      break;
    }
    case EventKind::ThreadUnblock: {
      std::string thread(e.thread);
      Track t = track(kThreadPid, thread);
      OpenSpan& span = block_spans_[thread];
      if (span.open) {
        emit_json(support::format(
            "{\"name\":\"blocked\",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,"
            "\"pid\":%d,\"tid\":%d}",
            static_cast<unsigned long long>(span.start),
            static_cast<unsigned long long>(
                e.cycle > span.start ? e.cycle - span.start : 1),
            t.pid, t.tid));
        span.open = false;
      }
      break;
    }
    case EventKind::Produce: {
      std::string dep(e.dep);
      track(kDepPid, dep);
      OpenSpan& span = round_spans_[dep];
      span.open = true;
      span.start = e.cycle;
      round_controller_[dep] = e.controller;
      break;
    }
    case EventKind::RoundComplete: {
      std::string dep(e.dep);
      Track t = track(kDepPid, dep);
      OpenSpan& span = round_spans_[dep];
      if (span.open) {
        emit_json(support::format(
            "{\"name\":\"round %s\",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,"
            "\"pid\":%d,\"tid\":%d,\"args\":{\"latency\":%lld}}",
            dep.c_str(), static_cast<unsigned long long>(span.start),
            static_cast<unsigned long long>(
                e.cycle > span.start ? e.cycle - span.start : 1),
            t.pid, t.tid, static_cast<long long>(e.value)));
        span.open = false;
      }
      break;
    }
    case EventKind::Consume:
    case EventKind::PortRequest:
    case EventKind::ArbWin:
    case EventKind::SlotAdvance:
    case EventKind::PassComplete:
      break;
  }
}

void ChromeTraceSink::finish(std::uint64_t final_cycle) {
  // Close any spans still open at the end of the run.
  for (auto& [thread, span] : state_spans_) {
    if (!span.open) continue;
    Track t = track(kThreadPid, thread);
    emit_json(support::format(
        "{\"name\":\"S%lld\",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,"
        "\"pid\":%d,\"tid\":%d}",
        static_cast<long long>(span.value),
        static_cast<unsigned long long>(span.start),
        static_cast<unsigned long long>(
            final_cycle > span.start ? final_cycle - span.start : 1),
        t.pid, t.tid));
    span.open = false;
  }
  for (auto& [thread, span] : block_spans_) {
    if (!span.open) continue;
    Track t = track(kThreadPid, thread);
    emit_json(support::format(
        "{\"name\":\"blocked\",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,"
        "\"pid\":%d,\"tid\":%d}",
        static_cast<unsigned long long>(span.start),
        static_cast<unsigned long long>(
            final_cycle > span.start ? final_cycle - span.start : 1),
        t.pid, t.tid));
    span.open = false;
  }

  // Name the three process groups for the viewer's track tree.
  std::vector<std::string> lines;
  constexpr const char* kPidNames[] = {"threads", "controller ports",
                                       "dependencies"};
  for (int pid = kThreadPid; pid <= kDepPid; ++pid) {
    if (next_tid_.count(pid) == 0) continue;
    lines.push_back(support::format(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
        "\"args\":{\"name\":\"%s\"}}",
        pid, kPidNames[pid - 1]));
  }
  lines.insert(lines.end(), events_.begin(), events_.end());

  out_ = chrome_trace_document(lines);
}

}  // namespace hicsync::trace
