// Chrome-trace (chrome://tracing / Perfetto) JSON exporter.
//
// Renders the event stream as a Trace Event Format document with one track
// per thread (FSM-state spans, block spans) and one track per controller
// pseudo-port (grant instants, stall instants with the cause in args), plus
// a dependency track per controller carrying produce→round-complete spans.
// One simulation cycle maps to one microsecond of trace time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/bus.h"

namespace hicsync::trace {

/// The Trace Event Format envelope shared by every Chrome-trace writer:
/// `{"traceEvents":[` then the serialized events one per line, comma
/// separated, then `],"displayTimeUnit":"ns"}`.
[[nodiscard]] std::string chrome_trace_document(
    const std::vector<std::string>& events);

class ChromeTraceSink : public TraceSink {
 public:
  void on_event(const Event& e) override;
  void finish(std::uint64_t final_cycle) override;

  /// The complete JSON document. Valid after finish().
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  struct Track {
    int pid = 0;
    int tid = 0;
  };

  Track track(int pid, const std::string& name);
  void emit_json(const std::string& line);

  // pid 1: threads, pid 2: controller ports, pid 3: dependencies.
  std::map<std::string, Track> tracks_;  // keyed "pid/name"
  std::map<int, int> next_tid_;
  std::vector<std::string> events_;      // serialized JSON objects

  struct OpenSpan {
    bool open = false;
    std::uint64_t start = 0;
    std::int64_t value = 0;
  };
  std::map<std::string, OpenSpan> state_spans_;  // thread -> current state
  std::map<std::string, OpenSpan> block_spans_;  // thread -> block span
  std::map<std::string, OpenSpan> round_spans_;  // dep -> open round
  std::map<std::string, int> round_controller_;  // dep -> controller id
  std::string out_;
};

}  // namespace hicsync::trace
