// CoverageSink: the TraceBus subscriber that marks covergroup bins hit.
//
// Same contract as trace::MetricsSink — attach it to the bus a SystemSim
// publishes on and every declared behavior that occurs is recorded; when
// no sink is attached the simulator pays one branch per cycle (the
// zero-cost-when-off property tests/overhead gates). The sink owns the small
// amount of sequencing state coverage needs beyond single events:
// previous FSM state per thread (transition bins), recent arbitration
// winners per controller (ordered-pair and fairness-window bins), and the
// count of concurrently open dependency rounds (occupancy bins).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "cover/registry.h"
#include "trace/bus.h"

namespace hicsync::cover {

class CoverageSink : public trace::TraceSink {
 public:
  /// `model` must already hold the declared covergroups for `in`
  /// (declare_model); the sink hits bins in place. Both must outlive the
  /// sink's last on_event.
  CoverageSink(CoverageModel& model, const ModelInputs& in);

  void on_event(const trace::Event& e) override;

 private:
  struct ThreadState {
    int prev_state = -1;
    int initial = -1;
    int done = -1;
  };
  struct ArbState {
    int num_consumers = 0;
    int last_winner = -1;
    std::deque<int> window;  // most recent port-C winners
  };

  // Applicable covergroups of the model (null when the organization does
  // not declare them, e.g. arb.sequence under event-driven).
  Covergroup* activity_ = nullptr;
  Covergroup* stall_ = nullptr;
  Covergroup* arbseq_ = nullptr;
  Covergroup* occupancy_ = nullptr;
  Covergroup* latency_ = nullptr;
  Covergroup* fsm_state_ = nullptr;
  Covergroup* fsm_transition_ = nullptr;
  Covergroup* cross_consumer_ = nullptr;
  Covergroup* sched_slot_ = nullptr;
  Covergroup* thread_pass_ = nullptr;

  std::map<std::string, ThreadState, std::less<>> threads_;
  std::map<int, ArbState> arb_;        // controller -> win sequencing
  std::map<int, int> open_rounds_;     // controller -> open round count
  std::map<int, int> open_limit_;      // controller -> dependency count
};

}  // namespace hicsync::cover
