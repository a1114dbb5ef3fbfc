// System-level cycle-accurate simulation.
//
// Executes a compiled hic program against the *generated* memory
// organization netlists: each thread's FSM is interpreted, and every
// shared-memory access goes through an rtl::ModuleSim instance of the
// arbitrated or event-driven controller — so blocking, arbitration delays,
// and the modulo schedule come from the same logic the Verilog backend
// emits, not from a separate behavioural model. The simulator builds
// neither: it borrows the FSMs and controllers its caller built (the
// compiler, or hic-rt's artifact loader), so scheduling, the CAM choice and
// hic-bound pruning are simulated exactly as compiled. Each controller's
// ports come from the map its generator returned with it
// (GeneratedController::ports), copied at construction into per-pseudo-port
// vectors of net ids; the simulator never looks a net up by name.
//
// Construction lowers every thread FSM once. Each state becomes a plan in
// which every statement's controller, placement, access role, dependency,
// pseudo-port and event-driven slot are resolved; registers live in a
// dense slot vector, and value, condition and index expressions are
// postfix tapes over it. Externs are still called by name through
// ExternFuncs at evaluation time, so they can be re-bound between runs.
//
// One cycle: clear the controllers' request inputs, let every thread drive
// its in-flight access, settle each controller once, let every thread
// observe grants and data, then clock each controller's edge without
// re-settling (rtl::ModuleSim::step_edge) — nothing reads a combinational
// net before the next cycle's settle.
//
// Substitute for running the bitstream on a Virtex-II Pro (see DESIGN.md):
// the functional and latency claims of §3/§4 are cycle-level properties of
// the controllers, which this executes faithfully.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hic/sema.h"
#include "memorg/controller.h"
#include "rtl/eval.h"
#include "sim/externs.h"
#include "synth/fsm.h"
#include "trace/bus.h"

namespace hicsync::sim {

// The organization is chosen where controllers are built (memorg); the
// simulator's callers name it through sim:: as well.
using memorg::OrgKind;
using memorg::parse_org;
using memorg::to_string;

struct SystemOptions {
  /// Must be the organization of every controller passed to SystemSim;
  /// a mismatch throws std::invalid_argument.
  OrgKind organization = OrgKind::Arbitrated;
  /// Threads restart after run-to-completion (each pass processes one
  /// message). A gate callback can hold a thread at Done (e.g. waiting for
  /// a packet arrival).
  bool restart_threads = true;
};

/// Per-thread snapshot for timeout/deadlock reporting: where the thread is
/// in its FSM and, if it is waiting on the memory system, on what.
struct ThreadDiagnostic {
  std::string thread;
  int passes = 0;
  std::string mode;        // "gated" | "plan" | "fetch" | "write" | ...
  int fsm_state = -1;
  bool blocked = false;
  /// Human-readable description of the in-flight access ("consumer read of
  /// dep 'mt1' on bram0 port C1, waiting 153 cycles"); empty when idle.
  std::string waiting_on;
};

/// One produce→consume round observed on a dependency.
struct DepRound {
  std::string dep_id;
  std::uint64_t produce_grant_cycle = 0;
  /// thread name → cycle its read data became valid.
  std::vector<std::pair<std::string, std::uint64_t>> consume_cycles;

  /// Latency from the producer's grant to the last consumer's data.
  [[nodiscard]] std::uint64_t completion_latency() const;
};

class SystemSim {
 public:
  /// `sema` must have run successfully. `fsms` holds one FSM per thread
  /// of `program` and `controllers` one generated controller per BRAM
  /// (memorg::build_controller). `sema`, `fsms` and `controllers` are
  /// borrowed, not copied, and must outlive the simulator (each module is
  /// owned by the rtl::Design it was built into, which must outlive it
  /// too). Throws std::invalid_argument when a thread has no FSM or a
  /// controller's organization is not options.organization.
  SystemSim(const hic::Program& program, const hic::Sema& sema,
            const std::vector<synth::ThreadFsm>& fsms,
            const std::vector<memorg::GeneratedController>& controllers,
            SystemOptions options);
  ~SystemSim();

  SystemSim(const SystemSim&) = delete;
  SystemSim& operator=(const SystemSim&) = delete;

  ExternFuncs& externs() { return externs_; }

  /// Attaches a hic-trace bus (not owned; may be null to detach). With no
  /// bus — or a bus with no sinks — instrumentation costs one branch per
  /// cycle, so untraced simulations run at full speed.
  void set_trace(trace::TraceBus* bus) { trace_ = bus; }
  [[nodiscard]] trace::TraceBus* trace() const { return trace_; }

  /// Gate: called when a thread is at Done (or before its first pass);
  /// returning true releases the next run-to-completion pass. Default:
  /// always true when options.restart_threads.
  void set_gate(const std::string& thread,
                std::function<bool(std::uint64_t cycle)> gate);

  /// Returns the system to its just-constructed state so the instance can
  /// run another workload: cycle counter, rounds, controller netlists
  /// (registers *and* BRAM contents), port-A arbitration history and every
  /// thread's FSM position, pass count and register file are cleared.
  /// Gates, externs and the attached trace bus are left alone — they are
  /// caller policy (the hic-rt pool clears/re-seeds externs per workload).
  /// A reset instance produces results identical to a fresh one
  /// (tests/sim/system_reset_test.cpp proves this differentially).
  void reset();

  /// Advances one clock cycle.
  void step();
  /// Runs until every thread has completed at least `passes` passes or
  /// `max_cycles` elapse. Returns true if the target was reached.
  bool run_until_passes(int passes, std::uint64_t max_cycles);

  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }
  [[nodiscard]] int passes(const std::string& thread) const;
  /// Value of a (register) variable after the last completed pass.
  [[nodiscard]] std::uint64_t register_value(const std::string& thread,
                                             const std::string& var) const;
  /// Completed produce→consume rounds, in completion order.
  [[nodiscard]] const std::vector<DepRound>& rounds() const { return rounds_; }
  /// True if a thread is currently blocked waiting on the controller.
  [[nodiscard]] bool is_blocked(const std::string& thread) const;

  /// Snapshot of every thread's progress and current wait, for timeout
  /// reporting (what run_until_passes prints on failure) and tests.
  [[nodiscard]] std::vector<ThreadDiagnostic> thread_diagnostics() const;
  /// The diagnostics rendered one line per thread, e.g. for a driver to
  /// print when a simulation deadline expires.
  [[nodiscard]] std::string stall_report() const;

  // Implementation types, defined in system.cpp (opaque to users; public so
  // file-local helpers can name them).
  struct ThreadExec;
  struct Controller;

 private:
  [[nodiscard]] ThreadExec* find_thread(const std::string& name) const;
  void drive_phase();
  void observe_phase();
  /// Advances the thread's in-flight memory operation by what the settled
  /// controller shows this cycle.
  void observe_op(ThreadExec& t, bool tracing);

  const hic::Sema& sema_;
  SystemOptions options_;
  ExternFuncs externs_;
  std::vector<std::unique_ptr<Controller>> controllers_;
  std::vector<std::unique_ptr<ThreadExec>> threads_;
  std::vector<DepRound> rounds_;
  // Per dependency id (numbered at construction): the rounds_ index of its
  // open round.
  std::vector<std::size_t> open_round_;
  std::uint64_t cycle_ = 0;
  trace::TraceBus* trace_ = nullptr;
};

}  // namespace hicsync::sim
