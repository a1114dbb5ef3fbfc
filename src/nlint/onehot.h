// Bounded bit-level mutual-exclusion prover over combinational cones.
//
// Discharges the structural claims the RTL builders record
// (rtl::Module::onehot_claims): a set of 1-bit nets of which at most one may
// be high in any cycle — the single-grant invariant of the round-robin
// arbiter, decoder outputs, and every build_onehot_mux select set.
//
// Method: for each member net, assume it is 1 and propagate the implied
// necessary conditions backward through its combinational cone (an
// implication-literal abstract domain: exact values of nets). Two members
// whose implied fact sets contradict on some net can never be high
// together. Muxes with unresolved selects stall propagation and nominate
// the select as a global case-split variable; the proof then requires the
// contradiction in *every* case, which is what discharges the arbiter's
// hi/lo rotating-priority structure. Pairs the implication engine cannot
// separate fall back to exhaustive enumeration of the pair's cone support
// when it is small enough — which either produces a concrete overlapping
// assignment (a definite violation, with witness) or completes the proof.
// Registers, inputs and memory-read nets are treated as free variables, so
// every proof is sound for arbitrary reachable states.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nlint/netgraph.h"

namespace hicsync::nlint {

struct OneHotOptions {
  /// Case-split budget: at most this many distinct select nets (2^n cases).
  int max_split_nets = 4;
  /// Exhaustive-fallback budget: total free bits of a pair's cone support.
  int max_enum_bits = 14;
  /// At most this many unproved pairs are handed to the fallback.
  int max_fallback_pairs = 8;
};

enum class OneHotStatus { Proved, Violation, Inconclusive };

[[nodiscard]] const char* to_string(OneHotStatus s);

struct OneHotOutcome {
  OneHotStatus status = OneHotStatus::Proved;
  /// Offending (Violation) or undecided (Inconclusive) pair of claim nets.
  int net_a = -1;
  int net_b = -1;
  /// Violation: the concrete overlapping assignment, e.g.
  /// "req0=1 req1=1 (other cone inputs 0)".
  std::string witness;
  /// One-line proof narration for --explain.
  std::string detail;
  int cases_used = 0;
  int pairs_total = 0;
  int pairs_by_implication = 0;
  int pairs_by_enumeration = 0;
  std::uint64_t facts_derived = 0;
};

/// Proves one-hot claims over one module's graph. The prover's scratch
/// (fact store, per-net value groups, pair matrices) is sized to the graph
/// once and reused across cases and claims; results do not depend on what
/// it proved before.
class OneHotProver {
 public:
  explicit OneHotProver(const NetGraph& g);
  ~OneHotProver();
  OneHotProver(const OneHotProver&) = delete;
  OneHotProver& operator=(const OneHotProver&) = delete;

  /// Proves that at most one of `members` (1-bit nets of g's module) can
  /// be 1 in any single cycle, for any values of the cone's free variables.
  [[nodiscard]] OneHotOutcome prove(const std::vector<int>& members,
                                    const OneHotOptions& opt = {});

 private:
  struct Scratch;
  /// One implication round over every case of `splits`; leaves the pairs
  /// separated in every case in the scratch's coverage matrix and returns
  /// the next split candidates.
  std::vector<int> run_round(const std::vector<int>& ms,
                             const std::vector<int>& splits,
                             OneHotOutcome& out);

  const NetGraph& g_;
  std::unique_ptr<Scratch> s_;
};

/// One claim with a fresh prover.
[[nodiscard]] OneHotOutcome prove_onehot(const NetGraph& g,
                                         const std::vector<int>& members,
                                         const OneHotOptions& opt = {});

}  // namespace hicsync::nlint
