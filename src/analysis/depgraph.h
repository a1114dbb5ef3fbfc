// Inter-thread dependence graph and static deadlock detection.
//
// §1 of the paper: "deadlocks are identified statically since the user
// explicitly specifies producer(s) and consumer(s)". With blocking consumer
// reads, a cycle in the thread-level wait-for graph (t_a consumes from t_b,
// t_b consumes from t_a, ...) can deadlock when each producer's write is
// ordered after its own blocking read.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "hic/sema.h"

namespace hicsync::analysis {

/// Thread-level dependence graph: edge producer → consumer for every
/// dependency endpoint.
class ThreadDepGraph {
 public:
  struct Edge {
    int from = -1;  // producer thread index
    int to = -1;    // consumer thread index
    const hic::Dependency* dep = nullptr;
  };

  static ThreadDepGraph build(const hic::Program& program,
                              const std::vector<hic::Dependency>& deps);

  [[nodiscard]] const std::vector<std::string>& threads() const {
    return threads_;
  }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }
  [[nodiscard]] int thread_index(const std::string& name) const;

  /// Strongly connected components with more than one node (or a self
  /// loop): these are the potential deadlock cycles. Each component lists
  /// thread indices in ascending order; components come in reverse
  /// topological order of the graph.
  [[nodiscard]] const std::vector<std::vector<int>>& deadlock_cycles() const {
    return cycles_;
  }
  [[nodiscard]] bool has_deadlock_risk() const { return !cycles_.empty(); }

  /// Human-readable description of each potential deadlock cycle.
  [[nodiscard]] std::vector<std::string> deadlock_reports() const;

 private:
  std::vector<std::string> threads_;
  std::unordered_map<std::string, int> thread_ids_;  // name -> first thread
  std::vector<Edge> edges_;
  std::vector<std::vector<int>> cycles_;
};

}  // namespace hicsync::analysis
