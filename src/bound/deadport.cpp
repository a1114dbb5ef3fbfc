#include "bound/deadport.h"

#include <algorithm>

#include "support/bits.h"
#include "support/strings.h"

namespace hicsync::bound {

namespace {

/// Index of `dep` in the model's dependency table (pointer identity, id
/// fallback for plans built from a different sema pass).
int dep_index(const verify::ProgramModel& model, const hic::Dependency* dep) {
  for (std::size_t i = 0; i < model.deps().size(); ++i) {
    if (model.deps()[i].dep == dep) return static_cast<int>(i);
  }
  for (std::size_t i = 0; i < model.deps().size(); ++i) {
    if (model.deps()[i].dep != nullptr && dep != nullptr &&
        model.deps()[i].dep->id == dep->id) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Which sync sites of each dependency can execute, computed once for all
/// port clients rather than rescanned per client.
struct SiteLiveness {
  std::vector<char> produce;      // per dependency: its produce site
  std::vector<char> any_consume;  // per dependency: some consume site
  /// Per thread, the (ascending) dependencies with a reachable consume
  /// site in that thread.
  std::vector<std::vector<int>> consumes;

  SiteLiveness(const verify::ProgramModel& model,
               const std::vector<ThreadCounters>& counters)
      : produce(model.deps().size(), 0),
        any_consume(model.deps().size(), 0),
        consumes(model.threads().size()) {
    for (std::size_t di = 0; di < model.deps().size(); ++di) {
      const verify::DepModel& dm = model.deps()[di];
      const int d = static_cast<int>(di);
      if (dm.producer_thread >= 0) {
        const OpCount* oc =
            counters[static_cast<std::size_t>(dm.producer_thread)].find(
                verify::SyncOp::Kind::Produce, d, -1);
        produce[di] = oc != nullptr && oc->reachable;
      }
      for (std::size_t k = 0; k < dm.consume_sites.size(); ++k) {
        const int thread = dm.consume_sites[k].thread;
        if (thread < 0) continue;
        const OpCount* oc = counters[static_cast<std::size_t>(thread)].find(
            verify::SyncOp::Kind::Consume, d, static_cast<int>(k));
        if (oc == nullptr || !oc->reachable) continue;
        any_consume[di] = 1;
        std::vector<int>& live = consumes[static_cast<std::size_t>(thread)];
        if (live.empty() || live.back() != d) live.push_back(d);
      }
    }
  }

  [[nodiscard]] bool produces(int di) const {
    return produce[static_cast<std::size_t>(di)] != 0;
  }
  [[nodiscard]] bool fully_dead(int di) const {
    return !produces(di) && any_consume[static_cast<std::size_t>(di)] == 0;
  }
  [[nodiscard]] bool consumes_in(int di, int thread) const {
    const std::vector<int>& live = consumes[static_cast<std::size_t>(thread)];
    return std::binary_search(live.begin(), live.end(), di);
  }
};

}  // namespace

std::vector<DeadPortReport> dead_ports(
    const verify::ProgramModel& model,
    const std::vector<memalloc::BramPortPlan>& plans,
    const std::vector<ThreadCounters>& counters) {
  std::vector<DeadPortReport> out;
  const SiteLiveness live(model, counters);
  for (const memalloc::BramPortPlan& plan : plans) {
    DeadPortReport rep;
    rep.bram_id = plan.bram_id;
    rep.planned_consumer_ports = plan.consumer_pseudo_ports();
    rep.planned_producer_ports = plan.producer_pseudo_ports();
    rep.live_consumer_ports = rep.planned_consumer_ports;
    rep.live_producer_ports = rep.planned_producer_ports;

    // Fully-dead dependency entries on this BRAM (counted once per BRAM,
    // not per port they feed).
    std::uint64_t dead_entry_bits = 0;
    for (std::size_t di = 0; di < model.deps().size(); ++di) {
      const verify::DepModel& dm = model.deps()[di];
      if (dm.controller < 0 ||
          model.controllers()[static_cast<std::size_t>(dm.controller)]
                  .bram_id != plan.bram_id) {
        continue;
      }
      if (live.fully_dead(static_cast<int>(di))) {
        // Countdown register + valid bit of the §3.1 dependency list.
        dead_entry_bits +=
            static_cast<std::uint64_t>(support::clog2_at_least1(
                static_cast<std::uint64_t>(
                    dm.dependency_number > 0 ? dm.dependency_number : 1) +
                1)) +
            1;
      }
    }

    for (const memalloc::PortClient& client : plan.clients) {
      if (client.port != memalloc::LogicalPort::C &&
          client.port != memalloc::LogicalPort::D) {
        continue;
      }
      int ti = model.thread_index(client.thread);
      if (ti < 0) continue;
      bool any_live = false;
      bool all_fully_dead = !client.deps.empty();
      for (const hic::Dependency* dep : client.deps) {
        int di = dep_index(model, dep);
        if (di < 0) {
          all_fully_dead = false;
          continue;
        }
        bool site_live =
            client.port == memalloc::LogicalPort::C
                ? live.consumes_in(di, ti)
                : live.produces(di) &&
                      model.deps()[static_cast<std::size_t>(di)]
                              .producer_thread == ti;
        if (site_live) any_live = true;
        if (!live.fully_dead(di)) all_fully_dead = false;
      }
      if (any_live) continue;

      DeadPort dp;
      dp.bram_id = plan.bram_id;
      dp.thread = client.thread;
      dp.port = client.port;
      dp.pseudo_port = client.pseudo_port;
      dp.prunable = all_fully_dead;
      dp.note = support::format(
          "%s pseudo-port %d of thread '%s' on bram%d never raises a "
          "request (no reachable %s site)%s",
          memalloc::to_string(client.port), client.pseudo_port,
          client.thread.c_str(), plan.bram_id,
          client.port == memalloc::LogicalPort::C ? "consume" : "produce",
          all_fully_dead ? "; its dependencies are fully dead, so the "
                           "sizing hint prunes it"
                         : "; kept — its dependencies still guard other "
                           "endpoints");
      if (client.port == memalloc::LogicalPort::C) {
        --rep.live_consumer_ports;
      } else {
        --rep.live_producer_ports;
      }
      rep.ff_bits_saved += 1;  // the port's eligibility FF
      rep.dead.push_back(std::move(dp));
    }
    if (!rep.dead.empty()) rep.ff_bits_saved += dead_entry_bits;
    if (!rep.dead.empty() || dead_entry_bits > 0) out.push_back(rep);
  }
  return out;
}

}  // namespace hicsync::bound
