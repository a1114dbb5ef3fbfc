#include "baseline/protocols.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hicsync::baseline {

double HandoffMetrics::mean_latency() const {
  if (round_latencies.empty()) return 0.0;
  double sum = 0;
  for (auto v : round_latencies) sum += static_cast<double>(v);
  return sum / static_cast<double>(round_latencies.size());
}

std::uint64_t HandoffMetrics::max_latency() const {
  std::uint64_t v = 0;
  for (auto l : round_latencies) v = std::max(v, l);
  return v;
}

std::uint64_t HandoffMetrics::min_latency() const {
  if (round_latencies.empty()) return 0;
  std::uint64_t v = round_latencies[0];
  for (auto l : round_latencies) v = std::min(v, l);
  return v;
}

bool HandoffMetrics::latencies_identical() const {
  return round_latencies.empty() || min_latency() == max_latency();
}

namespace {

constexpr std::uint64_t kDataAddr = 4;
constexpr std::uint64_t kFlagAddr = 5;
constexpr std::uint64_t kAckAddr = 6;

/// Value published in round r (1-based generation).
std::uint64_t round_value(int r) { return 0x1000u + static_cast<std::uint64_t>(r); }

// ---------------------------------------------------------------------------
// Generic client scripting over a req/we/addr/wdata + grant/valid interface
// (bare and lockmem share it; the organizations use dedicated drivers).
// ---------------------------------------------------------------------------

struct Client {
  enum class OpKind { Write, Read, Poll, Increment, Lock, Unlock, Stop };
  struct Op {
    OpKind kind;
    std::uint64_t addr = 0;
    std::uint64_t data = 0;      // Write: value; Poll: expected value
    std::uint64_t* capture = nullptr;  // Read destination
    int round = -1;              // marks round completion points
  };
  int id = 0;
  std::vector<Op> ops;
  std::size_t pc = 0;
  enum class Stage { Drive, AwaitValid, WriteBack } stage = Stage::Drive;
  std::uint64_t rmw_value = 0;  // captured value for Increment write-back

  [[nodiscard]] bool done() const { return pc >= ops.size(); }
  [[nodiscard]] const Op& op() const { return ops[pc]; }
};

struct GenericRun {
  rtl::ModuleSim sim;
  const ClientModule& wrapper;
  std::vector<Client> clients;
  HandoffMetrics metrics;

  explicit GenericRun(const ClientModule& w) : sim(w.module), wrapper(w) {
    sim.reset();
  }

  void run(int rounds, std::uint64_t max_cycles) {
    std::vector<std::uint64_t> publish_cycle(
        static_cast<std::size_t>(rounds), 0);
    std::vector<int> consumed(static_cast<std::size_t>(rounds), 0);
    std::vector<std::uint64_t> complete_cycle(
        static_cast<std::size_t>(rounds), 0);

    std::uint64_t cycle = 0;
    bool all_ok = true;
    while (cycle < max_cycles) {
      bool all_done = true;
      for (const Client& c : clients) {
        if (!c.done()) all_done = false;
      }
      if (all_done) break;

      // Drive.
      for (Client& c : clients) {
        const ClientPort& p = port(c);
        sim.set_input(p.req, 0);
        if (p.lock_req >= 0) {
          sim.set_input(p.lock_req, 0);
          sim.set_input(p.unlock_req, 0);
        }
        if (c.done()) continue;
        const Client::Op& op = c.op();
        switch (op.kind) {
          case Client::OpKind::Write:
            if (c.stage == Client::Stage::Drive) {
              sim.set_input(p.req, 1);
              sim.set_input(p.we, 1);
              sim.set_input(p.addr, op.addr);
              sim.set_input(p.wdata, op.data);
            }
            break;
          case Client::OpKind::Read:
          case Client::OpKind::Poll:
            if (c.stage == Client::Stage::Drive) {
              sim.set_input(p.req, 1);
              sim.set_input(p.we, 0);
              sim.set_input(p.addr, op.addr);
            }
            break;
          case Client::OpKind::Increment:
            if (c.stage == Client::Stage::Drive) {
              sim.set_input(p.req, 1);
              sim.set_input(p.we, 0);
              sim.set_input(p.addr, op.addr);
            } else if (c.stage == Client::Stage::WriteBack) {
              sim.set_input(p.req, 1);
              sim.set_input(p.we, 1);
              sim.set_input(p.addr, op.addr);
              sim.set_input(p.wdata, c.rmw_value + 1);
            }
            break;
          case Client::OpKind::Lock:
            sim.set_input(p.lock_req, 1);
            sim.set_input(p.lock_addr, op.addr);
            break;
          case Client::OpKind::Unlock:
            sim.set_input(p.unlock_req, 1);
            break;
          case Client::OpKind::Stop:
            break;
        }
      }

      sim.settle();

      // Observe.
      for (Client& c : clients) {
        if (c.done()) continue;
        Client::Op& op = c.ops[c.pc];
        const ClientPort& p = port(c);
        switch (op.kind) {
          case Client::OpKind::Write:
            if (sim.get(p.grant) != 0) {
              ++metrics.bus_grants;
              if (op.round >= 0) {
                publish_cycle[static_cast<std::size_t>(op.round)] = cycle;
              }
              ++c.pc;
            }
            break;
          case Client::OpKind::Read:
          case Client::OpKind::Poll:
            if (c.stage == Client::Stage::Drive) {
              if (sim.get(p.grant) != 0) {
                ++metrics.bus_grants;
                c.stage = Client::Stage::AwaitValid;
              }
            } else if (sim.get(p.valid) != 0) {
              std::uint64_t v = sim.get(wrapper.bus_rdata);
              c.stage = Client::Stage::Drive;
              if (op.kind == Client::OpKind::Read) {
                if (op.capture != nullptr) *op.capture = v;
                if (op.round >= 0) {
                  auto r = static_cast<std::size_t>(op.round);
                  if (v != round_value(op.round)) all_ok = false;
                  if (++consumed[r] ==
                      static_cast<int>(clients.size()) - 1) {
                    complete_cycle[r] = cycle;
                  }
                }
                ++c.pc;
              } else {
                // Poll: retry until the expected generation shows up.
                if (v == op.data) ++c.pc;
              }
            }
            break;
          case Client::OpKind::Increment:
            if (c.stage == Client::Stage::Drive) {
              if (sim.get(p.grant) != 0) {
                ++metrics.bus_grants;
                c.stage = Client::Stage::AwaitValid;
              }
            } else if (c.stage == Client::Stage::AwaitValid) {
              if (sim.get(p.valid) != 0) {
                c.rmw_value = sim.get(wrapper.bus_rdata);
                c.stage = Client::Stage::WriteBack;
              }
            } else {
              if (sim.get(p.grant) != 0) {
                ++metrics.bus_grants;
                c.stage = Client::Stage::Drive;
                ++c.pc;
              }
            }
            break;
          case Client::OpKind::Lock:
            if (sim.get(p.lock_grant) != 0) ++c.pc;
            break;
          case Client::OpKind::Unlock:
            // The release pulse was driven this cycle and commits on this
            // edge.
            ++c.pc;
            break;
          case Client::OpKind::Stop:
            ++c.pc;
            break;
        }
      }

      sim.step();
      ++cycle;
    }

    metrics.total_cycles = cycle;
    bool finished = true;
    for (const Client& c : clients) {
      if (!c.done()) finished = false;
    }
    metrics.ok = finished && all_ok;
    for (std::size_t r = 0; r < publish_cycle.size(); ++r) {
      if (complete_cycle[r] >= publish_cycle[r] && complete_cycle[r] != 0) {
        metrics.round_latencies.push_back(complete_cycle[r] -
                                          publish_cycle[r]);
      }
    }
  }

  [[nodiscard]] const ClientPort& port(const Client& c) const {
    return wrapper.clients[static_cast<std::size_t>(c.id)];
  }
};

}  // namespace

HandoffMetrics run_polling_handoff(const ClientModule& bare, int consumers,
                                   int rounds, std::uint64_t max_cycles) {
  GenericRun run(bare);
  // Producer = client 0. Flow control without locks: each consumer owns a
  // private ack word (kAckAddr + i) it bumps after reading; the producer
  // polls every ack before starting the next round.
  Client producer;
  producer.id = 0;
  for (int r = 0; r < rounds; ++r) {
    producer.ops.push_back(
        {Client::OpKind::Write, kDataAddr, round_value(r), nullptr, -1});
    // Publishing the generation flag completes the produce.
    producer.ops.push_back({Client::OpKind::Write, kFlagAddr,
                            static_cast<std::uint64_t>(r + 1), nullptr, r});
    for (int i = 0; i < consumers; ++i) {
      producer.ops.push_back(
          {Client::OpKind::Poll, kAckAddr + static_cast<std::uint64_t>(i),
           static_cast<std::uint64_t>(r + 1), nullptr, -1});
    }
  }
  run.clients.push_back(std::move(producer));
  for (int i = 0; i < consumers; ++i) {
    Client c;
    c.id = i + 1;
    for (int r = 0; r < rounds; ++r) {
      c.ops.push_back({Client::OpKind::Poll, kFlagAddr,
                       static_cast<std::uint64_t>(r + 1), nullptr, -1});
      c.ops.push_back({Client::OpKind::Read, kDataAddr, 0, nullptr, r});
      c.ops.push_back({Client::OpKind::Write,
                       kAckAddr + static_cast<std::uint64_t>(i),
                       static_cast<std::uint64_t>(r + 1), nullptr, -1});
    }
    run.clients.push_back(std::move(c));
  }
  run.run(rounds, max_cycles);
  return run.metrics;
}

HandoffMetrics run_lock_handoff(const ClientModule& lockmem, int consumers,
                                int rounds, std::uint64_t max_cycles) {
  GenericRun run(lockmem);
  // The hand-written discipline the paper calls tedious and error-prone:
  // the producer cannot overwrite until every consumer acknowledged the
  // previous round, so an ack word is maintained with locked
  // read-modify-writes and the producer polls it between rounds.
  Client producer;
  producer.id = 0;
  for (int r = 0; r < rounds; ++r) {
    producer.ops.push_back({Client::OpKind::Lock, kDataAddr, 0, nullptr, -1});
    producer.ops.push_back(
        {Client::OpKind::Write, kDataAddr, round_value(r), nullptr, -1});
    producer.ops.push_back({Client::OpKind::Write, kFlagAddr,
                            static_cast<std::uint64_t>(r + 1), nullptr, r});
    producer.ops.push_back({Client::OpKind::Unlock, 0, 0, nullptr, -1});
    producer.ops.push_back(
        {Client::OpKind::Poll, kAckAddr,
         static_cast<std::uint64_t>((r + 1) * consumers), nullptr, -1});
  }
  run.clients.push_back(std::move(producer));
  for (int i = 0; i < consumers; ++i) {
    Client c;
    c.id = i + 1;
    for (int r = 0; r < rounds; ++r) {
      c.ops.push_back({Client::OpKind::Poll, kFlagAddr,
                       static_cast<std::uint64_t>(r + 1), nullptr, -1});
      c.ops.push_back({Client::OpKind::Lock, kDataAddr, 0, nullptr, -1});
      c.ops.push_back({Client::OpKind::Read, kDataAddr, 0, nullptr, r});
      c.ops.push_back({Client::OpKind::Unlock, 0, 0, nullptr, -1});
      c.ops.push_back({Client::OpKind::Lock, kAckAddr, 0, nullptr, -1});
      c.ops.push_back({Client::OpKind::Increment, kAckAddr, 0, nullptr, -1});
      c.ops.push_back({Client::OpKind::Unlock, 0, 0, nullptr, -1});
    }
    run.clients.push_back(std::move(c));
  }
  run.run(rounds, max_cycles);
  return run.metrics;
}

// ---------------------------------------------------------------------------
// Organization drivers (request/grant protocols of the two organizations).
// ---------------------------------------------------------------------------

namespace {

/// The hand-off on a compiled controller's first dependency-list entry:
/// each round its producer pseudo-port publishes at the entry's base
/// address and each of its consumer pseudo-ports reads the value once.
/// An arbitrated party requests until granted. An event-driven party
/// requests only in its slot of the schedule — the entry's producer has
/// slot 0 and its consumer k slot k + 1 (memorg::slot_order) — and the
/// slot fires on the request.
HandoffMetrics run_org_handoff(const memorg::GeneratedController& ctrl,
                               memorg::OrgKind org, int rounds,
                               std::uint64_t max_cycles) {
  if (ctrl.organization != org) {
    throw std::invalid_argument(
        std::string("hand-off driver for the ") + memorg::to_string(org) +
        " organization given a " + memorg::to_string(ctrl.organization) +
        " controller");
  }
  rtl::ModuleSim sim(*ctrl.module);
  sim.reset();
  const memorg::ControllerPorts& ports = ctrl.ports;
  const bool scheduled = org == memorg::OrgKind::EventDriven;
  const memorg::DepEntry& entry = ctrl.entries.front();
  const memorg::ProducerPort& producer =
      ports.producers[static_cast<std::size_t>(entry.producer_port)];
  std::vector<const memorg::ConsumerPort*> consumers;
  for (int port : entry.consumer_ports) {
    consumers.push_back(&ports.consumers[static_cast<std::size_t>(port)]);
  }

  enum class Stage { Request, AwaitValid, Done };
  HandoffMetrics metrics;
  metrics.consumer_latencies.assign(consumers.size(), 0);
  int round = 0;
  bool produced = false;
  std::vector<Stage> stage(consumers.size(), Stage::Request);
  std::uint64_t publish = 0;
  std::size_t consumed = 0;
  bool ok = true;
  std::uint64_t cycle = 0;

  while (round < rounds && cycle < max_cycles) {
    // Drive.
    const std::uint64_t slot = scheduled ? sim.get(ports.slot) : 0;
    auto turn = [&](std::size_t s) { return !scheduled || slot == s; };
    sim.set_input(producer.req, 0);
    for (const memorg::ConsumerPort* c : consumers) sim.set_input(c->req, 0);
    if (!produced && turn(0)) {
      sim.set_input(producer.req, 1);
      sim.set_input(producer.addr, entry.base_address);
      sim.set_input(producer.wdata, round_value(round));
    }
    for (std::size_t i = 0; i < consumers.size(); ++i) {
      if (stage[i] == Stage::Request && turn(i + 1)) {
        sim.set_input(consumers[i]->req, 1);
        sim.set_input(consumers[i]->addr, entry.base_address);
      }
    }
    sim.settle();
    // Observe.
    if (!produced && sim.get(producer.grant) != 0) {
      ++metrics.bus_grants;
      publish = cycle;
      produced = true;
    }
    for (std::size_t i = 0; i < consumers.size(); ++i) {
      const memorg::ConsumerPort& c = *consumers[i];
      const bool granted = scheduled ? turn(i + 1) && sim.get(c.req) != 0
                                     : sim.get(c.grant) != 0;
      if (stage[i] == Stage::Request && granted) {
        ++metrics.bus_grants;
        stage[i] = Stage::AwaitValid;
      } else if (stage[i] == Stage::AwaitValid && sim.get(c.valid) != 0) {
        if (sim.get(ports.bus_rdata) != round_value(round)) ok = false;
        metrics.consumer_latencies[i] =
            std::max(metrics.consumer_latencies[i], cycle - publish);
        stage[i] = Stage::Done;
        ++consumed;
      }
    }
    sim.step();
    ++cycle;

    if (produced && consumed == consumers.size()) {
      metrics.round_latencies.push_back(cycle - 1 - publish);
      ++round;
      produced = false;
      stage.assign(consumers.size(), Stage::Request);
      consumed = 0;
    }
  }
  metrics.total_cycles = cycle;
  metrics.ok = ok && round == rounds;
  return metrics;
}

}  // namespace

HandoffMetrics run_arbitrated_handoff(const memorg::GeneratedController& ctrl,
                                      int rounds, std::uint64_t max_cycles) {
  return run_org_handoff(ctrl, memorg::OrgKind::Arbitrated, rounds,
                         max_cycles);
}

HandoffMetrics run_eventdriven_handoff(
    const memorg::GeneratedController& ctrl, int rounds,
    std::uint64_t max_cycles) {
  return run_org_handoff(ctrl, memorg::OrgKind::EventDriven, rounds,
                         max_cycles);
}

}  // namespace hicsync::baseline
