#include "baseline/protocols.h"

#include <algorithm>
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

std::string idx(const char* base, int i) {
  return std::string(base) + std::to_string(i);
}

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
  std::vector<Client> clients;
  HandoffMetrics metrics;

  explicit GenericRun(const rtl::Module& m) : sim(m) { sim.reset(); }

  void run(int rounds, int consumers, std::uint64_t max_cycles,
           bool has_locks) {
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
        std::string s = std::to_string(c.id);
        sim.set_input("req" + s, 0);
        if (has_locks) {
          sim.set_input(idx("lock_req", c.id), 0);
          sim.set_input(idx("unlock_req", c.id), 0);
        }
        if (c.done()) continue;
        const Client::Op& op = c.op();
        switch (op.kind) {
          case Client::OpKind::Write:
            if (c.stage == Client::Stage::Drive) {
              sim.set_input("req" + s, 1);
              sim.set_input("we" + s, 1);
              sim.set_input("addr" + s, op.addr);
              sim.set_input("wdata" + s, op.data);
            }
            break;
          case Client::OpKind::Read:
          case Client::OpKind::Poll:
            if (c.stage == Client::Stage::Drive) {
              sim.set_input("req" + s, 1);
              sim.set_input("we" + s, 0);
              sim.set_input("addr" + s, op.addr);
            }
            break;
          case Client::OpKind::Increment:
            if (c.stage == Client::Stage::Drive) {
              sim.set_input("req" + s, 1);
              sim.set_input("we" + s, 0);
              sim.set_input("addr" + s, op.addr);
            } else if (c.stage == Client::Stage::WriteBack) {
              sim.set_input("req" + s, 1);
              sim.set_input("we" + s, 1);
              sim.set_input("addr" + s, op.addr);
              sim.set_input("wdata" + s, c.rmw_value + 1);
            }
            break;
          case Client::OpKind::Lock:
            sim.set_input(idx("lock_req", c.id), 1);
            sim.set_input(idx("lock_addr", c.id), op.addr);
            break;
          case Client::OpKind::Unlock:
            sim.set_input(idx("unlock_req", c.id), 1);
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
        std::string s = std::to_string(c.id);
        switch (op.kind) {
          case Client::OpKind::Write:
            if (sim.get("grant" + s) != 0) {
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
              if (sim.get("grant" + s) != 0) {
                ++metrics.bus_grants;
                c.stage = Client::Stage::AwaitValid;
              }
            } else if (sim.get("valid" + s) != 0) {
              std::uint64_t v = sim.get("bus_rdata");
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
              if (sim.get("grant" + s) != 0) {
                ++metrics.bus_grants;
                c.stage = Client::Stage::AwaitValid;
              }
            } else if (c.stage == Client::Stage::AwaitValid) {
              if (sim.get("valid" + s) != 0) {
                c.rmw_value = sim.get("bus_rdata");
                c.stage = Client::Stage::WriteBack;
              }
            } else {
              if (sim.get("grant" + s) != 0) {
                ++metrics.bus_grants;
                c.stage = Client::Stage::Drive;
                ++c.pc;
              }
            }
            break;
          case Client::OpKind::Lock:
            if (sim.get(idx("lock_grant", c.id)) != 0) ++c.pc;
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
    (void)consumers;
  }
};

}  // namespace

HandoffMetrics run_polling_handoff(const rtl::Module& bare, int consumers,
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
  run.run(rounds, consumers, max_cycles, /*has_locks=*/false);
  return run.metrics;
}

HandoffMetrics run_lock_handoff(const rtl::Module& lockmem, int consumers,
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
  run.run(rounds, consumers, max_cycles, /*has_locks=*/true);
  return run.metrics;
}

// ---------------------------------------------------------------------------
// Organization drivers (request/grant protocols of the two organizations).
// ---------------------------------------------------------------------------

namespace {

struct OrgRun {
  rtl::ModuleSim sim;
  HandoffMetrics metrics;

  explicit OrgRun(const rtl::Module& m) : sim(m) { sim.reset(); }
};

}  // namespace

HandoffMetrics run_arbitrated_handoff(const memorg::GeneratedController& ctrl,
                                      int rounds, std::uint64_t max_cycles) {
  OrgRun run(*ctrl.module);
  rtl::ModuleSim& sim = run.sim;
  const memorg::DepEntry& entry = ctrl.entries.front();
  const std::string d = std::to_string(entry.producer_port);
  const std::vector<int>& ports = entry.consumer_ports;
  const int consumers = static_cast<int>(ports.size());

  enum class PStage { Request, Done };
  enum class CStage { Request, AwaitValid, Done };
  int round = 0;
  PStage prod = PStage::Request;
  std::vector<CStage> cons(ports.size(), CStage::Request);
  std::uint64_t publish = 0;
  int consumed = 0;
  bool ok = true;
  std::uint64_t cycle = 0;

  while (round < rounds && cycle < max_cycles) {
    // Drive.
    sim.set_input("d_req" + d, 0);
    for (int port : ports) sim.set_input(idx("c_req", port), 0);
    if (prod == PStage::Request) {
      sim.set_input("d_req" + d, 1);
      sim.set_input("d_addr" + d, entry.base_address);
      sim.set_input("d_wdata" + d, round_value(round));
    }
    for (std::size_t i = 0; i < ports.size(); ++i) {
      if (cons[i] == CStage::Request) {
        sim.set_input(idx("c_req", ports[i]), 1);
        sim.set_input(idx("c_addr", ports[i]), entry.base_address);
      }
    }
    sim.settle();
    // Observe.
    if (prod == PStage::Request && sim.get("d_grant" + d) != 0) {
      ++run.metrics.bus_grants;
      publish = cycle;
      prod = PStage::Done;
    }
    for (std::size_t i = 0; i < ports.size(); ++i) {
      auto& st = cons[i];
      if (st == CStage::Request && sim.get(idx("c_grant", ports[i])) != 0) {
        ++run.metrics.bus_grants;
        st = CStage::AwaitValid;
      } else if (st == CStage::AwaitValid &&
                 sim.get(idx("c_valid", ports[i])) != 0) {
        if (sim.get("bus_rdata") != round_value(round)) ok = false;
        st = CStage::Done;
        ++consumed;
      }
    }
    sim.step();
    ++cycle;

    if (prod == PStage::Done && consumed == consumers) {
      run.metrics.round_latencies.push_back(cycle - 1 - publish);
      ++round;
      prod = PStage::Request;
      for (auto& st : cons) st = CStage::Request;
      consumed = 0;
    }
  }
  run.metrics.total_cycles = cycle;
  run.metrics.ok = ok && round == rounds;
  return run.metrics;
}

HandoffMetrics run_eventdriven_handoff(
    const memorg::GeneratedController& ctrl, int rounds,
    std::uint64_t max_cycles) {
  OrgRun run(*ctrl.module);
  rtl::ModuleSim& sim = run.sim;
  const memorg::DepEntry& entry = ctrl.entries.front();
  const std::string p = std::to_string(entry.producer_port);
  const std::vector<int>& ports = entry.consumer_ports;
  const int consumers = static_cast<int>(ports.size());

  // The first entry's slots (memorg::slot_order): slot 0 = its producer,
  // slots 1..consumers = its consumers in static order.
  enum class CStage { WaitSlot, AwaitValid, Done };
  int round = 0;
  bool produced = false;
  std::vector<CStage> cons(ports.size(), CStage::WaitSlot);
  std::uint64_t publish = 0;
  int consumed = 0;
  bool ok = true;
  std::uint64_t cycle = 0;

  while (round < rounds && cycle < max_cycles) {
    sim.set_input("p_req" + p, 0);
    for (int port : ports) sim.set_input(idx("c_req", port), 0);
    std::uint64_t slot = sim.get("slot");
    if (!produced && slot == 0) {
      sim.set_input("p_req" + p, 1);
      sim.set_input("p_addr" + p, entry.base_address);
      sim.set_input("p_wdata" + p, round_value(round));
    }
    for (std::size_t i = 0; i < ports.size(); ++i) {
      if (cons[i] == CStage::WaitSlot && slot == i + 1) {
        sim.set_input(idx("c_req", ports[i]), 1);
        sim.set_input(idx("c_addr", ports[i]), entry.base_address);
      }
    }
    sim.settle();
    if (!produced && sim.get("p_grant" + p) != 0) {
      ++run.metrics.bus_grants;
      publish = cycle;
      produced = true;
    }
    for (std::size_t i = 0; i < ports.size(); ++i) {
      auto& st = cons[i];
      if (st == CStage::WaitSlot && slot == i + 1 &&
          sim.get(idx("c_req", ports[i])) != 0) {
        ++run.metrics.bus_grants;
        st = CStage::AwaitValid;
      } else if (st == CStage::AwaitValid &&
                 sim.get(idx("c_valid", ports[i])) != 0) {
        if (sim.get("bus_rdata") != round_value(round)) ok = false;
        st = CStage::Done;
        ++consumed;
      }
    }
    sim.step();
    ++cycle;

    if (produced && consumed == consumers) {
      run.metrics.round_latencies.push_back(cycle - 1 - publish);
      ++round;
      produced = false;
      for (auto& st : cons) st = CStage::WaitSlot;
      consumed = 0;
    }
  }
  run.metrics.total_cycles = cycle;
  run.metrics.ok = ok && round == rounds;
  return run.metrics;
}

}  // namespace hicsync::baseline
