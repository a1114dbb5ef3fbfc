// Differential golden of the system simulator's thread interpreter: seeded
// random programs, simulated under both organizations, must reproduce
// tests/core/golden/sim_programs.txt byte for byte.
//
// Each program has one producer and two to four consumers over a
// dependency, and optionally a second dependency that forwards a
// consumer's result to a sink thread. Between them they reach every path
// of the interpreter: if/else and case branches (one with a memory operand
// in its condition), while loops with break, chained statements (half the
// seeds compile with operation chaining), indexed array stores and loads
// over port A, index expressions that call externs, union members, narrow
// bit widths, every unary and binary operator, and extern calls in values.
// Per program and organization the golden records the cycle count, every
// thread's passes and registers, every dependency round, the stall report
// at two early cycles and a digest of the full trace-event stream.
//
// The test also writes its lines to sim_program_golden_out/ in the build
// tree. To re-record after an intended change of the simulated timing,
// copy that file over tests/core/golden/.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "sim/system.h"
#include "support/rng.h"
#include "support/strings.h"
#include "trace/bus.h"

namespace hicsync::core {
namespace {

/// Random expressions over a thread's registers. Every operator is total
/// in the simulator (division by zero is 0, shifts past 63 are 0), so any
/// expression evaluates. Every draw from the generator is its own
/// statement, so the programs do not depend on the compiler's evaluation
/// order of operands.
struct ExprGen {
  support::Rng& rng;
  std::vector<std::string> vars;

  std::string lit() { return std::to_string(rng.next_below(200)); }

  std::string leaf() {
    if (!vars.empty() && rng.next_bool(0.7)) {
      return vars[rng.next_below(vars.size())];
    }
    return lit();
  }

  std::string expr(int depth) {
    if (depth == 0 || rng.next_bool(0.2)) return leaf();
    // Arithmetic twice as likely as comparisons, so values stay wide.
    static const char* const kBinary[] = {
        "+",  "-",  "*",  "/",  "%",  "&",  "|",  "^",  "<<", ">>",
        "+",  "-",  "*",  "/",  "%",  "&",  "|",  "^",  "<<", ">>",
        "==", "!=", "<",  "<=", ">",  ">=", "&&", "||"};
    static const char* const kUnary[] = {"-", "!", "~"};
    const std::uint64_t shape = rng.next_below(6);
    if (shape == 0) {
      const std::string op = kUnary[rng.next_below(3)];
      return op + "(" + expr(depth - 1) + ")";
    }
    if (shape == 1) {
      const std::string callee = "f" + std::to_string(rng.next_below(3));
      const std::string arg = expr(depth - 1);
      return callee + "(" + arg + ", " + leaf() + ")";
    }
    const std::string lhs = expr(depth - 1);
    const std::string op = kBinary[rng.next_below(std::size(kBinary))];
    return "(" + lhs + " " + op + " " + expr(depth - 1) + ")";
  }
};

struct GeneratedProgram {
  std::string source;
  bool chain = false;
};

/// `text` with every `@` replaced by the next of `parts`, in order.
std::string fill(const std::string& text,
                 const std::vector<std::string>& parts) {
  std::string out;
  std::size_t next = 0;
  for (char ch : text) {
    if (ch == '@') {
      out += parts.at(next++);
    } else {
      out += ch;
    }
  }
  return out;
}

GeneratedProgram random_system_program(std::uint64_t seed) {
  support::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  GeneratedProgram out;
  out.chain = rng.next_bool(0.5);
  const int consumers = 2 + static_cast<int>(rng.next_below(3));
  const bool use_union = rng.next_bool(0.5);
  const bool forward = rng.next_bool(0.5);
  const bool mem_cond = rng.next_bool(0.5);
  const bool extern_index = rng.next_bool(0.5);
  std::string& s = out.source;
  // Each `fill` below draws its parts in list order (braced initializers
  // are evaluated left to right).

  if (use_union) s += "union word {\n  bits<12> lo;\n  int full;\n}\n";
  ExprGen g{rng, {"a", "b", "q"}};
  s += fill("thread p () {\n  int data, a, b, i, k;\n  bits<@> q;\n"
            "  int buf[8];\n",
            {std::to_string(3 + rng.next_below(20))});
  if (use_union) s += "  word u;\n";
  // Two independent register writes: operation chaining merges them.
  s += fill("  a = @;\n  b = @;\n  q = @;\n", {g.lit(), g.lit(), g.expr(2)});
  const std::string index =
      extern_index ? "f1(i, a) % 8" : fill("(i * @ + a) % 8", {g.lit()});
  s += fill("  for (i = 0; i < @; i = i + 1) buf[@] = @;\n",
            {std::to_string(2 + rng.next_below(4)), index, g.expr(2)});
  s += fill("  k = 0;\n  for (i = 0; i < @; i = i + 1) k = k + buf[i];\n",
            {std::to_string(1 + rng.next_below(4))});
  g.vars.push_back("k");
  if (mem_cond) {
    s += fill("  if (buf[@] > k) a = @; else b = @;\n",
              {std::to_string(rng.next_below(8)), g.expr(2), g.expr(2)});
  } else {
    s += fill("  if (@) { a = @; } else { b = @; }\n",
              {g.expr(2), g.expr(2), g.expr(1)});
  }
  s += fill("  case (k % 4) {\n    when 0: b = @;\n    when 2: a = @;\n"
            "    default: q = @;\n  }\n",
            {g.expr(2), g.expr(2), g.expr(2)});
  if (use_union) {
    s += fill("  u.full = @;\n  a = a + u.lo;\n", {g.expr(2)});
  }
  s += "  #consumer{m";
  for (int c = 0; c < consumers; ++c) {
    s += fill(", [c@,v@]", {std::to_string(c), std::to_string(c)});
  }
  s += fill("}\n  data = @ + a * 7 + b;\n}\n", {g.expr(3)});

  for (int c = 0; c < consumers; ++c) {
    const std::string n = std::to_string(c);
    ExprGen h{rng, {"v" + n, "w" + n, "j"}};
    s += fill("thread c@ () {\n  int v@, w@, j;\n  int t@[4];\n",
              {n, n, n, n});
    if (forward && c == 0) s += "  int z0;\n";
    const std::string consumed =
        rng.next_bool(0.5) ? "+ " + h.lit() : "^ " + h.expr(1);
    s += fill("  #producer{m, [p,data]}\n  v@ = data @;\n", {n, consumed});
    s += fill("  t@[v@ % 4] = @;\n", {n, n, h.expr(2)});
    s += fill("  w@ = t@[(v@ + 1) % 4] + g(v@, @);\n", {n, n, n, n, h.lit()});
    s += fill("  j = 0;\n  while (j < @) {\n    if (w@ & 1) break;\n"
              "    w@ = w@ >> 1;\n    j = j + 1;\n  }\n",
              {std::to_string(1 + rng.next_below(4)), n, n, n});
    if (forward && c == 0) {
      s += fill("  #consumer{m2, [sink,z]}\n  z0 = @;\n", {h.expr(2)});
    }
    s += "}\n";
  }
  if (forward) {
    s += "thread sink () {\n  int z, y;\n  #producer{m2, [c0,z0]}\n"
         "  z = z0 * 3;\n  y = h(z);\n}\n";
  }
  return out;
}

/// FNV-1a 64 over every field of every trace event, in emission order.
class DigestSink : public trace::TraceSink {
 public:
  void on_cycle(std::uint64_t cycle) override { mix(cycle); }
  void on_event(const trace::Event& e) override {
    ++events_;
    mix(e.cycle);
    mix(static_cast<std::uint64_t>(e.kind));
    mix(static_cast<std::uint64_t>(e.port));
    mix(static_cast<std::uint64_t>(e.cause));
    mix(static_cast<std::uint64_t>(e.controller));
    mix(static_cast<std::uint64_t>(e.pseudo_port));
    mix(static_cast<std::uint64_t>(e.value));
    for (char ch : e.thread) mix(static_cast<unsigned char>(ch));
    mix(0xFF);
    for (char ch : e.dep) mix(static_cast<unsigned char>(ch));
    mix(0xFF);
  }
  [[nodiscard]] std::uint64_t digest() const { return hash_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
  std::uint64_t events_ = 0;
};

/// f0 answers with its call count, so the golden also pins how often and
/// in which order the interpreter calls externs; f1, f2, g and h use the
/// deterministic fallback.
void register_counting_extern(sim::SystemSim& sim) {
  sim.externs().register_fn(
      "f0", [calls = std::uint64_t{0}](
                const std::vector<std::uint64_t>& args) mutable {
        return ++calls * 1000 + args.at(0);
      });
}

constexpr int kPasses = 2;
constexpr std::uint64_t kMaxCycles = 20000;

/// The golden lines of one program under one organization.
std::string run_program(std::uint64_t seed, sim::OrgKind org) {
  const GeneratedProgram gp = random_system_program(seed);
  CompileOptions options;
  options.organization = org;
  options.schedule.chain_states = gp.chain;
  auto result = Compiler(options).compile(gp.source);
  EXPECT_TRUE(result->ok()) << result->diags().str() << gp.source;
  if (!result->ok()) return "";

  std::string lines = support::format("seed %llu %s chain=%d\n",
                                      static_cast<unsigned long long>(seed),
                                      sim::to_string(org), gp.chain ? 1 : 0);
  auto sim = result->make_simulator();
  register_counting_extern(*sim);
  for (const std::uint64_t probe : {2 + seed % 9, 25 + seed % 40}) {
    while (sim->cycle() < probe) sim->step();
    lines += sim->stall_report();
  }
  EXPECT_TRUE(sim->run_until_passes(kPasses, kMaxCycles))
      << "seed " << seed << "\n" << sim->stall_report() << gp.source;
  lines += support::format("  cycles %llu\n",
                           static_cast<unsigned long long>(sim->cycle()));
  for (const hic::ThreadDecl& t : result->program().threads) {
    lines += "  " + t.name + " passes=" + std::to_string(sim->passes(t.name));
    for (const hic::VarDecl& d : t.decls) {
      if (d.symbol == nullptr || d.symbol->is_array() ||
          d.symbol->is_shared()) {
        continue;
      }
      lines += " " + d.name + "=" +
               std::to_string(sim->register_value(t.name, d.name));
    }
    lines += "\n";
  }
  for (const sim::DepRound& r : sim->rounds()) {
    lines += "  round " + r.dep_id + " produce@" +
             std::to_string(r.produce_grant_cycle);
    for (const auto& [thread, cycle] : r.consume_cycles) {
      lines += " " + thread + "@" + std::to_string(cycle);
    }
    lines += "\n";
  }

  // The same run traced: identical cycles, and the event stream digested.
  auto traced = result->make_simulator();
  register_counting_extern(*traced);
  trace::TraceBus bus;
  DigestSink sink;
  bus.attach(&sink);
  traced->set_trace(&bus);
  EXPECT_TRUE(traced->run_until_passes(kPasses, kMaxCycles));
  EXPECT_EQ(traced->cycle(), sim->cycle()) << "seed " << seed;
  lines += support::format("  trace events=%llu digest=%016llx\n",
                           static_cast<unsigned long long>(sink.events()),
                           static_cast<unsigned long long>(sink.digest()));
  return lines;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(SimProgramGolden, RandomProgramsBothOrgs) {
  std::string actual;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    for (sim::OrgKind org :
         {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
      actual += run_program(seed, org);
    }
  }
  const std::filesystem::path out_dir(HICSYNC_SIM_GOLDEN_OUT_DIR);
  std::filesystem::create_directories(out_dir);
  std::ofstream(out_dir / "sim_programs.txt") << actual;

  const std::filesystem::path golden_path =
      std::filesystem::path(HICSYNC_SIM_GOLDEN_DIR) / "sim_programs.txt";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "no golden " << golden_path;
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;
  const std::vector<std::string> want = split_lines(golden.str());
  const std::vector<std::string> got = split_lines(actual);
  std::size_t differing = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string w = i < want.size() ? want[i] : "<missing>";
    const std::string g = i < got.size() ? got[i] : "<missing>";
    if (w != g && differing++ == 0) first = i;
  }
  ADD_FAILURE() << differing << " of " << want.size()
                << " lines differ; first at line " << first + 1
                << "\n  golden: "
                << (first < want.size() ? want[first] : "<missing>")
                << "\n  actual: "
                << (first < got.size() ? got[first] : "<missing>");
}

/// The generator reaches what the golden claims to cover.
TEST(SimProgramGolden, GeneratorCoversInterpreterPaths) {
  bool chained = false, unions = false, forwards = false, mem_cond = false,
       extern_index = false;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const GeneratedProgram gp = random_system_program(seed);
    chained |= gp.chain;
    unions |= gp.source.find("u.full") != std::string::npos;
    forwards |= gp.source.find("#consumer{m2") != std::string::npos;
    mem_cond |= gp.source.find("if (buf[") != std::string::npos;
    extern_index |= gp.source.find("buf[f1(") != std::string::npos;
  }
  EXPECT_TRUE(chained && unions && forwards && mem_cond && extern_index);
}

}  // namespace
}  // namespace hicsync::core
