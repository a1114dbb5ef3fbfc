// Deterministic artifact-mutation fuzz: every shipped example under both
// organizations is emitted, then each mutant changes one to three leaves
// or array entries inside the payload's `memory_map`, `port_plans` or
// `controllers` (source, schema, options and semantic digest stay intact)
// and is re-framed with a correct digest. A load must either refuse the
// mutant with a stable rt-* code or serve a program whose one-pass run
// matches the direct compile's registers and cycles — never crash, hang
// or answer differently.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <ostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "forge.h"
#include "rt/store.h"
#include "rt/workload.h"
#include "support/rng.h"

#ifndef HICSYNC_EXAMPLES_DIR
#error "HICSYNC_EXAMPLES_DIR must point at the examples/ directory"
#endif

namespace hicsync::rt {
namespace {

using support::JsonValue;

constexpr int kMutantsPerArtifact = 165;  // x 8 artifacts = 1320
constexpr std::uint64_t kMaxCycles = 200000;

std::string read_example(const std::string& name) {
  std::ifstream in(std::string(HICSYNC_EXAMPLES_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot open example " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// What a mutation can touch: a scalar leaf, or an array whose entries it
/// can drop or duplicate.
struct Target {
  JsonValue* value;
  bool is_array;
};

void collect(JsonValue& v, std::vector<Target>* out,
             std::vector<std::string>* strings) {
  switch (v.kind) {
    case JsonValue::Kind::Array:
      out->push_back({&v, true});
      for (JsonValue& e : v.elements) collect(e, out, strings);
      break;
    case JsonValue::Kind::Object:
      for (auto& [name, member] : v.members) collect(member, out, strings);
      break;
    case JsonValue::Kind::String:
      if (strings != nullptr) strings->push_back(v.string_value);
      out->push_back({&v, false});
      break;
    default:
      out->push_back({&v, false});
      break;
  }
}

/// Every mutation target inside the three decision-bearing sections.
std::vector<Target> targets(JsonValue& payload,
                            std::vector<std::string>* strings = nullptr) {
  std::vector<Target> out;
  for (auto& [name, member] : payload.members) {
    if (name == "memory_map" || name == "port_plans" ||
        name == "controllers") {
      collect(member, &out, strings);
    }
  }
  return out;
}

// Integers the probe found dangerous, plus off-by-ones and non-integers.
const double kNumbers[] = {-1,  0,    1,    2,          3,          63,
                           64,  512,  600,  2147483647, 2147483648, 4294967296,
                           0.5, 1e300, 9223372036854775808.0};

void mutate(support::Rng& rng, JsonValue& payload,
            const std::vector<std::string>& strings) {
  std::vector<Target> all = targets(payload);
  Target t = all[rng.next_below(all.size())];
  JsonValue& v = *t.value;
  if (t.is_array) {
    if (v.elements.empty()) return;
    const std::size_t i = rng.next_below(v.elements.size());
    if (rng.next_bool(0.5)) {
      v.elements.erase(v.elements.begin() + static_cast<long>(i));
    } else {
      v.elements.insert(v.elements.begin() + static_cast<long>(i),
                        JsonValue(v.elements[i]));
    }
    return;
  }
  if (rng.next_bool(0.05)) {  // wrong kind altogether
    v = JsonValue{};
    return;
  }
  if (v.is_number()) {
    const double n = v.number_value;
    const double pick = kNumbers[rng.next_below(std::size(kNumbers))];
    v.number_value = rng.next_bool(0.3) ? n + (rng.next_bool(0.5) ? 1 : -1)
                                        : pick;
  } else if (v.is_string()) {
    v.string_value = rng.next_bool(0.1)
                         ? std::string("no_such_name")
                         : strings[rng.next_below(strings.size())];
  } else if (v.is_bool()) {
    v.bool_value = !v.bool_value;
  }
}

struct Case {
  const char* example;
  sim::OrgKind kind;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.example << " " << sim::to_string(c.kind);
}

class ArtifactFuzz : public ::testing::TestWithParam<Case> {};

TEST_P(ArtifactFuzz, MutantsEndInACodeOrACorrectRun) {
  const Case c = GetParam();
  const std::string source = read_example(c.example);
  core::CompileOptions options;
  options.organization = c.kind;
  options.source_name = c.example;
  auto compiled = core::Compiler(options).compile(source);
  ASSERT_TRUE(compiled->ok()) << compiled->diags().str();
  const std::string bytes = emit_artifact(*compiled, source);
  const JsonValue original = forge::payload_of(bytes);
  Artifact emitted;
  ArtifactError parse_error;
  ASSERT_TRUE(parse_artifact(bytes, &emitted, &parse_error))
      << parse_error.str();

  const std::uint64_t seed = fold_seed(kWorkloadSeedInit, nullptr, 0);
  auto direct_sim = compiled->make_simulator();
  const WorkloadResult direct =
      run_workload(*direct_sim, compiled->program(), compiled->sema(), 1,
                   kMaxCycles, seed);
  ASSERT_TRUE(direct.converged);

  JsonValue names = original;
  std::vector<std::string> strings;
  (void)targets(names, &strings);
  ASSERT_FALSE(strings.empty());

  support::Rng rng(support::fnv1a64(std::string(c.example) +
                                    sim::to_string(c.kind)));
  std::map<std::string, int> outcomes;
  for (int m = 0; m < kMutantsPerArtifact; ++m) {
    JsonValue payload = original;
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits; ++e) mutate(rng, payload, strings);
    ProgramStore store;
    ArtifactError error;
    auto loaded = store.load_bytes(forge::frame(payload), &error);
    if (loaded == nullptr) {
      EXPECT_TRUE(error.code == "rt-corrupt" ||
                  error.code == "rt-plan-mismatch")
          << "mutant " << m << ": " << error.str();
      ++outcomes[error.code];
      continue;
    }
    // A served artifact describes exactly the design that runs.
    EXPECT_EQ(loaded->artifact().decisions, emitted.decisions)
        << "mutant " << m;
    auto sim = loaded->make_simulator();
    const WorkloadResult run = run_workload(
        *sim, loaded->program(), loaded->sema(), 1, kMaxCycles, seed);
    EXPECT_TRUE(run.converged) << "mutant " << m;
    EXPECT_EQ(run.registers, direct.registers) << "mutant " << m;
    EXPECT_EQ(run.cycles, direct.cycles) << "mutant " << m;
    ++outcomes["loaded"];
  }
  // Not vacuous: the mutants reach both the parser's and the load's
  // checks, and some (informational rows, same-value edits) still load.
  EXPECT_GT(outcomes["rt-corrupt"], 0);
  EXPECT_GT(outcomes["rt-plan-mismatch"], 0);
  EXPECT_GT(outcomes["loaded"], 0);
}

INSTANTIATE_TEST_SUITE_P(
    Examples, ArtifactFuzz,
    ::testing::Values(Case{"fig1.hic", sim::OrgKind::Arbitrated},
                      Case{"fig1.hic", sim::OrgKind::EventDriven},
                      Case{"pipeline.hic", sim::OrgKind::Arbitrated},
                      Case{"pipeline.hic", sim::OrgKind::EventDriven},
                      Case{"stress8.hic", sim::OrgKind::Arbitrated},
                      Case{"stress8.hic", sim::OrgKind::EventDriven},
                      Case{"stress_shared.hic", sim::OrgKind::Arbitrated},
                      Case{"stress_shared.hic", sim::OrgKind::EventDriven}),
    [](const auto& info) {
      std::string name = info.param.example;
      return std::string(info.param.kind == sim::OrgKind::Arbitrated
                             ? "Arbitrated_"
                             : "EventDriven_") +
             name.substr(0, name.find('.'));
    });

// The check compares decoded rows, not bytes: the same payload re-encoded
// with different whitespace still loads.
TEST(ArtifactFormat, ReencodedPayloadStillLoads) {
  const std::string source = read_example("fig1.hic");
  core::CompileOptions options;
  options.source_name = "fig1.hic";
  auto compiled = core::Compiler(options).compile(source);
  ASSERT_TRUE(compiled->ok());
  const std::string bytes = emit_artifact(*compiled, source);
  const std::string pretty = forge::frame(forge::payload_of(bytes), 2);
  ASSERT_NE(pretty, bytes);
  EXPECT_EQ(forge::frame(forge::payload_of(bytes)), bytes);
  ProgramStore store;
  ArtifactError error;
  EXPECT_NE(store.load_bytes(pretty, &error), nullptr) << error.str();
}

}  // namespace
}  // namespace hicsync::rt
