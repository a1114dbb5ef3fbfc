// hicbin artifact round-trip suite: every shipped example, under both
// memory organizations, must survive emit → load → run with results
// bit-identical to running the direct compilation — and every way an
// artifact can be damaged (bad magic, version skew, truncation, payload
// corruption, stale source, digest mismatch, recorded decisions the load
// does not rebuild) must be rejected with its stable rt-* code, never
// loaded.

#include "rt/artifact.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "forge.h"
#include "rt/store.h"
#include "rt/workload.h"
#include "rtl/verilog.h"

#ifndef HICSYNC_EXAMPLES_DIR
#error "HICSYNC_EXAMPLES_DIR must point at the examples/ directory"
#endif

namespace hicsync::rt {
namespace {

std::string read_example(const std::string& name) {
  std::ifstream in(std::string(HICSYNC_EXAMPLES_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot open example " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::unique_ptr<core::CompileResult> compile_example(
    const std::string& source, sim::OrgKind kind, const std::string& name,
    core::CompileOptions options = {}) {
  options.organization = kind;
  options.source_name = name;
  auto result = core::Compiler(options).compile(source);
  EXPECT_TRUE(result->ok()) << result->diags().str();
  return result;
}

struct Case {
  const char* example;
  int passes;
};

// Every shipped example; pass targets small enough to converge in the
// default cycle budget under both organizations.
const Case kCases[] = {
    {"fig1.hic", 2},
    {"pipeline.hic", 2},
    {"stress8.hic", 1},
    {"stress_shared.hic", 1},
};

class RoundTripBothOrgs
    : public ::testing::TestWithParam<std::tuple<sim::OrgKind, int>> {};

/// Emits `c` compiled under `options`, loads it back, and runs the same
/// seeded workloads on a direct-compile simulator and on an
/// artifact-loaded one: they must agree on everything a client can
/// observe.
void expect_loaded_matches_direct(const Case& c, const std::string& source,
                                  sim::OrgKind kind,
                                  const core::CompileOptions& options) {
  auto compiled = compile_example(source, kind, c.example, options);

  const std::string bytes = emit_artifact(*compiled, source);
  ArtifactError error;
  auto loaded = load_program([&] {
    Artifact a;
    EXPECT_TRUE(parse_artifact(bytes, &a, &error)) << error.str();
    return a;
  }(), &error);
  ASSERT_NE(loaded, nullptr) << error.str();
  EXPECT_EQ(loaded->name(), c.example);
  EXPECT_EQ(loaded->organization(), kind);

  // The load built what the compiler built: the same FSM shapes and the
  // same controller netlists.
  ASSERT_EQ(loaded->fsms().size(), compiled->fsms().size());
  for (std::size_t i = 0; i < loaded->fsms().size(); ++i) {
    EXPECT_EQ(loaded->fsms()[i].str(), compiled->fsms()[i].str());
  }
  ASSERT_EQ(loaded->controllers().size(), compiled->controllers().size());
  for (std::size_t i = 0; i < loaded->controllers().size(); ++i) {
    EXPECT_EQ(rtl::emit_module(*loaded->controllers()[i].module),
              rtl::emit_module(*compiled->controllers()[i].module));
  }

  for (std::uint64_t salt : {0ull, 7ull}) {
    std::uint64_t words[] = {salt, salt * 3 + 1};
    std::uint64_t seed = fold_seed(kWorkloadSeedInit, words, 2);

    auto direct_sim = compiled->make_simulator();
    WorkloadResult direct =
        run_workload(*direct_sim, compiled->program(), compiled->sema(),
                     c.passes, 200000, seed);
    ASSERT_TRUE(direct.converged) << c.example;

    auto loaded_sim = loaded->make_simulator();
    WorkloadResult from_artifact =
        run_workload(*loaded_sim, loaded->program(), loaded->sema(),
                     c.passes, 200000, seed);
    ASSERT_TRUE(from_artifact.converged) << c.example;

    EXPECT_EQ(direct.registers, from_artifact.registers) << c.example;
    EXPECT_EQ(direct.cycles, from_artifact.cycles) << c.example;
    EXPECT_EQ(direct.rounds, from_artifact.rounds) << c.example;
  }
}

TEST_P(RoundTripBothOrgs, LoadedArtifactMatchesDirectCompile) {
  const auto [kind, index] = GetParam();
  const Case& c = kCases[index];
  expect_loaded_matches_direct(c, read_example(c.example), kind, {});
}

// The loader builds the FSMs and controllers under the artifact's recorded
// knobs: a serial-scan, chained compile must load as one, cycle for cycle.
core::CompileOptions scan_chained() {
  core::CompileOptions options;
  options.use_cam = false;
  options.schedule.chain_states = true;
  return options;
}

TEST_P(RoundTripBothOrgs, ScanChainedArtifactMatchesDirectCompile) {
  const auto [kind, index] = GetParam();
  const Case& c = kCases[index];
  expect_loaded_matches_direct(c, read_example(c.example), kind,
                               scan_chained());
}

// No shipped example has states chaining can merge; this one does (t1's
// first two assignments), so a loader that dropped the recorded `chain`
// would build different FSMs.
TEST(ArtifactFormat, ChainedArtifactLoadsChainedFsms) {
  const std::string source = R"(
thread t1 () {
  int x1, x2, a, b;
  a = 3;
  b = 4;
  #consumer{mt1, [t2,y1]}
  x1 = f(a + b + x2);
}
thread t2 () {
  int y1, y2;
  #producer{mt1, [t1,x1]}
  y1 = g(x1, y2);
}
)";
  const Case c{"chained.hic", 2};
  auto plain = compile_example(source, sim::OrgKind::Arbitrated, c.example);
  auto chained = compile_example(source, sim::OrgKind::Arbitrated, c.example,
                                 scan_chained());
  ASSERT_LT(chained->fsm("t1")->states().size(),
            plain->fsm("t1")->states().size());
  for (sim::OrgKind kind :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    expect_loaded_matches_direct(c, source, kind, scan_chained());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Examples, RoundTripBothOrgs,
    ::testing::Combine(::testing::Values(sim::OrgKind::Arbitrated,
                                         sim::OrgKind::EventDriven),
                       ::testing::Range(0, 4)),
    [](const auto& info) {
      std::string org = std::get<0>(info.param) == sim::OrgKind::Arbitrated
                            ? "Arbitrated"
                            : "EventDriven";
      std::string name = kCases[std::get<1>(info.param)].example;
      return org + "_" + name.substr(0, name.find('.'));
    });

TEST(ArtifactFormat, EmitIsDeterministicAndFramed) {
  const std::string source = read_example("fig1.hic");
  auto compiled =
      compile_example(source, sim::OrgKind::Arbitrated, "fig1.hic");
  const std::string a = emit_artifact(*compiled, source);
  const std::string b = emit_artifact(*compiled, source);
  EXPECT_EQ(a, b);  // byte-for-byte reproducible

  // Header: "HICBIN <version> <payload-bytes> <digest>\n" and the declared
  // length/digest actually match the payload.
  ASSERT_EQ(a.rfind("HICBIN 1 ", 0), 0u);
  std::size_t nl = a.find('\n');
  ASSERT_NE(nl, std::string::npos);
  Artifact art;
  ArtifactError error;
  ASSERT_TRUE(parse_artifact(a, &art, &error)) << error.str();
  EXPECT_EQ(art.version, kArtifactVersion);
  EXPECT_EQ(art.source_name, "fig1.hic");
  EXPECT_EQ(art.source, source);
  EXPECT_EQ(art.organization, "arbitrated");
  EXPECT_FALSE(art.decisions.brams.empty());
  EXPECT_FALSE(art.decisions.registers.empty());
  EXPECT_FALSE(art.decisions.plans.empty());
  EXPECT_FALSE(art.controllers.empty());
  EXPECT_EQ(art.sema_digest, sema_digest(compiled->sema()));
}

class ArtifactRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    source_ = read_example("fig1.hic");
    auto compiled =
        compile_example(source_, sim::OrgKind::EventDriven, "fig1.hic");
    bytes_ = emit_artifact(*compiled, source_);
    auto arbitrated =
        compile_example(source_, sim::OrgKind::Arbitrated, "fig1.hic");
    arbitrated_bytes_ = emit_artifact(*arbitrated, source_);
  }

  /// Applies `edit` to the payload of both organizations' artifacts,
  /// re-frames each with a valid digest and expects the load to fail with
  /// `code`; returns the last message.
  template <typename Edit>
  std::string expect_forged(Edit edit, const std::string& code) {
    std::string message;
    for (const std::string* bytes : {&bytes_, &arbitrated_bytes_}) {
      support::JsonValue payload = forge::payload_of(*bytes);
      edit(payload);
      ProgramStore store;
      ArtifactError error;
      EXPECT_EQ(store.load_bytes(forge::frame(payload), &error), nullptr);
      EXPECT_EQ(error.code, code) << error.str();
      message = error.message;
    }
    return message;
  }

  std::string expect_rejected(const std::string& bytes) {
    Artifact art;
    ArtifactError error;
    EXPECT_FALSE(parse_artifact(bytes, &art, &error));
    EXPECT_FALSE(error.ok());
    return error.code;
  }

  std::string source_;
  std::string bytes_;
  std::string arbitrated_bytes_;
};

// Payload parts the forged cases edit.
support::JsonValue& bram0(support::JsonValue& payload) {
  return forge::at(forge::at(payload, "memory_map"), "brams").elements.at(0);
}
std::vector<support::JsonValue>& clients0(support::JsonValue& payload) {
  return forge::at(forge::at(payload, "port_plans").elements.at(0),
                   "clients")
      .elements;
}
support::JsonValue& client_on(support::JsonValue& payload,
                              const std::string& port) {
  for (support::JsonValue& c : clients0(payload)) {
    if (forge::at(c, "port").string_value == port) return c;
  }
  ADD_FAILURE() << "no client on port " << port;
  return payload;
}
void set_number(support::JsonValue& v, double n) {
  v.kind = support::JsonValue::Kind::Number;
  v.number_value = n;
}

TEST_F(ArtifactRejection, NotAnArtifact) {
  EXPECT_EQ(expect_rejected(""), "rt-bad-magic");
  EXPECT_EQ(expect_rejected("ELF\x7f garbage"), "rt-bad-magic");
  EXPECT_EQ(expect_rejected("HICBIN"), "rt-bad-magic");
  EXPECT_EQ(expect_rejected("HICBIN 1 2\n{}"), "rt-bad-magic");  // 3 fields
  EXPECT_EQ(expect_rejected("HICBIN x 2 0\n{}"), "rt-bad-magic");
}

TEST_F(ArtifactRejection, VersionSkew) {
  std::string skewed = bytes_;
  ASSERT_EQ(skewed.rfind("HICBIN 1 ", 0), 0u);
  skewed[7] = '9';  // HICBIN 9 ...
  EXPECT_EQ(expect_rejected(skewed), "rt-version-skew");
  EXPECT_EQ(expect_rejected("HICBIN 0 0 cbf29ce484222325\n"),
            "rt-version-skew");
}

TEST_F(ArtifactRejection, Truncated) {
  // Any cut inside the payload leaves it shorter than the header declares.
  EXPECT_EQ(expect_rejected(bytes_.substr(0, bytes_.size() - 1)),
            "rt-truncated");
  EXPECT_EQ(expect_rejected(bytes_.substr(0, bytes_.size() / 2)),
            "rt-truncated");
  std::size_t nl = bytes_.find('\n');
  EXPECT_EQ(expect_rejected(bytes_.substr(0, nl + 1)), "rt-truncated");
}

TEST_F(ArtifactRejection, CorruptPayload) {
  // Flip one payload byte: length still matches, digest does not.
  std::string corrupt = bytes_;
  corrupt[bytes_.find('\n') + 10] ^= 0x20;
  EXPECT_EQ(expect_rejected(corrupt), "rt-corrupt");

  // Trailing garbage after the declared payload.
  EXPECT_EQ(expect_rejected(bytes_ + "extra"), "rt-corrupt");

  // A valid frame around a payload nested past kJsonMaxDepth.
  std::string deep = bytes_.substr(bytes_.find('\n') + 1);
  deep.insert(1, "\"deep\":" + std::string(100000, '[') +
                     std::string(100000, ']') + ",");
  EXPECT_EQ(expect_rejected(forge::frame_bytes(deep)), "rt-corrupt");
}

TEST_F(ArtifactRejection, StaleSourceIsSourceError) {
  Artifact art;
  ArtifactError error;
  ASSERT_TRUE(parse_artifact(bytes_, &art, &error));
  art.source = "thread t () { int x; x = ; }";  // no longer parses
  auto loaded = load_program(art, &error);
  EXPECT_EQ(loaded, nullptr);
  EXPECT_EQ(error.code, "rt-source-error");
}

TEST_F(ArtifactRejection, EditedSourceIsSemaMismatch) {
  Artifact art;
  ArtifactError error;
  ASSERT_TRUE(parse_artifact(bytes_, &art, &error));
  // Valid program, but not the one the placements were computed for.
  art.source = "thread t () { int x; x = 1; }";
  auto loaded = load_program(art, &error);
  EXPECT_EQ(loaded, nullptr);
  EXPECT_EQ(error.code, "rt-sema-mismatch");
}

TEST_F(ArtifactRejection, DanglingPlacementIsPlanMismatch) {
  Artifact art;
  ArtifactError error;
  ASSERT_TRUE(parse_artifact(bytes_, &art, &error));
  ASSERT_FALSE(art.decisions.brams.empty());
  ASSERT_FALSE(art.decisions.brams[0].placements.empty());
  // Keep the digest honest (same source), but point a placement at a
  // variable the Sema does not know.
  art.decisions.brams[0].placements[0].var = "no_such_var";
  auto loaded = load_program(art, &error);
  EXPECT_EQ(loaded, nullptr);
  EXPECT_EQ(error.code, "rt-plan-mismatch");
  EXPECT_EQ(error.message,
            "memory_map.brams[0] differs from the rebuilt memory map");
}

// Each edit below crashed, hung or silently loaded a loader that trusted
// the recorded decisions; a load that rebuilds them refuses every one.
TEST_F(ArtifactRejection, PseudoPortOutOfRangeIsPlanMismatch) {
  EXPECT_EQ(expect_forged(
                [](support::JsonValue& p) {
                  set_number(forge::at(client_on(p, "C"), "pseudo_port"), 64);
                },
                "rt-plan-mismatch"),
            "port_plans[0] differs from the rebuilt port plans");
}

TEST_F(ArtifactRejection, PseudoPortPastIntIsCorrupt) {
  expect_forged(
      [](support::JsonValue& p) {
        set_number(forge::at(client_on(p, "C"), "pseudo_port"),
                   2147483648.0);
      },
      "rt-corrupt");
}

TEST_F(ArtifactRejection, RemovedProducerIsPlanMismatch) {
  expect_forged(
      [](support::JsonValue& p) {
        std::vector<support::JsonValue>& clients = clients0(p);
        for (std::size_t i = 0; i < clients.size(); ++i) {
          if (forge::at(clients[i], "port").string_value == "D") {
            clients.erase(clients.begin() + static_cast<long>(i));
            return;
          }
        }
        ADD_FAILURE() << "no producer client";
      },
      "rt-plan-mismatch");
}

TEST_F(ArtifactRejection, ProducerRelabelledAsConsumerIsPlanMismatch) {
  expect_forged(
      [](support::JsonValue& p) {
        forge::at(client_on(p, "D"), "port").string_value = "C";
      },
      "rt-plan-mismatch");
}

TEST_F(ArtifactRejection, ExtraControllerRowIsPlanMismatch) {
  EXPECT_EQ(expect_forged(
                [](support::JsonValue& p) {
                  std::vector<support::JsonValue>& rows =
                      forge::at(p, "controllers").elements;
                  rows.push_back(rows.at(0));
                },
                "rt-plan-mismatch"),
            "controllers[1] differs from the 1 rebuilt controller modules");
}

TEST_F(ArtifactRejection, RenamedControllerIsPlanMismatch) {
  EXPECT_EQ(expect_forged(
                [](support::JsonValue& p) {
                  forge::at(forge::at(p, "controllers").elements.at(0),
                            "module")
                      .string_value = "memorg_bram7";
                },
                "rt-plan-mismatch"),
            "controllers[0] differs from the 1 rebuilt controller modules");
}

TEST_F(ArtifactRejection, DuplicatedPlacementIsPlanMismatch) {
  expect_forged(
      [](support::JsonValue& p) {
        std::vector<support::JsonValue>& placements =
            forge::at(bram0(p), "placements").elements;
        placements.push_back(placements.at(0));
      },
      "rt-plan-mismatch");
}

TEST_F(ArtifactRejection, HugeWordsIsCorrupt) {
  expect_forged(
      [](support::JsonValue& p) {
        set_number(forge::at(forge::at(bram0(p), "placements").elements.at(0),
                             "words"),
                   9223372036854775808.0);
      },
      "rt-corrupt");
}

TEST_F(ArtifactRejection, NegativeDepthOrPrimitivesIsPlanMismatch) {
  for (const char* field : {"depth", "primitives"}) {
    EXPECT_EQ(expect_forged(
                  [&](support::JsonValue& p) {
                    set_number(forge::at(bram0(p), field), -1);
                  },
                  "rt-plan-mismatch"),
              "memory_map.brams[0] differs from the rebuilt memory map")
        << field;
  }
}

TEST_F(ArtifactRejection, BaseOutsideTheBramIsPlanMismatch) {
  expect_forged(
      [](support::JsonValue& p) {
        set_number(forge::at(forge::at(bram0(p), "placements").elements.at(0),
                             "base"),
                   600);
      },
      "rt-plan-mismatch");
}

// parse_artifact reads integer fields through a range check: a double
// outside int (or uint32) is never converted.
TEST_F(ArtifactRejection, FractionalIntegerIsCorrupt) {
  support::JsonValue payload = forge::payload_of(bytes_);
  set_number(forge::at(client_on(payload, "C"), "pseudo_port"), 0.5);
  Artifact art;
  ArtifactError error;
  EXPECT_FALSE(parse_artifact(forge::frame(payload), &art, &error));
  EXPECT_EQ(error.code, "rt-corrupt");
  EXPECT_EQ(error.message,
            "field 'pseudo_port' in port_client is not an integer in "
            "[-2147483648, 2147483647]");
}

TEST_F(ArtifactRejection, OutOfRangeIntegerIsCorrupt) {
  for (double n : {1e300, -1e300, 2147483648.0, 9223372036854775808.0}) {
    support::JsonValue payload = forge::payload_of(bytes_);
    set_number(forge::at(bram0(payload), "depth"), n);
    Artifact art;
    ArtifactError error;
    EXPECT_FALSE(parse_artifact(forge::frame(payload), &art, &error)) << n;
    EXPECT_EQ(error.code, "rt-corrupt") << n;
  }
  support::JsonValue payload = forge::payload_of(bytes_);
  set_number(forge::at(forge::at(payload, "controllers").elements.at(0),
                       "luts"),
             9223372036854775808.0);
  Artifact art;
  ArtifactError error;
  EXPECT_FALSE(parse_artifact(forge::frame(payload), &art, &error));
  EXPECT_EQ(error.code, "rt-corrupt");
}

TEST_F(ArtifactRejection, NegativeBaseOrWordsIsCorrupt) {
  for (const char* field : {"base", "words"}) {
    support::JsonValue payload = forge::payload_of(bytes_);
    set_number(forge::at(forge::at(bram0(payload), "placements").elements.at(0),
                         field),
               -1);
    Artifact art;
    ArtifactError error;
    EXPECT_FALSE(parse_artifact(forge::frame(payload), &art, &error))
        << field;
    EXPECT_EQ(error.code, "rt-corrupt") << field;
    EXPECT_EQ(error.message,
              std::string("field '") + field +
                  "' in placement is not an integer in [0, 4294967295]");
  }
}

TEST_F(ArtifactRejection, UnknownOrganizationIsCorrupt) {
  // An intact frame around a payload that names no organization.
  std::string payload = bytes_.substr(bytes_.find('\n') + 1);
  const std::size_t at = payload.find("\"event-driven\"");
  ASSERT_NE(at, std::string::npos);
  payload.replace(at, std::string("\"event-driven\"").size(), "\"bogus\"");
  Artifact art;
  ArtifactError error;
  EXPECT_FALSE(parse_artifact(forge::frame_bytes(payload), &art, &error));
  EXPECT_EQ(error.code, "rt-corrupt");
  EXPECT_EQ(error.message, "unknown organization 'bogus'");

  // An artifact built in memory is refused at load, not read as arbitrated.
  ASSERT_TRUE(parse_artifact(bytes_, &art, &error));
  art.organization = "bogus";
  EXPECT_EQ(load_program(art, &error), nullptr);
  EXPECT_EQ(error.code, "rt-corrupt");
  EXPECT_EQ(error.message, "unknown organization 'bogus'");
}

TEST_F(ArtifactRejection, ErrorStrCarriesCode) {
  ArtifactError error;
  Artifact art;
  EXPECT_FALSE(parse_artifact("junk", &art, &error));
  EXPECT_NE(error.str().find("rt-bad-magic"), std::string::npos);
  EXPECT_TRUE(ArtifactError{}.ok());
  EXPECT_EQ(ArtifactError{}.str(), "ok");
}

}  // namespace
}  // namespace hicsync::rt
