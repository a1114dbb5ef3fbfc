// Deterministic mutation lock for the JSON readers besides the hicbin
// loader (fuzz_test.cpp covers that one): BENCH reports read by hic-perf,
// and request lines read by hic-rtd's protocol engine.
// Every mutant makes one to three byte edits, or replaces one value, in a
// committed input. The reader must answer it with an error or a valid
// result, and never crash.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "forge.h"
#include "netapp/scenarios.h"
#include "perf/history.h"
#include "rt/service.h"
#include "rt/wire.h"
#include "support/rng.h"

#ifndef HICSYNC_PERF_FIXTURES_DIR
#error "HICSYNC_PERF_FIXTURES_DIR must point at tests/perf/fixtures"
#endif

namespace hicsync::rt {
namespace {

using support::JsonValue;

constexpr int kMutantsPerInput = 2000;

// Splices: JSON punctuation, numbers past every integer cast, escapes.
const char* const kFragments[] = {
    "{", "}", "[", "]", "\"", ":", ",", "-", "0", "1e999", "null", "\\u00",
    "\\", "1e300", "18446744073709551616", "{\"op\":"};
const double kNumbers[] = {-1,     0.5,          1e300,
                           -1e300, 2147483648.0, 18446744073709551616.0};

void collect(JsonValue& v, std::vector<JsonValue*>* values,
             std::vector<std::string>* strings) {
  values->push_back(&v);
  if (v.is_string()) strings->push_back(v.string_value);
  for (JsonValue& e : v.elements) collect(e, values, strings);
  for (auto& [name, member] : v.members) {
    strings->push_back(name);
    collect(member, values, strings);
  }
}

/// Even `i`: one to three byte edits of `text` (overwrite, erase, splice,
/// truncate). Odd `i`: one value replaced by null, a bool, an out-of-range
/// number, another string of the document, or arrays nested so deep that
/// the document ends up just within or just past kJsonMaxDepth.
std::string mutant(support::Rng& rng, int i, std::string text,
                   std::vector<std::string> strings) {
  if (i % 2 == 0) {
    for (int e = 1 + static_cast<int>(rng.next_below(3)); e > 0; --e) {
      const std::size_t at = rng.next_below(text.size() + 1);
      switch (rng.next_below(4)) {
        case 0:
          if (at < text.size()) text[at] = static_cast<char>(rng.next_u64());
          break;
        case 1:
          text.erase(at, 1 + rng.next_below(8));
          break;
        case 2:
          text.insert(at, kFragments[rng.next_below(std::size(kFragments))]);
          break;
        default:
          text.resize(at);
      }
    }
    return text;
  }
  JsonValue doc;
  EXPECT_TRUE(support::parse_json(text, &doc)) << text;
  std::vector<JsonValue*> values;
  collect(doc, &values, &strings);
  JsonValue& v = *values[rng.next_below(values.size())];
  v = JsonValue{};
  switch (rng.next_below(5)) {
    case 0:
      break;  // null
    case 1:
      v.kind = JsonValue::Kind::Bool;
      break;
    case 2:
      v.kind = JsonValue::Kind::Number;
      v.number_value = kNumbers[rng.next_below(std::size(kNumbers))];
      break;
    case 3:
      v.kind = JsonValue::Kind::String;
      v.string_value = strings[rng.next_below(strings.size())];
      break;
    default:
      for (int d = support::kJsonMaxDepth - 2 +
                   static_cast<int>(rng.next_below(3));
           d > 0; --d) {
        JsonValue inner = std::move(v);
        v = JsonValue{};
        v.kind = JsonValue::Kind::Array;
        if (!inner.is_null()) v.elements.push_back(std::move(inner));
      }
  }
  support::JsonWriter w(0);
  forge::write(w, doc);
  return w.str();
}

/// Feeds kMutantsPerInput mutants of each input to `check`.
template <class Check>
void for_each_mutant(const std::vector<std::string>& inputs,
                     const std::vector<std::string>& strings, Check check) {
  support::Rng rng(1);
  for (const std::string& input : inputs) {
    for (int i = 0; i < kMutantsPerInput; ++i) {
      const std::string m = mutant(rng, i, input, strings);
      SCOPED_TRACE("mutant " + std::to_string(i) + ": " + m.substr(0, 300));
      check(m);
    }
  }
}

TEST(ReaderMutation, BenchReportsParseOrFail) {
  std::vector<std::string> inputs;
  for (const char* file :
       {"bench_constraint_fail/BENCH_table1_arbitrated_area.json",
        "bench_duplicate/BENCH_table1_rerun.json"}) {
    std::ifstream in(std::string(HICSYNC_PERF_FIXTURES_DIR) + "/" + file);
    ASSERT_TRUE(in.good()) << file;
    inputs.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  for_each_mutant(inputs, {}, [](const std::string& m) {
    perf::BenchRun run;
    std::string error;
    EXPECT_TRUE(perf::parse_bench_json(m, &run, &error) ? !run.bench.empty()
                                                        : !error.empty());
  });
  // A number past double's range never becomes a metric: -inf would pass
  // every at-most constraint.
  perf::BenchRun run;
  std::string error;
  EXPECT_FALSE(perf::parse_bench_json(
      R"({"bench": "rt", "rt.telemetry.overhead_pct": -1e999,)"
      R"( "rt.telemetry.limit_pct": 5})",
      &run, &error));
  EXPECT_NE(error.find("number out of range"), std::string::npos) << error;
}

TEST(ReaderMutation, WireRequestsGetAnAnswer) {
  const std::string source = netapp::figure1_source();
  auto compiled = core::Compiler().compile(source);
  Artifact artifact;
  ArtifactError error;
  ASSERT_TRUE(
      parse_artifact(emit_artifact(*compiled, source), &artifact, &error))
      << error.str();
  ServiceOptions options;
  options.max_cycles = 2000;  // a mutated pass count stays cheap
  Service service(load_program(artifact, &error), options);
  const std::string s = std::to_string(service.open_session());
  // Every op with each of its fields; mutants can swap in any op name.
  const std::vector<std::string> requests = {
      R"({"op":"ping"})", R"({"op":"describe"})", R"({"op":"stats"})",
      R"({"op":"telemetry"})", R"({"op":"open","tag":"t"})",
      R"({"op":"produce","session":)" + s + R"(,"words":["7",9],"tag":"t"})",
      R"({"op":"run","session":)" + s + R"(,"passes":2})",
      R"({"op":"consume","session":)" + s + R"(,"names":["t2.v"]})",
      R"({"op":"close","session":)" + s + "}"};
  for_each_mutant(requests,
                  {"ping", "describe", "stats", "telemetry", "open", "close",
                   "produce", "run", "consume"},
                  [&](const std::string& m) {
                    const std::string r = handle_request_line(service, m);
                    JsonValue v;
                    ASSERT_TRUE(support::parse_json(r, &v)) << r;
                    const JsonValue* ok = v.find("ok");
                    const JsonValue* e = v.find("error");
                    ASSERT_TRUE(ok != nullptr && ok->is_bool()) << r;
                    EXPECT_TRUE(ok->bool_value ||
                                (e != nullptr &&
                                 e->string_value.rfind("rt-", 0) == 0))
                        << r;
                  });
}

}  // namespace
}  // namespace hicsync::rt
