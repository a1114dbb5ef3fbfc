#include "perf/history.h"

#include <algorithm>
#include <climits>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/json.h"

namespace hicsync::perf {

namespace fs = std::filesystem;
using support::JsonValue;
using support::JsonWriter;

const double* BenchRun::metric(std::string_view key) const {
  auto it = metrics.find(std::string(key));
  return it == metrics.end() ? nullptr : &it->second;
}

bool BenchRun::flag(std::string_view key) const {
  const double* v = metric(key);
  return v != nullptr && *v != 0.0;
}

namespace {

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

bool parse_flat(const JsonValue& doc, BenchRun* out, std::string* error) {
  for (const auto& [key, value] : doc.members) {
    if (key == "bench" && value.is_string()) {
      out->bench = value.string_value;
    } else if (value.is_number()) {
      out->metrics[key] = value.number_value;
    } else if (value.is_bool()) {
      out->metrics[key] = value.bool_value ? 1.0 : 0.0;
    } else if (value.is_string()) {
      out->labels[key] = value.string_value;
    }
    // nested values don't occur in JsonBenchReport output; ignore.
  }
  if (out->bench.empty()) {
    return set_error(error, "flat report without a \"bench\" key");
  }
  return true;
}

}  // namespace

bool parse_bench_json(std::string_view json_text, BenchRun* out,
                      std::string* error) {
  *out = BenchRun();
  JsonValue doc;
  std::string parse_error;
  if (!support::parse_json(json_text, &doc, &parse_error)) {
    return set_error(error, "bad JSON: " + parse_error);
  }
  if (!doc.is_object()) return set_error(error, "top level is not an object");
  return parse_flat(doc, out, error);
}

std::string HistoryStore::to_jsonl(const BenchRun& run) {
  JsonWriter w(/*indent=*/0);
  w.begin_object()
      .key("schema")
      .value(run.schema)
      .key("bench")
      .value(run.bench)
      .key("run_id")
      .value(run.run_id)
      .key("timestamp")
      .value(run.timestamp);
  w.key("metrics").begin_object();
  for (const auto& [key, value] : run.metrics) w.key(key).value(value);
  w.end_object();
  w.key("labels").begin_object();
  for (const auto& [key, value] : run.labels) w.key(key).value(value);
  w.end_object();
  w.end_object();
  return w.str();
}

bool HistoryStore::from_jsonl(std::string_view line, BenchRun* out,
                              std::string* error) {
  *out = BenchRun();
  JsonValue doc;
  std::string parse_error;
  if (!support::parse_json(line, &doc, &parse_error)) {
    return set_error(error, "bad JSONL line: " + parse_error);
  }
  if (!doc.is_object()) return set_error(error, "JSONL line is not an object");
  if (const JsonValue* v = doc.find("schema"); v != nullptr && v->is_number()) {
    // Casting a double outside int's range is undefined; no such schema
    // version exists.
    if (!(v->number_value >= INT_MIN && v->number_value <= INT_MAX)) {
      return set_error(error, "schema version out of range");
    }
    out->schema = static_cast<int>(v->number_value);
  }
  if (const JsonValue* v = doc.find("bench"); v != nullptr && v->is_string()) {
    out->bench = v->string_value;
  }
  if (const JsonValue* v = doc.find("run_id"); v != nullptr && v->is_string()) {
    out->run_id = v->string_value;
  }
  if (const JsonValue* v = doc.find("timestamp");
      v != nullptr && v->is_string()) {
    out->timestamp = v->string_value;
  }
  if (const JsonValue* m = doc.find("metrics");
      m != nullptr && m->is_object()) {
    for (const auto& [key, value] : m->members) {
      if (value.is_number()) out->metrics[key] = value.number_value;
    }
  }
  if (const JsonValue* l = doc.find("labels"); l != nullptr && l->is_object()) {
    for (const auto& [key, value] : l->members) {
      if (value.is_string()) out->labels[key] = value.string_value;
    }
  }
  if (out->bench.empty()) return set_error(error, "record without bench name");
  return true;
}

bool HistoryStore::append(const BenchRun& run, std::string* error) {
  if (run.bench.empty()) {
    return error != nullptr ? (*error = "run without bench name", false)
                            : false;
  }
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot create " + root_;
    return false;
  }
  const std::string path = root_ + "/" + run.bench + ".jsonl";
  std::ofstream out(path, std::ios::app);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  out << to_jsonl(run) << "\n";
  return static_cast<bool>(out);
}

std::vector<BenchRun> HistoryStore::load(const std::string& bench,
                                         std::string* error) const {
  std::vector<BenchRun> runs;
  const std::string path = root_ + "/" + bench + ".jsonl";
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "no history at " + path;
    return runs;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    BenchRun run;
    if (from_jsonl(line, &run)) runs.push_back(std::move(run));
  }
  return runs;
}

std::vector<std::string> HistoryStore::benches() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() == ".jsonl") names.push_back(p.stem().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

int HistoryStore::ingest_directory(const std::string& dir,
                                   const std::string& run_id,
                                   const std::string& timestamp,
                                   std::string* error) {
  std::error_code ec;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 &&
        entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    if (error != nullptr) *error = "cannot read " + dir;
    return -1;
  }
  std::sort(files.begin(), files.end());
  int ingested = 0;
  for (const fs::path& file : files) {
    std::ifstream in(file);
    std::ostringstream ss;
    ss << in.rdbuf();
    BenchRun run;
    std::string parse_error;
    if (!parse_bench_json(ss.str(), &run, &parse_error)) {
      if (error != nullptr) {
        *error = file.filename().string() + ": " + parse_error;
      }
      return -1;
    }
    run.run_id = run_id;
    run.timestamp = timestamp;
    if (!append(run, error)) return -1;
    ++ingested;
  }
  return ingested;
}

}  // namespace hicsync::perf
