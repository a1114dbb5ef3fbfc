#include "perf/history.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "support/json.h"

namespace hicsync::perf {

namespace fs = std::filesystem;
using support::JsonValue;

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

bool read_bench_dir(const std::string& dir, BenchRuns* out,
                    std::string* error) {
  out->clear();
  std::error_code ec;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
        entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  if (ec) return set_error(error, "cannot read '" + dir + "'");
  std::sort(files.begin(), files.end());
  std::map<std::string, std::string> file_of;  // bench -> file naming it
  for (const fs::path& file : files) {
    const std::string name = file.filename().string();
    std::ifstream in(file);
    if (!in) return set_error(error, "cannot read '" + name + "'");
    std::ostringstream text;
    text << in.rdbuf();
    BenchRun run;
    std::string parse_error;
    if (!parse_bench_json(text.str(), &run, &parse_error)) {
      return set_error(error, name + ": " + parse_error);
    }
    auto [it, fresh] = file_of.emplace(run.bench, name);
    if (!fresh) {
      return set_error(error, it->second + " and " + name +
                                  " both name bench '" + run.bench + "'");
    }
    out->emplace(run.bench, std::move(run));
  }
  return true;
}

}  // namespace hicsync::perf
