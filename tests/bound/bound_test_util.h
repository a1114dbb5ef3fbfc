// Shared helpers for the hic-bound test suites: fixture loading and a
// front-end-only compile (parse/sema/allocation/port planning) that yields
// the artifacts run_bound consumes.
#pragma once

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "bound/bound.h"
#include "core/compiler.h"

namespace hicsync::bound_test {

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

inline std::string lint_fixture_path(const std::string& name) {
  return std::string(LINT_FIXTURE_DIR) + "/" + name;
}

inline std::string verify_fixture_path(const std::string& name) {
  return std::string(VERIFY_FIXTURE_DIR) + "/" + name;
}

inline std::string bound_fixture_path(const std::string& name) {
  return std::string(BOUND_FIXTURE_DIR) + "/" + name;
}

inline std::string example_path(const std::string& name) {
  return std::string(HICSYNC_EXAMPLES_DIR) + "/" + name;
}

/// Compiles `source` far enough for run_bound: front end + allocation +
/// port planning (lint-only mode skips RTL generation, which the clients
/// do not need).
inline std::unique_ptr<core::CompileResult> compile_for_bound(
    const std::string& source, const std::string& name = "test.hic") {
  core::CompileOptions options;
  options.lint.enabled = true;
  options.lint.only = true;
  options.source_name = name;
  core::Compiler compiler(options);
  auto result = compiler.compile(source);
  EXPECT_TRUE(result->ok()) << result->diags().str();
  return result;
}

inline bound::BoundResult bound_source(const core::CompileResult& c,
                                       sim::OrgKind org,
                                       bound::BoundOptions opts = {}) {
  opts.enabled = true;
  return bound::run_bound(c.program(), c.sema(), c.memory_map(),
                          c.port_plans(), org, opts);
}

}  // namespace hicsync::bound_test
