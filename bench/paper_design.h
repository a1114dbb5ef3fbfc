// The paper benches' designs, compiled.
//
// Tables 1/2 and §4's timing, overhead and latency numbers describe one
// scenario: a single BRAM with one producer thread and N consumer threads,
// taken from the IP-forwarding application. netapp::fanout_source(n) is that
// program, and core::Compiler builds its controller exactly as hicc does,
// so every number the paper benches print is a number of the shipped
// compiler. Only the paper benches include this header.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/compiler.h"
#include "netapp/scenarios.h"

namespace hicsync::bench {

/// Compiles `source` — §4's scenario is netapp::fanout_source(n) — under
/// `organization` (`use_cam` picks the arbitrated dependency-list lookup).
/// A compile error, or a design that is not one BRAM controller, ends the
/// bench with exit 1, so bram_reports().front() and controllers().front()
/// are that controller.
inline std::unique_ptr<core::CompileResult> compile_design(
    const std::string& source, sim::OrgKind organization,
    bool use_cam = true) {
  core::CompileOptions options;
  options.organization = organization;
  options.use_cam = use_cam;
  auto result = core::Compiler(options).compile(source);
  if (!result->ok() || result->controllers().size() != 1) {
    std::fprintf(stderr, "paper design does not compile to one controller\n%s",
                 result->diags().str().c_str());
    std::exit(1);
  }
  return result;
}

}  // namespace hicsync::bench
