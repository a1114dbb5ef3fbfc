// hic-verify — explicit-state model checker for hic programs.
//
//   hic-verify [options] <file.hic | ->
//
//   --org arbitrated|event-driven   check one organization (default: both)
//   --max-states <n>                state budget (default 1000000)
//   --max-depth <n>                 BFS depth budget (default unlimited)
//   --no-por                        disable partial-order reduction
//   --no-bounds                     skip the blocking-bound computation
//   --replay                        re-run each refutation through the
//                                   cycle-accurate simulator (sim::SystemSim
//                                   on the trace bus) and report whether it
//                                   reproduces
//   --replay-max-cycles <n>         replay cycle budget (default 20000)
//   --cex-out <path>                write refutation counterexamples as JSON
//   --infer                         infer producer/consumer pragmas (use-def)
//   --json                          machine-readable results on stdout
//
// Proves or refutes, per organization: deadlock-freedom, absence of runtime
// consume-before-produce, bounded blocking under round-robin fairness (with
// a concrete worst-case bound per consumer), and dependency-list occupancy
// within the generated CAM capacity. See docs/VERIFICATION.md.
//
// Exit status:
//   0  all checked properties proved for every requested organization
//   1  compile error (parse/sema reported errors)
//   2  usage error
//   3  a budget (states or depth) was exhausted: no refutation, but
//      unproved properties are inconclusive (raise --max-states /
//      --max-depth, or fall back to hic-bound for sound static bounds)
//   5  a property was refuted (counterexample reported)

#include <cstdio>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "support/json.h"
#include "support/strings.h"
#include "tools/cli.h"
#include "verify/checker.h"
#include "verify/replay.h"

using namespace hicsync;

namespace {

constexpr const char* kUsageBody =
    "  --org arbitrated|event-driven   (default: check both)\n"
    "  --max-states <n>\n"
    "  --max-depth <n>\n"
    "  --no-por\n"
    "  --no-bounds\n"
    "  --replay [--replay-max-cycles <n>]\n"
    "  --cex-out <path>\n"
    "  --infer\n"
    "  --json\n"
    // One source line: the usage_docs_in_sync ctest greps this exact table
    // here and in README.md.
    "exit codes: 0 verified, 1 compile error, 2 usage, 3 inconclusive, 5 refuted\n";  // NOLINT(whitespace/line_length)

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::vector<sim::OrgKind> orgs;
  verify::VerifyOptions vopts;
  vopts.enabled = true;
  bool do_replay = false;
  verify::ReplayOptions ropts;
  std::string cex_out;
  bool infer = false;
  bool json_out = false;

  cli::Cursor cli(argc, argv, 1,
                  support::format("usage: %s [options] <file.hic | ->\n%s",
                                  argv[0], kUsageBody),
                  2);
  while (cli.next()) {
    std::string value;
    if (cli.value("--org", &value)) {
      std::string error;
      if (!sim::parse_org(value, &orgs.emplace_back(), &error)) {
        return cli.error(error);
      }
    } else if (cli.count("--max-states", &vopts.max_states)) {
    } else if (cli.count("--max-depth", &vopts.max_depth)) {
    } else if (cli.flag("--no-por")) {
      vopts.por = false;
    } else if (cli.flag("--no-bounds")) {
      vopts.bounds = false;
    } else if (cli.flag("--replay")) {
      do_replay = true;
    } else if (cli.count("--replay-max-cycles", &ropts.max_cycles)) {
    } else if (cli.value("--cex-out", &cex_out)) {
    } else if (cli.flag("--infer")) {
      infer = true;
    } else if (cli.flag("--json")) {
      json_out = true;
    } else if (cli.help()) {
      cli.usage();
      return 0;
    } else if (cli.is_option()) {
      return cli.unknown_option();
    } else if (input.empty()) {
      input = cli.arg();
    } else {
      return cli.usage_error();
    }
  }
  if (input.empty()) return cli.usage_error();
  if (orgs.empty()) {
    orgs = {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven};
  }

  const std::optional<cli::Source> source = cli::read_source(input);
  if (!source) return 2;
  const std::string& source_name = source->name;

  // One front-end + allocation pass feeds every organization: the memory
  // map and port plans do not depend on the organization choice, only the
  // generated controllers do (and the checker models those abstractly).
  core::CompileOptions copts;
  copts.source_name = source_name;
  copts.infer_dependencies = infer;
  core::Compiler compiler(copts);
  auto compiled = compiler.compile(source->text);
  if (!compiled->ok()) {
    std::fprintf(stderr, "%s", compiled->diags().str().c_str());
    return 1;
  }

  support::DiagnosticEngine diags;
  diags.set_source_name(source_name);
  std::size_t refuted = 0;
  bool all_complete = true;
  std::vector<verify::VerifyResult> results;
  std::string replay_reports;
  bool all_replays_reproduced = true;
  for (sim::OrgKind org : orgs) {
    verify::VerifyResult vr = verify::run_verify(
        compiled->program(), compiled->sema(), compiled->memory_map(),
        compiled->port_plans(), org, vopts);
    refuted += verify::report_findings(vr, compiled->sema(), diags);
    all_complete = all_complete && vr.complete;
    if (do_replay && vr.has_cex) {
      verify::ReplayResult rr =
          verify::replay(compiled->program(), compiled->sema(),
                         compiled->memory_map(), compiled->port_plans(),
                         compiled->fsms(), org, vr.cex, ropts);
      replay_reports += rr.report;
      all_replays_reproduced = all_replays_reproduced && rr.reproduced;
    }
    results.push_back(std::move(vr));
  }

  if (!cex_out.empty()) {
    support::JsonWriter w;
    w.begin_object();
    w.key("source").value(source_name);
    w.key("counterexamples").begin_array();
    for (const verify::VerifyResult& vr : results) {
      if (vr.has_cex) w.raw(vr.json());
    }
    w.end_array();
    w.end_object();
    if (!cli::write_file(cex_out, w.str() + "\n", cli::Write::Quiet)) {
      return 2;
    }
  }

  if (json_out) {
    support::JsonWriter w;
    w.begin_object();
    w.key("source").value(source_name);
    w.key("results").begin_array();
    for (const verify::VerifyResult& vr : results) w.raw(vr.json());
    w.end_array();
    w.key("diagnostics").raw(diags.json());
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    if (!diags.diagnostics().empty()) {
      std::fprintf(stderr, "%s", diags.str().c_str());
    }
    for (const verify::VerifyResult& vr : results) {
      std::printf("%s", vr.text().c_str());
    }
    if (do_replay && !replay_reports.empty()) {
      std::printf("replay against the cycle-accurate simulator:\n%s",
                  replay_reports.c_str());
    }
  }

  if (refuted > 0) {
    if (do_replay && !replay_reports.empty() && !all_replays_reproduced) {
      std::fprintf(stderr,
                   "warning: a counterexample did not reproduce in the "
                   "simulator; see the replay report\n");
    }
    return 5;
  }
  if (!all_complete) return 3;
  return 0;
}
