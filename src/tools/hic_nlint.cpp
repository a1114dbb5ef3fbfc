// hic-nlint — netlist-level structural analyzer for generated controllers.
//
//   hic-nlint [options] <file.hic | ->
//   hic-nlint --seed-bug <name>     (no input: analyze a seeded bug fixture)
//
//   --org arbitrated|event-driven   analyze one organization (default: both)
//   --check <nlint-id>              run one check (repeatable; default all)
//   --explain                       per-claim proof narration
//   --json                          machine-readable results on stdout
//   --list-checks                   print the check catalogue and exit
//   --seed-bug <name>               analyze a deliberately broken fixture
//   --list-seed-bugs                print the fixture catalogue and exit
//
// Compiles the program once per organization, generates the controllers,
// and runs the netlist checks over every generated module: combinational
// loops (with a cycle witness), driver conflicts, width consistency over
// the expression trees, the one-hot mutual-exclusion proofs for every
// claim the RTL builders record (arbiter single-grant, decoder outputs,
// one-hot mux selects), reset coverage of feedback registers, and the
// census cross-check against the area model (docs/ANALYSIS.md).
//
// Exit status:
//   0  clean (every enabled check passed, every claim proved)
//   1  compile error (parse/sema reported errors)
//   2  usage error (bad flags, unknown check or fixture)
//   3  inconclusive (no violation, but a claim was left unproved)
//   7  a structural violation (nlint-* finding at error severity)

#include <cstdio>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "nlint/nlint.h"
#include "nlint/seeded.h"
#include "support/json.h"
#include "support/strings.h"
#include "tools/cli.h"

using namespace hicsync;

namespace {

constexpr const char* kUsageBody =
    "  --org arbitrated|event-driven   (default: analyze both)\n"
    "  --check <nlint-id>              (repeatable)\n"
    "  --explain\n"
    "  --json\n"
    "  --list-checks\n"
    "  --seed-bug <name> | --list-seed-bugs\n"
    // One source line: the usage_docs_in_sync ctest greps this exact table
    // here and in README.md.
    "exit codes: 0 clean, 1 compile error, 2 usage, 3 unproved claims, 7 structural violation\n";

void list_checks() {
  std::fprintf(stderr, "known netlist checks:\n");
  for (const nlint::CheckInfo& info : nlint::check_registry()) {
    std::fprintf(stderr, "  %-28s %s (default %s)\n", info.id,
                 info.description, support::to_string(info.default_severity));
  }
}

void list_seed_bugs() {
  std::fprintf(stderr, "seeded bug fixtures:\n");
  for (const nlint::SeededBug& b : nlint::seeded_bugs()) {
    std::fprintf(stderr, "  %-26s %s -> %s\n", b.name, b.description,
                 b.check_id);
  }
}

int exit_code(const nlint::NlintResult& result) {
  if (result.errors() > 0) return 7;
  if (result.claims_inconclusive() > 0) return 3;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string seed_bug;
  std::vector<sim::OrgKind> orgs;
  nlint::NlintOptions nopts;
  nopts.enabled = true;
  bool json_out = false;

  cli::Cursor cli(argc, argv, 1,
                  support::format("usage: %s [options] <file.hic | ->\n"
                                  "       %s --seed-bug <name>\n%s",
                                  argv[0], argv[0], kUsageBody),
                  2);
  while (cli.next()) {
    std::string value;
    if (cli.value("--org", &value)) {
      std::string error;
      if (!sim::parse_org(value, &orgs.emplace_back(), &error)) {
        return cli.error(error);
      }
    } else if (cli.value("--check", &value)) {
      if (nlint::find_check(value) == nullptr) {
        std::fprintf(stderr, "unknown netlist check '%s'\n", value.c_str());
        list_checks();
        return 2;
      }
      nopts.checks.push_back(value);
    } else if (cli.flag("--explain")) {
      nopts.explain = true;
    } else if (cli.flag("--json")) {
      json_out = true;
    } else if (cli.value("--seed-bug", &seed_bug)) {
      if (nlint::find_seeded_bug(seed_bug) == nullptr) {
        std::fprintf(stderr, "unknown seeded bug '%s'\n", seed_bug.c_str());
        list_seed_bugs();
        return 2;
      }
    } else if (cli.flag("--list-checks")) {
      list_checks();
      return 0;
    } else if (cli.flag("--list-seed-bugs")) {
      list_seed_bugs();
      return 0;
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

  // Fixture mode: build the named broken module and analyze just it.
  if (!seed_bug.empty()) {
    if (!input.empty()) {
      std::fprintf(stderr, "--seed-bug takes no input file\n");
      return 2;
    }
    rtl::Design design;
    const rtl::Module& m = nlint::build_seeded_bug(design, seed_bug);
    nlint::NlintResult result = nlint::run_module(m, nopts);
    if (json_out) {
      std::printf("%s\n", result.json().c_str());
    } else {
      std::printf("%s", result.text().c_str());
    }
    return exit_code(result);
  }

  if (input.empty()) return cli.usage_error();
  if (orgs.empty()) {
    orgs = {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven};
  }

  const std::optional<cli::Source> source = cli::read_source(input);
  if (!source) return 2;
  const std::string& source_name = source->name;

  // The generated netlists differ per organization, so each analyzed org
  // is its own compile (generation is the cheap part; the front end
  // dominates only on tiny programs).
  int worst = 0;
  if (json_out) std::printf("{\"source\":\"%s\",\"results\":[",
                            support::json_escape(source_name).c_str());
  bool first = true;
  for (sim::OrgKind org : orgs) {
    core::CompileOptions copts;
    copts.source_name = source_name;
    copts.organization = org;
    copts.nlint = nopts;
    core::Compiler compiler(copts);
    auto compiled = compiler.compile(source->text);
    if (!compiled->ok()) {
      if (json_out) std::printf("]}\n");
      std::fprintf(stderr, "%s", compiled->diags().str().c_str());
      return 1;
    }
    const char* org_name = sim::to_string(org);
    const nlint::NlintResult& nr = compiled->nlint_result();
    if (json_out) {
      std::printf("%s{\"org\":\"%s\",\"nlint\":%s}", first ? "" : ",",
                  org_name, nr.json().c_str());
    } else {
      std::printf("hic-nlint: organization %s\n%s", org_name,
                  nr.text().c_str());
    }
    first = false;
    const int code = exit_code(nr);
    // 7 beats 3 beats 0.
    if (code == 7 || (code == 3 && worst == 0)) worst = code;
  }
  if (json_out) std::printf("]}\n");
  return worst;
}
