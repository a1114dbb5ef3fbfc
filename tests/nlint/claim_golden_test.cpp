// Pins the one-hot prover's work per claim: on the Table 1/2 fan-outs at 8
// and 32 consumers, under both organizations, every claim's verdict,
// derived-fact count, case count and pair split must match
// tests/nlint/golden/claims.txt byte for byte, and each module's
// facts total (as run_design reports it) must be the sum of its claims.
//
// The test also writes its lines to nlint_claim_golden_out/ in the build
// tree; to re-record after an intended change of the prover, copy that
// file over tests/nlint/golden/.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/compiler.h"
#include "memorg/controller.h"
#include "netapp/scenarios.h"
#include "nlint/netgraph.h"
#include "nlint/nlint.h"

namespace hicsync::nlint {
namespace {

std::string claim_lines(int consumers, sim::OrgKind org) {
  core::CompileOptions opts;
  opts.organization = org;
  opts.nlint.enabled = true;
  opts.source_name = "fanout.hic";
  core::Compiler compiler(opts);
  auto result = compiler.compile(netapp::fanout_source(consumers));
  EXPECT_TRUE(result->ok()) << result->diags().str();
  const NlintResult& nr = result->nlint_result();

  std::ostringstream out;
  const std::string tag = "fanout" + std::to_string(consumers) + " " +
                          memorg::to_string(org);
  for (const ModuleSummary& ms : nr.modules) {
    const rtl::Module* module = nullptr;
    for (const auto& m : result->design().modules()) {
      if (m->name() == ms.module) module = m.get();
    }
    EXPECT_NE(module, nullptr) << ms.module;
    if (module == nullptr) continue;
    out << tag << " module " << ms.module << " claims=" << ms.claims_total
        << " facts=" << ms.facts_derived << "\n";
    const NetGraph g(*module);
    OneHotProver prover(g);
    std::uint64_t facts = 0;
    int index = 0;
    for (const rtl::OneHotClaim& claim : module->onehot_claims()) {
      const OneHotOutcome o = prover.prove(claim.nets, opts.nlint.onehot);
      facts += o.facts_derived;
      out << tag << " claim " << index++ << " " << claim.origin
          << " nets=" << claim.nets.size() << " " << to_string(o.status)
          << " facts=" << o.facts_derived << " cases=" << o.cases_used
          << " pairs=" << o.pairs_total << "/" << o.pairs_by_implication
          << "/" << o.pairs_by_enumeration << "\n";
    }
    EXPECT_EQ(facts, ms.facts_derived) << tag << " " << ms.module;
  }
  return out.str();
}

TEST(NlintClaimGolden, FanoutFactsAndCasesPerClaim) {
  std::string actual;
  for (int n : {8, 32}) {
    for (sim::OrgKind org :
         {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
      actual += claim_lines(n, org);
    }
  }
  const std::filesystem::path out_dir(HICSYNC_NLINT_GOLDEN_OUT_DIR);
  std::filesystem::create_directories(out_dir);
  std::ofstream(out_dir / "claims.txt") << actual;

  const std::filesystem::path golden_path =
      std::filesystem::path(HICSYNC_NLINT_GOLDEN_DIR) / "claims.txt";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "no golden " << golden_path;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), actual);
}

}  // namespace
}  // namespace hicsync::nlint
