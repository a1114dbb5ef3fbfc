// Golden of the emitted RTL: every controller the generators build, as
// Verilog and as the self-checking testbench, must hash to the values in
// tests/core/golden/rtl_digests.txt.
//
// The cases are what hicc emits for examples/*.hic under both
// organizations, each plain, with --no-cam and with --bound
// (`hicc --org <org> [flag] --emit-verilog ... --emit-testbench ...`);
// the compiled netapp::fanout_source(2 / 8 / 32) under both organizations;
// tests/bound/fixtures/dead_dep.hic, whose --bound build prunes a dead
// dependency and its pseudo-port; and rtl::emit_module of the bare and
// lock baselines at 2 and 8 clients.
// One line per case: the case, the byte count and the FNV-1a-64 of the
// text. The full texts run to megabytes, so the golden holds digests; to
// see a drifted case, emit it with hicc (or the generator) at both
// revisions and diff them.
//
// The test also writes its lines to rtl_golden_out/ in the build tree.
// The golden is recorded once and pins the generators' output byte for
// byte: net names, net order and expression trees.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/bare.h"
#include "baseline/lockmem.h"
#include "core/compiler.h"
#include "core/tbgen.h"
#include "netapp/scenarios.h"
#include "rtl/verilog.h"
#include "support/strings.h"

namespace hicsync::core {
namespace {

std::string digest_line(const std::string& name, const std::string& text) {
  return support::format("%s %zu %016llx\n", name.c_str(), text.size(),
                         static_cast<unsigned long long>(
                             support::fnv1a64(text)));
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream s;
  s << in.rdbuf();
  return s.str();
}

/// The lines of `golden` whose case starts with `prefix`.
std::string golden_lines(const std::string& golden,
                         const std::string& prefix) {
  std::string out;
  std::istringstream in(golden);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) out += line + "\n";
  }
  return out;
}

/// Compares `actual` with the golden's lines of the same prefix and
/// writes it to the build tree.
void expect_golden(const std::string& prefix, const std::string& actual) {
  const std::filesystem::path out_dir(HICSYNC_RTL_GOLDEN_OUT_DIR);
  std::filesystem::create_directories(out_dir);
  std::string file;
  for (char c : prefix) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') file += c;
  }
  std::ofstream(out_dir / (file + ".txt")) << actual;

  const std::filesystem::path golden_path =
      std::filesystem::path(HICSYNC_SIM_GOLDEN_DIR) / "rtl_digests.txt";
  ASSERT_TRUE(std::filesystem::exists(golden_path))
      << "no golden " << golden_path;
  EXPECT_EQ(golden_lines(read_text(golden_path), prefix), actual);
}

/// What `hicc --org <org> [flag] --emit-verilog --emit-testbench` writes
/// for `source`: the Verilog, then the testbench (or the one-line error
/// hicc prints instead).
std::string emit_compiled(const std::string& name, const std::string& source,
                          const CompileOptions& options) {
  auto result = Compiler(options).compile(source);
  EXPECT_TRUE(result->ok()) << name << "\n" << result->diags().str();
  EXPECT_EQ(result->bound_error_count(), 0u) << name;
  std::string testbench;
  try {
    testbench = generate_controller_testbench(*result);
  } catch (const std::exception& e) {
    testbench = e.what();
  }
  return digest_line(name + " --emit-verilog", result->verilog()) +
         digest_line(name + " --emit-testbench", testbench);
}

/// The cases of `path` (named `shown`) under both organizations and the
/// given hicc flags.
std::string emit_file(const std::filesystem::path& path,
                      const std::string& shown,
                      std::initializer_list<const char*> flags) {
  const std::string source = read_text(path);
  std::string out;
  for (sim::OrgKind org :
       {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
    for (const char* flag : flags) {
      CompileOptions options;
      options.organization = org;
      options.use_cam = std::string(flag) != "--no-cam";
      options.bound.enabled = std::string(flag) == "--bound";
      options.source_name = shown;
      std::string name = shown + " --org " + sim::to_string(org);
      if (*flag != '\0') name += std::string(" ") + flag;
      out += emit_compiled(name, source, options);
    }
  }
  return out;
}

TEST(RtlGolden, ExamplesBothOrgsPlainNoCamBound) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(HICSYNC_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".hic") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  std::string actual;
  for (const auto& path : files) {
    actual += emit_file(path, "examples/" + path.filename().string(),
                        {"", "--no-cam", "--bound"});
  }
  expect_golden("examples/", actual);
}

TEST(RtlGolden, BoundPrunedController) {
  expect_golden("tests/bound/",
                emit_file(HICSYNC_BOUND_FIXTURES_DIR "/dead_dep.hic",
                          "tests/bound/fixtures/dead_dep.hic",
                          {"", "--bound"}));
}

TEST(RtlGolden, FanoutSourceBothOrgs) {
  std::string actual;
  for (int n : {2, 8, 32}) {
    for (sim::OrgKind org :
         {sim::OrgKind::Arbitrated, sim::OrgKind::EventDriven}) {
      CompileOptions options;
      options.organization = org;
      actual += emit_compiled(
          "fanout_source(" + std::to_string(n) + ") --org " +
              sim::to_string(org),
          netapp::fanout_source(n), options);
    }
  }
  expect_golden("fanout_source(", actual);
}

TEST(RtlGolden, BareAndLockBaselines) {
  std::string actual;
  for (int n : {2, 8}) {
    rtl::Design d;
    baseline::BareConfig bare;
    bare.num_clients = n;
    const rtl::Module& b = baseline::generate_bare(d, bare, "bare");
    actual += digest_line("baseline/bare clients=" + std::to_string(n),
                          rtl::emit_module(b));
    baseline::LockMemConfig lock;
    lock.num_clients = n;
    lock.lock_addrs = {4, 6};
    const rtl::Module& l = baseline::generate_lockmem(d, lock, "lockmem");
    actual += digest_line("baseline/lockmem clients=" + std::to_string(n),
                          rtl::emit_module(l));
  }
  expect_golden("baseline/", actual);
}

}  // namespace
}  // namespace hicsync::core
