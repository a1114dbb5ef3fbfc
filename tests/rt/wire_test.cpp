// Wire protocol tests: handle_request_line() is exercised directly (no
// socket — the in-process driver path), then the full RemoteServer /
// RemoteClient loopback over a real AF_UNIX socket, including large 64-bit
// values that would be corrupted by double-precision JSON numbers.

#include "rt/wire.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler.h"
#include "netapp/scenarios.h"
#include "support/json.h"
#include "support/strings.h"

namespace hicsync::rt {
namespace {

std::shared_ptr<const LoadedProgram> load_fig1() {
  core::CompileOptions options;
  options.source_name = "fig1.hic";
  const std::string source = netapp::figure1_source();
  auto compiled = core::Compiler(options).compile(source);
  EXPECT_TRUE(compiled->ok()) << compiled->diags().str();
  Artifact artifact;
  ArtifactError error;
  EXPECT_TRUE(
      parse_artifact(emit_artifact(*compiled, source), &artifact, &error))
      << error.str();
  auto program = load_program(artifact, &error);
  EXPECT_NE(program, nullptr) << error.str();
  return program;
}

support::JsonValue parse(const std::string& line) {
  support::JsonValue v;
  std::string error;
  EXPECT_TRUE(support::parse_json(line, &v, &error))
      << error << " in: " << line;
  return v;
}

bool ok_of(const support::JsonValue& v) {
  const support::JsonValue* ok = v.find("ok");
  return ok != nullptr && ok->is_bool() && ok->bool_value;
}

std::string error_of(const support::JsonValue& v) {
  const support::JsonValue* e = v.find("error");
  return e != nullptr && e->is_string() ? e->string_value : "";
}

class WireProtocol : public ::testing::Test {
 protected:
  WireProtocol() : service_(load_fig1(), make_options()) {}

  static ServiceOptions make_options() {
    ServiceOptions o;
    o.shards = 2;
    return o;
  }

  std::string request(const std::string& line) {
    return handle_request_line(service_, line);
  }

  Service service_;
};

TEST_F(WireProtocol, PingDescribeStats) {
  EXPECT_TRUE(ok_of(parse(request(R"({"op":"ping"})"))));

  support::JsonValue describe = parse(request(R"({"op":"describe"})"));
  EXPECT_TRUE(ok_of(describe));
  EXPECT_EQ(describe.find("program")->string_value, "fig1.hic");
  EXPECT_EQ(describe.find("shards")->number_value, 2);

  support::JsonValue stats = parse(request(R"({"op":"stats"})"));
  EXPECT_TRUE(ok_of(stats));
  ASSERT_NE(stats.find("stats"), nullptr);
  EXPECT_TRUE(stats.find("stats")->is_object());
}

TEST_F(WireProtocol, FullSessionConversation) {
  support::JsonValue open = parse(request(R"({"op":"open"})"));
  ASSERT_TRUE(ok_of(open));
  std::string session =
      support::format("%.0f", open.find("session")->number_value);

  support::JsonValue produce = parse(request(
      R"({"op":"produce","session":)" + session + R"(,"words":["7","9"]})"));
  EXPECT_TRUE(ok_of(produce)) << error_of(produce);

  support::JsonValue run = parse(request(
      R"({"op":"run","session":)" + session + R"(,"passes":2})"));
  ASSERT_TRUE(ok_of(run)) << error_of(run);
  EXPECT_TRUE(run.find("converged")->bool_value);
  EXPECT_GT(run.find("cycles")->number_value, 0);
  ASSERT_NE(run.find("registers"), nullptr);
  EXPECT_FALSE(run.find("registers")->elements.empty());

  support::JsonValue consume = parse(request(
      R"({"op":"consume","session":)" + session +
      R"(,"names":["t2.y1"]})"));
  ASSERT_TRUE(ok_of(consume)) << error_of(consume);
  const auto& regs = consume.find("registers")->elements;
  ASSERT_EQ(regs.size(), 1u);
  EXPECT_EQ(regs[0].find("name")->string_value, "t2.y1");
  // Values travel as decimal strings, not JSON numbers.
  EXPECT_TRUE(regs[0].find("value")->is_string());

  support::JsonValue close = parse(request(
      R"({"op":"close","session":)" + session + "}"));
  EXPECT_TRUE(ok_of(close)) << error_of(close);
}

TEST_F(WireProtocol, TelemetryOpReportsDisabledWithoutTelemetry) {
  support::JsonValue v = parse(request(R"({"op":"telemetry"})"));
  EXPECT_TRUE(ok_of(v));
  const support::JsonValue* telemetry = v.find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  EXPECT_FALSE(telemetry->find("enabled")->bool_value);
}

TEST(WireTelemetry, TelemetryOpAndTagTravelTheProtocol) {
  ServiceOptions options;
  options.shards = 2;
  options.telemetry.enabled = true;
  options.telemetry.slow_threshold_us = 600ULL * 1000 * 1000;
  Service service(load_fig1(), options);
  auto request = [&](const std::string& line) {
    return handle_request_line(service, line);
  };

  support::JsonValue open = parse(request(R"({"op":"open"})"));
  ASSERT_TRUE(ok_of(open));
  std::string session =
      support::format("%.0f", open.find("session")->number_value);

  // The trace-context tag rides the request and is echoed on the result.
  support::JsonValue run = parse(request(
      R"({"op":"run","session":)" + session + R"(,"tag":"wire-req-1"})"));
  ASSERT_TRUE(ok_of(run)) << error_of(run);
  ASSERT_NE(run.find("tag"), nullptr);
  EXPECT_EQ(run.find("tag")->string_value, "wire-req-1");

  // A non-string tag is a malformed request, not a silent drop.
  support::JsonValue bad = parse(request(
      R"({"op":"run","session":)" + session + R"(,"tag":7})"));
  EXPECT_FALSE(ok_of(bad));
  EXPECT_EQ(error_of(bad).rfind("rt-bad-request:", 0), 0u);

  service.drain();
  support::JsonValue v = parse(request(R"({"op":"telemetry"})"));
  ASSERT_TRUE(ok_of(v));
  const support::JsonValue* telemetry = v.find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  EXPECT_TRUE(telemetry->find("enabled")->bool_value);
  const support::JsonValue* shards = telemetry->find("shards");
  ASSERT_NE(shards, nullptr);
  double recorded = 0;
  for (const support::JsonValue& shard : shards->elements) {
    recorded += shard.find("spans_recorded")->number_value;
  }
  EXPECT_EQ(recorded, 2);  // open + run
  // The span carries the tag: visible in the Chrome export.
  EXPECT_NE(service.telemetry_chrome_json().find("\"tag\":\"wire-req-1\""),
            std::string::npos);
}

TEST_F(WireProtocol, BadRequestsGetStableErrors) {
  auto expect_error = [&](const std::string& line,
                          const std::string& prefix) {
    support::JsonValue v = parse(request(line));
    EXPECT_FALSE(ok_of(v)) << line;
    EXPECT_EQ(error_of(v).rfind(prefix, 0), 0u)
        << line << " -> " << error_of(v);
  };
  expect_error("not json at all", "rt-bad-request:");
  expect_error("[1,2,3]", "rt-bad-request:");
  expect_error(R"({"no_op":1})", "rt-bad-request:");
  expect_error(R"({"op":"warp"})", "rt-bad-request:");
  expect_error(R"({"op":"run"})", "rt-bad-request:");  // missing session
  expect_error(R"({"op":"produce","session":0})", "rt-bad-request:");
  expect_error(R"({"op":"produce","session":0,"words":[true]})",
               "rt-bad-request:");
  // Numbers no integer cast can hold are refused, not cast.
  expect_error(R"({"op":"run","session":1e300})", "rt-bad-request:");
  expect_error(R"({"op":"run","session":0,"passes":1e300})",
               "rt-bad-request:");
  expect_error(R"({"op":"run","session":0,"passes":-3e9})",
               "rt-bad-request:");
  expect_error(R"({"op":"produce","session":0,"words":[1e300]})",
               "rt-bad-request:");
  // Nesting past the JSON parser's limit (kJsonMaxDepth).
  expect_error(R"({"op":"ping","x":)" + std::string(100000, '[') +
                   std::string(100000, ']') + "}",
               "rt-bad-request: malformed JSON: nesting deeper than");
  // Well-formed request, service-level failure: stable rt-* code.
  expect_error(R"({"op":"run","session":12345})", "rt-no-session:");
}

#if defined(__unix__) || defined(__APPLE__)

TEST(RemoteWire, ClientServerLoopback) {
  auto program = load_fig1();
  ServiceOptions options;
  options.shards = 2;
  options.default_passes = 2;
  Service service(program, options);

  const std::string path = ::testing::TempDir() + "wire_test.sock";
  std::remove(path.c_str());
  RemoteServer server(service, path);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_TRUE(server.running());

  RemoteClient client;
  ASSERT_TRUE(client.connect(path, &error)) << error;
  EXPECT_TRUE(client.ping(&error)) << error;

  std::uint64_t session = 0;
  ASSERT_TRUE(client.open_session(&session, &error)) << error;
  // A value above 2^53: doubles cannot represent it, decimal strings can.
  std::vector<std::uint64_t> inputs = {(1ull << 60) + 3, 12345678901234567ull};
  ASSERT_TRUE(client.produce(session, inputs, &error)) << error;

  RemoteClient::RunInfo info;
  ASSERT_TRUE(client.run(session, 2, &info, &error)) << error;
  EXPECT_TRUE(info.converged);
  EXPECT_GT(info.cycles, 0u);

  std::vector<std::pair<std::string, std::uint64_t>> registers;
  ASSERT_TRUE(client.consume(session, {}, &registers, &error)) << error;
  EXPECT_FALSE(registers.empty());

  // Differential across the wire: the socket client must read exactly what
  // an in-process client sees for the same session.
  CommandResult direct = service.consume(session, {}).get();
  ASSERT_TRUE(direct.ok) << direct.error;
  EXPECT_EQ(registers, direct.registers);

  std::string json;
  ASSERT_TRUE(client.stats(&json, &error)) << error;
  EXPECT_NE(json.find("\"submitted\""), std::string::npos);
  // This server runs without telemetry; the op still answers.
  std::string telemetry_json;
  ASSERT_TRUE(client.telemetry(&telemetry_json, &error)) << error;
  support::JsonValue telemetry = parse(telemetry_json);
  ASSERT_NE(telemetry.find("enabled"), nullptr);
  EXPECT_FALSE(telemetry.find("enabled")->bool_value);
  std::string describe;
  ASSERT_TRUE(client.describe(&describe, &error)) << error;
  EXPECT_NE(describe.find("fig1.hic"), std::string::npos);

  ASSERT_TRUE(client.close_session(session, &error)) << error;
  client.close();
  EXPECT_FALSE(client.connected());

  // A second client on the same server (fresh connection).
  RemoteClient second;
  ASSERT_TRUE(second.connect(path, &error)) << error;
  EXPECT_TRUE(second.ping(&error)) << error;
  second.close();

  EXPECT_GE(server.connections(), 2u);
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
  service.shutdown();
}

TEST(RemoteWire, ClientErrorsSurfaceServiceCodes) {
  Service service(load_fig1(), {});
  const std::string path = ::testing::TempDir() + "wire_err_test.sock";
  std::remove(path.c_str());
  RemoteServer server(service, path);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  RemoteClient client;
  ASSERT_TRUE(client.connect(path, &error)) << error;
  RemoteClient::RunInfo info;
  EXPECT_FALSE(client.run(999, 0, &info, &error));
  EXPECT_EQ(error.rfind("rt-no-session:", 0), 0u) << error;

  std::uint64_t session = 0;
  ASSERT_TRUE(client.open_session(&session, &error)) << error;
  std::vector<std::pair<std::string, std::uint64_t>> registers;
  EXPECT_FALSE(client.consume(session, {}, &registers, &error));
  EXPECT_EQ(error.rfind("rt-no-run:", 0), 0u) << error;

  server.stop();
  service.shutdown();
}

// A server that stops after another one took over its path (the second
// start() unlinks the first's socket file and binds its own) must leave
// the newer server's socket in place.
TEST(RemoteWire, StopLeavesANewerServersSocket) {
  auto program = load_fig1();
  Service service_a(program, {});
  Service service_b(program, {});
  const std::string path = ::testing::TempDir() + "wire_takeover_test.sock";
  std::remove(path.c_str());
  RemoteServer a(service_a, path);
  RemoteServer b(service_b, path);
  std::string error;
  ASSERT_TRUE(a.start(&error)) << error;
  ASSERT_TRUE(b.start(&error)) << error;
  a.stop();

  RemoteClient client;
  ASSERT_TRUE(client.connect(path, &error)) << error;
  EXPECT_TRUE(client.ping(&error)) << error;
  client.close();
  EXPECT_EQ(b.connections(), 1u);
  EXPECT_EQ(a.connections(), 0u);
  b.stop();
  RemoteClient late;
  EXPECT_FALSE(late.connect(path, &error)) << "b left its socket behind";
  service_a.shutdown();
  service_b.shutdown();
}

TEST(RemoteWire, ConnectToMissingSocketFails) {
  RemoteClient client;
  std::string error;
  EXPECT_FALSE(client.connect("/nonexistent/dir/nope.sock", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(client.connected());
}

#endif  // unix sockets

}  // namespace
}  // namespace hicsync::rt
