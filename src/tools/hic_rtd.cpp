// hic-rtd — the hic-rt runtime daemon / driver.
//
//   hic-rtd serve  --artifact <prog.hicbin> --socket <path> [options]
//   hic-rtd run    --artifact <prog.hicbin> [options]
//   hic-rtd submit --socket <path> [client ops]
//   hic-rtd stats  --socket <path>
//   hic-rtd watch  --socket <path> [--interval-ms N] [--count N] [--json]
//
// serve  loads an artifact (emitted by `hicc --emit-artifact`), starts the
//        sharded service and listens on an AF_UNIX socket (JSON lines;
//        src/rt/wire.h). Runs until stdin closes or a line of input
//        arrives, then drains and shuts down cleanly.
// run    in-process driver mode: loads the artifact, opens --sessions
//        sessions across --shards shards, drives produce→run→consume per
//        session, prints stats and aggregate throughput. This is the CI
//        smoke mode — no socket involved.
// submit client mode: --open, --produce w,w,..., --run N, --consume
//        a,b,..., --close against a running serve instance.
// stats  prints the server's describe text and stats JSON.
// watch  polls the server's `telemetry` op into a terminal live view:
//        per-shard utilization, queue depth and p50/p95/p99 per stage.
//        --count N stops after N polls (0 = until interrupted); --json
//        prints the raw telemetry JSON document per poll instead.
//
// Options:
//   --artifact <file>     program artifact (serve/run)
//   --socket <path>       AF_UNIX socket path (serve/submit/stats/watch)
//   --shards <n>          worker threads / simulator instances (default 1)
//   --sessions <n>        sessions to drive in run mode (default 4)
//   --passes <n>          pass target per run command (default 1)
//   --produces <n>        produce commands per session in run mode (def. 1)
//   --max-cycles <n>      per-run cycle budget (default 200000)
//   --session <id>        session id for submit ops
//   --tag <s>             trace-context tag on submit ops (echoed + spans)
//   --telemetry           enable request telemetry (serve/run)
//   --slow-us <n>         slow-request threshold, µs (default 100000)
//   --slow-log <file>     JSONL forensics file for slow requests
//   --telemetry-ring <n>  spans retained per shard (default 256)
//   --trace-out <file>    write Chrome-trace of retained spans on exit
//   --interval-ms <n>     watch poll interval (default 1000)
//   --count <n>           watch polls before exiting (default 0 = forever)
//   --json                watch prints raw telemetry JSON per poll
//
// Exit status:
//   0  success
//   1  a command failed (rt-* error from the service)
//   2  usage error
//   3  artifact rejected (rt-bad-magic/rt-version-skew/rt-truncated/...)
//   4  socket error (cannot bind/connect/speak the protocol)

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "rt/service.h"
#include "rt/store.h"
#include "rt/wire.h"
#include "support/json.h"
#include "support/strings.h"
#include "tools/cli.h"

using namespace hicsync;

namespace {

constexpr const char* kUsage =
    "usage: hic-rtd <serve|run|submit|stats|watch> [options]\n"
    "  serve  --artifact <prog.hicbin> --socket <path> [--shards N]\n"
    "         [--telemetry] [--slow-us N] [--slow-log F] [--trace-out F]\n"
    "  run    --artifact <prog.hicbin> [--sessions N] [--shards N]\n"
    "         [--passes N] [--produces N]\n"
    "         [--telemetry] [--slow-us N] [--slow-log F] [--trace-out F]\n"
    "  submit --socket <path> [--open] [--session ID] [--produce w,w,...]\n"
    "         [--run N] [--consume a,b,...] [--close] [--tag S]\n"
    "  stats  --socket <path>\n"
    "  watch  --socket <path> [--interval-ms N] [--count N] [--json]\n"
    // Kept on one line so usage_docs_in_sync can grep it verbatim.
    "exit codes: 0 ok, 1 command failed, 2 usage, 3 artifact rejected, 4 socket error\n";

void usage() { std::fprintf(stderr, "%s", kUsage); }

struct Args {
  std::string mode;
  std::string artifact;
  std::string socket_path;
  int shards = 1;
  int sessions = 4;
  int passes = 1;
  int produces = 1;
  std::uint64_t max_cycles = 200000;
  // telemetry (serve/run):
  bool telemetry = false;
  std::uint64_t slow_us = 100000;
  std::string slow_log;
  std::size_t telemetry_ring = 256;
  std::string trace_out;
  // watch:
  int interval_ms = 1000;
  int count = 0;  // 0 = poll forever
  bool json = false;
  // submit ops, applied in this order:
  std::string tag;
  bool do_open = false;
  std::uint64_t session = 0;
  bool have_session = false;
  std::vector<std::uint64_t> produce_words;
  bool do_produce = false;
  int run_passes = 0;
  bool do_run = false;
  std::vector<std::string> consume_names;
  bool do_consume = false;
  bool do_close = false;
};

/// Comma-separated words in C notation: decimal, 0x hex or 0 octal. Each
/// word starts with a digit, since strtoull would also skip whitespace and
/// take a sign ("-1" would wrap to 2^64-1), and must fit in 64 bits.
bool parse_words(const std::string& csv, std::vector<std::uint64_t>* out) {
  for (const std::string& part : support::split(csv, ',')) {
    if (part.empty() ||
        std::isdigit(static_cast<unsigned char>(part[0])) == 0) {
      return false;
    }
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(part.c_str(), &end, 0);
    if (*end != '\0' || errno == ERANGE) return false;
    out->push_back(static_cast<std::uint64_t>(v));
  }
  return true;
}

rt::ServiceOptions service_options(const Args& args) {
  rt::ServiceOptions options;
  options.shards = args.shards;
  options.default_passes = args.passes;
  options.max_cycles = args.max_cycles;
  options.telemetry.enabled = args.telemetry;
  options.telemetry.slow_threshold_us = args.slow_us;
  options.telemetry.slow_log_path = args.slow_log;
  options.telemetry.ring_capacity = args.telemetry_ring;
  return options;
}

/// Telemetry epilogue shared by serve/run: text report + Chrome trace.
int dump_telemetry(const Args& args, rt::Service& service) {
  if (!service.telemetry_enabled()) return 0;
  std::printf("%s", service.telemetry_text().c_str());
  if (args.trace_out.empty()) return 0;
  if (!cli::write_file(args.trace_out, service.telemetry_chrome_json(),
                       cli::Write::Quiet)) {
    return 1;
  }
  std::printf("telemetry: chrome trace written to %s\n",
              args.trace_out.c_str());
  return 0;
}

/// Exit code for a failed client exchange: transport and protocol
/// breakage is 4 (socket error), a clean rt-* refusal from the service
/// is 1 (command failed). The error text is printed verbatim either way
/// so the rt-* code is visible to scripts.
int client_exit_code(const std::string& error) {
  if (error.rfind("rt-socket", 0) == 0 ||
      error.rfind("rt-bad-response", 0) == 0) {
    return 4;
  }
  return 1;
}

/// 0 when --socket was given, else the usage error for the mode.
int missing_socket(const Args& args) {
  if (!args.socket_path.empty()) return 0;
  std::fprintf(stderr, "%s needs --socket\n", args.mode.c_str());
  usage();
  return 2;
}

/// Connects to --socket; prints the rt-socket-error line on failure.
bool connect(const Args& args, rt::RemoteClient* client) {
  std::string error;
  if (client->connect(args.socket_path, &error)) return true;
  std::fprintf(stderr, "%s\n", error.c_str());
  return false;
}

std::shared_ptr<const rt::LoadedProgram> load_or_die(const Args& args,
                                                     rt::ProgramStore& store) {
  if (args.artifact.empty()) {
    std::fprintf(stderr, "missing --artifact\n");
    usage();
    std::exit(2);
  }
  rt::ArtifactError error;
  auto program = store.load_file(args.artifact, &error);
  if (program == nullptr) {
    std::fprintf(stderr, "cannot load %s: %s\n", args.artifact.c_str(),
                 error.str().c_str());
    std::exit(error.code == "rt-io-error" ? 2 : 3);
  }
  return program;
}

int cmd_serve(const Args& args) {
  if (int rc = missing_socket(args)) return rc;
  rt::ProgramStore store;
  auto program = load_or_die(args, store);
  rt::Service service(program, service_options(args));

  rt::RemoteServer server(service, args.socket_path);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 4;
  }
  std::printf("hic-rtd: serving %s on %s (%d shard%s)\n",
              program->name().c_str(), args.socket_path.c_str(), args.shards,
              args.shards == 1 ? "" : "s");
  std::fflush(stdout);

  // Foreground daemon: run until stdin closes or a line arrives (gives CI
  // and shells a deterministic, signal-free way to stop the server).
  std::string line;
  std::getline(std::cin, line);

  server.stop();
  service.shutdown();
  std::printf("%s", service.stats_text().c_str());
  int rc = dump_telemetry(args, service);
  std::printf("hic-rtd: clean shutdown\n");
  return rc;
}

int cmd_run(const Args& args) {
  rt::ProgramStore store;
  auto program = load_or_die(args, store);
  rt::Service service(program, service_options(args));

  // Drive the whole workload async, then drain once: sessions interleave
  // across the shard pool exactly as remote clients would.
  std::vector<std::future<rt::CommandResult>> runs;
  std::vector<std::future<rt::CommandResult>> consumes;
  auto wall_start = std::chrono::steady_clock::now();
  for (int i = 0; i < args.sessions; ++i) {
    std::uint64_t session = service.open_session();
    for (int p = 0; p < args.produces; ++p) {
      rt::BufferHandle buf = service.buffers().allocate(4);
      for (std::size_t w = 0; w < buf.size(); ++w) {
        buf[w] = static_cast<std::uint64_t>(i * 131 + p * 17) + w;
      }
      service.produce(session, std::move(buf));
    }
    runs.push_back(service.run(session));
    consumes.push_back(service.consume(session, {}));
  }
  service.drain();
  auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();

  int failures = 0;
  for (auto& f : runs) {
    rt::CommandResult r = f.get();
    if (!r.ok) {
      std::fprintf(stderr, "run failed on session %llu: %s\n",
                   static_cast<unsigned long long>(r.session),
                   r.error.c_str());
      ++failures;
    }
  }
  for (auto& f : consumes) {
    rt::CommandResult r = f.get();
    if (!r.ok) {
      std::fprintf(stderr, "consume failed on session %llu: %s\n",
                   static_cast<unsigned long long>(r.session),
                   r.error.c_str());
      ++failures;
    }
  }

  std::printf("%s", service.stats_text().c_str());
  rt::Service::Stats stats = service.stats();
  double secs = static_cast<double>(wall_us) / 1e6;
  if (secs > 0) {
    std::printf("throughput: %.0f commands/s, %.0f runs/s over %.3fs\n",
                static_cast<double>(stats.completed) / secs,
                static_cast<double>(stats.runs) / secs, secs);
  }
  int telemetry_rc = dump_telemetry(args, service);
  service.shutdown();
  std::printf("hic-rtd: clean shutdown\n");
  if (failures != 0) return 1;
  return telemetry_rc;
}

int cmd_submit(const Args& args) {
  if (int rc = missing_socket(args)) return rc;
  rt::RemoteClient client;
  std::string error;
  if (!connect(args, &client)) return 4;
  if (!args.tag.empty()) client.set_tag(args.tag);

  std::uint64_t session = args.session;
  if (args.do_open) {
    if (!client.open_session(&session, &error)) {
      std::fprintf(stderr, "open failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("session %llu\n", static_cast<unsigned long long>(session));
  } else if (!args.have_session &&
             (args.do_produce || args.do_run || args.do_consume ||
              args.do_close)) {
    std::fprintf(stderr, "submit ops need --open or --session <id>\n");
    return 2;
  }
  if (args.do_produce &&
      !client.produce(session, args.produce_words, &error)) {
    std::fprintf(stderr, "produce failed: %s\n", error.c_str());
    return 1;
  }
  if (args.do_run) {
    rt::RemoteClient::RunInfo info;
    if (!client.run(session, args.run_passes, &info, &error)) {
      std::fprintf(stderr, "run failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("run: converged=%s cycles=%llu rounds=%llu shard=%d\n",
                info.converged ? "true" : "false",
                static_cast<unsigned long long>(info.cycles),
                static_cast<unsigned long long>(info.rounds), info.shard);
  }
  if (args.do_consume) {
    std::vector<std::pair<std::string, std::uint64_t>> registers;
    if (!client.consume(session, args.consume_names, &registers, &error)) {
      std::fprintf(stderr, "consume failed: %s\n", error.c_str());
      return 1;
    }
    for (const auto& [name, value] : registers) {
      std::printf("%s = %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  if (args.do_close && !client.close_session(session, &error)) {
    std::fprintf(stderr, "close failed: %s\n", error.c_str());
    return 1;
  }
  return 0;
}

int cmd_stats(const Args& args) {
  if (int rc = missing_socket(args)) return rc;
  rt::RemoteClient client;
  std::string error;
  if (!connect(args, &client)) return 4;
  std::string describe;
  std::string json;
  if (!client.describe(&describe, &error) || !client.stats(&json, &error)) {
    std::fprintf(stderr, "stats failed: %s\n", error.c_str());
    return client_exit_code(error);
  }
  std::printf("%s%s\n", describe.c_str(), json.c_str());
  return 0;
}

/// One rendered frame of the live view. Returns false on a document the
/// renderer does not understand (caller treats as rt-bad-response).
bool render_watch_frame(const std::string& telemetry_json, int poll) {
  support::JsonValue doc;
  std::string json_error;
  if (!support::parse_json(telemetry_json, &doc, &json_error)) return false;
  const support::JsonValue* enabled = doc.find("enabled");
  if (enabled == nullptr || !enabled->is_bool()) return false;
  if (!enabled->bool_value) {
    std::printf("[%d] telemetry disabled on server\n", poll);
    return true;
  }
  const support::JsonValue* shards = doc.find("shards");
  const support::JsonValue* slow = doc.find("slow_log_entries");
  if (shards == nullptr || !shards->is_array()) return false;
  std::printf("[%d] %zu shard%s, %llu slow request%s\n", poll,
              shards->elements.size(),
              shards->elements.size() == 1 ? "" : "s",
              slow != nullptr && slow->is_number()
                  ? static_cast<unsigned long long>(slow->number_value)
                  : 0ULL,
              slow != nullptr && slow->number_value == 1 ? "" : "s");
  for (const support::JsonValue& shard : shards->elements) {
    auto num = [&shard](const char* key) -> unsigned long long {
      const support::JsonValue* v = shard.find(key);
      return v != nullptr && v->is_number()
                 ? static_cast<unsigned long long>(v->number_value)
                 : 0ULL;
    };
    std::printf("  shard %llu: queue %llu, %llu spans, busy %llu us",
                num("shard"), num("queue_depth"), num("spans_recorded"),
                num("busy_us"));
    const support::JsonValue* stages = shard.find("stages");
    const support::JsonValue* total =
        stages != nullptr ? stages->find("total_us") : nullptr;
    if (total != nullptr) {
      auto pct = [&total](const char* key) -> unsigned long long {
        const support::JsonValue* v = total->find(key);
        return v != nullptr && v->is_number()
                   ? static_cast<unsigned long long>(v->number_value)
                   : 0ULL;
      };
      std::printf(", total p50/p95/p99 %llu/%llu/%llu us", pct("p50"),
                  pct("p95"), pct("p99"));
    }
    std::printf("\n");
  }
  std::fflush(stdout);
  return true;
}

int cmd_watch(const Args& args) {
  if (int rc = missing_socket(args)) return rc;
  rt::RemoteClient client;
  std::string error;
  if (!connect(args, &client)) return 4;
  for (int poll = 0; args.count <= 0 || poll < args.count; ++poll) {
    if (poll > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(args.interval_ms));
    }
    std::string json;
    if (!client.telemetry(&json, &error)) {
      std::fprintf(stderr, "watch failed: %s\n", error.c_str());
      return client_exit_code(error);
    }
    if (args.json) {
      std::printf("%s\n", json.c_str());
      std::fflush(stdout);
    } else if (!render_watch_frame(json, poll)) {
      std::fprintf(stderr,
                   "watch failed: rt-bad-response: unexpected telemetry "
                   "document\n");
      return 4;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  Args args;
  args.mode = argv[1];
  if (args.mode == "--help" || args.mode == "-h") {
    usage();
    return 0;
  }

  cli::Cursor cli(argc, argv, 2, kUsage, 2);
  while (cli.next()) {
    std::string value;
    if (cli.value("--artifact", &args.artifact)) {
    } else if (cli.value("--socket", &args.socket_path)) {
    } else if (cli.count("--shards", &args.shards)) {
    } else if (cli.count("--sessions", &args.sessions)) {
    } else if (cli.count("--passes", &args.passes)) {
    } else if (cli.count("--produces", &args.produces)) {
    } else if (cli.count("--max-cycles", &args.max_cycles)) {
    } else if (cli.flag("--telemetry")) {
      args.telemetry = true;
    } else if (cli.count("--slow-us", &args.slow_us)) {
    } else if (cli.value("--slow-log", &args.slow_log)) {
    } else if (cli.count("--telemetry-ring", &args.telemetry_ring)) {
    } else if (cli.value("--trace-out", &args.trace_out)) {
    } else if (cli.count("--interval-ms", &args.interval_ms)) {
    } else if (cli.count("--count", &args.count)) {
    } else if (cli.flag("--json")) {
      args.json = true;
    } else if (cli.value("--tag", &args.tag)) {
    } else if (cli.flag("--open")) {
      args.do_open = true;
    } else if (cli.count("--session", &args.session)) {
      args.have_session = true;
    } else if (cli.value("--produce", &value)) {
      args.do_produce = true;
      if (!parse_words(value, &args.produce_words)) {
        return cli.error("bad --produce word list");
      }
    } else if (cli.count("--run", &args.run_passes)) {
      args.do_run = true;
    } else if (cli.value("--consume", &value)) {
      args.do_consume = true;
      if (value != "all") {
        args.consume_names = support::split(value, ',');
      }
    } else if (cli.flag("--close")) {
      args.do_close = true;
    } else {
      return cli.unknown_option();
    }
  }

  if (args.mode == "serve") return cmd_serve(args);
  if (args.mode == "run") return cmd_run(args);
  if (args.mode == "submit") return cmd_submit(args);
  if (args.mode == "stats") return cmd_stats(args);
  if (args.mode == "watch") return cmd_watch(args);
  std::fprintf(stderr, "unknown mode '%s'\n", args.mode.c_str());
  usage();
  return 2;
}
