// hic-rt wire protocol: JSON lines over a local (AF_UNIX) socket.
//
// One request object per line, one response line per request, in order:
//
//   {"op":"ping"}
//   {"op":"describe"}
//   {"op":"stats"}
//   {"op":"telemetry"}                -> {"ok":true,"telemetry":{...}}
//   {"op":"open"}                                  -> {"ok":true,"session":N}
//   {"op":"produce","session":N,"words":["7",...]}
//   {"op":"run","session":N,"passes":2}
//   {"op":"consume","session":N,"names":["t1.x"]}
//   {"op":"close","session":N}
//
// Responses carry {"ok":bool} plus op-specific fields; failures carry
// {"ok":false,"error":"rt-*: detail"} with the service's stable error
// codes. 64-bit values (produce words, register values) travel as decimal
// strings — JSON numbers are doubles and would corrupt above 2^53.
//
// Any command op (produce/run/consume/close) may carry a "tag": a
// client-assigned trace-context string, attached to the command's
// telemetry span and echoed back in the response. `telemetry` returns
// Service::telemetry_json() ({"enabled":false} when telemetry is off).
//
// handle_request_line() is the whole protocol engine and is transport-
// independent: RemoteServer pumps socket lines through it, hic-rtd's
// in-process driver mode calls it directly, and the wire tests exercise it
// without ever opening a socket.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "rt/service.h"

namespace hicsync::rt {

/// Executes one protocol line against `service` and returns the response
/// line (no trailing newline). Synchronous: command ops wait for their
/// completion before answering. Malformed requests produce
/// {"ok":false,"error":"rt-bad-request: ..."}.
[[nodiscard]] std::string handle_request_line(Service& service,
                                              std::string_view line);

/// Serves a Service over an AF_UNIX stream socket, one thread per
/// connection.
class RemoteServer {
 public:
  RemoteServer(Service& service, std::string socket_path);
  ~RemoteServer();

  RemoteServer(const RemoteServer&) = delete;
  RemoteServer& operator=(const RemoteServer&) = delete;

  /// Binds, listens and starts the accept loop. False + `error` on
  /// failure (socket in use, path too long).
  bool start(std::string* error);
  /// Stops accepting, closes live connections, joins all threads and
  /// unlinks the socket path unless another server has since bound it.
  /// Idempotent.
  void stop();

  [[nodiscard]] const std::string& socket_path() const { return path_; }
  [[nodiscard]] bool running() const { return running_.load(); }
  /// Connections accepted over the server's lifetime.
  [[nodiscard]] std::uint64_t connections() const {
    return connections_.load();
  }

 private:
  void accept_loop();
  void serve_connection(int fd);

  Service& service_;
  std::string path_;
  // The socket file this server bound, as (st_dev, st_ino).
  std::uint64_t socket_dev_ = 0;
  std::uint64_t socket_ino_ = 0;
  // Atomic: stop() clears it while accept_loop() is blocked in accept().
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> connections_{0};
  std::thread accept_thread_;
  std::mutex mu_;
  std::vector<std::thread> conn_threads_;  // guarded by mu_
  std::vector<int> conn_fds_;              // live connections, guarded by mu_
};

/// Client side of the protocol. Blocking; not thread-safe (one in-flight
/// request per client, like one XRT command queue).
class RemoteClient {
 public:
  RemoteClient() = default;
  ~RemoteClient();

  RemoteClient(const RemoteClient&) = delete;
  RemoteClient& operator=(const RemoteClient&) = delete;

  bool connect(const std::string& socket_path, std::string* error);
  void close();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Trace-context tag attached to every subsequent typed command request
  /// ("" = stop tagging). The server echoes it and stamps it on spans.
  void set_tag(std::string tag) { tag_ = std::move(tag); }
  [[nodiscard]] const std::string& tag() const { return tag_; }

  /// Sends one raw request line and reads one response line.
  bool call(const std::string& request, std::string* response,
            std::string* error);

  // ---- Typed convenience wrappers over call(). --------------------------

  bool ping(std::string* error);
  bool open_session(std::uint64_t* session, std::string* error);
  bool close_session(std::uint64_t session, std::string* error);
  bool produce(std::uint64_t session,
               const std::vector<std::uint64_t>& words, std::string* error);

  struct RunInfo {
    bool converged = false;
    std::uint64_t cycles = 0;
    std::uint64_t rounds = 0;
    int shard = -1;
  };
  bool run(std::uint64_t session, int passes, RunInfo* info,
           std::string* error);
  bool consume(std::uint64_t session, const std::vector<std::string>& names,
               std::vector<std::pair<std::string, std::uint64_t>>* registers,
               std::string* error);
  /// The service's stats_json() document.
  bool stats(std::string* json, std::string* error);
  /// The service's telemetry_json() document ({"enabled":false} when the
  /// server runs without telemetry).
  bool telemetry(std::string* json, std::string* error);
  /// The loaded program's describe() text.
  bool describe(std::string* text, std::string* error);

 private:
  int fd_ = -1;
  std::string inbuf_;  // bytes read past the last response line
  std::string tag_;    // trace context for typed command requests
};

}  // namespace hicsync::rt
