#include "rt/wire.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/json.h"
#include "support/strings.h"

namespace hicsync::rt {

namespace {

std::string error_line(const std::string& message) {
  support::JsonWriter w(0);
  w.begin_object();
  w.key("ok").value(false);
  w.key("error").value(message);
  w.end_object();
  return w.str();
}

std::string u64_str(std::uint64_t v) {
  return support::format("%llu", static_cast<unsigned long long>(v));
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

/// A JSON number in [0, 2^64), truncated to an integer; false otherwise
/// (a cast from outside that range is undefined).
bool number_u64(const support::JsonValue& v, std::uint64_t* out) {
  if (!v.is_number() ||
      !(v.number_value >= 0 && v.number_value < 18446744073709551616.0)) {
    return false;
  }
  *out = static_cast<std::uint64_t>(v.number_value);
  return true;
}

/// Session id from the request; false fills *resp with the error line.
bool get_session(const support::JsonValue& req, std::uint64_t* session,
                 std::string* resp) {
  const support::JsonValue* v = req.find("session");
  if (v == nullptr || !number_u64(*v, session)) {
    *resp = error_line("rt-bad-request: missing or invalid 'session'");
    return false;
  }
  return true;
}

/// Optional trace-context tag from the request ("" when absent); false
/// fills *resp with the error line.
bool get_tag(const support::JsonValue& req, std::string* tag,
             std::string* resp) {
  const support::JsonValue* v = req.find("tag");
  if (v == nullptr) return true;
  if (!v->is_string()) {
    *resp = error_line("rt-bad-request: 'tag' must be a string");
    return false;
  }
  *tag = v->string_value;
  return true;
}

std::string result_line(const CommandResult& r, bool with_registers) {
  support::JsonWriter w(0);
  w.begin_object();
  w.key("ok").value(r.ok);
  if (!r.ok) w.key("error").value(r.error);
  w.key("session").value(r.session);
  w.key("sequence").value(r.sequence);
  w.key("shard").value(r.shard);
  if (!r.tag.empty()) w.key("tag").value(r.tag);
  if (r.kind == CommandKind::Run) {
    w.key("converged").value(r.converged);
    w.key("cycles").value(r.cycles);
    w.key("rounds").value(r.rounds);
  }
  if (with_registers) {
    w.key("registers").begin_array();
    for (const auto& [name, value] : r.registers) {
      w.begin_object();
      w.key("name").value(name);
      w.key("value").value(u64_str(value));
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return w.str();
}

}  // namespace

std::string handle_request_line(Service& service, std::string_view line) {
  support::JsonValue req;
  std::string json_error;
  if (!parse_json(line, &req, &json_error)) {
    return error_line("rt-bad-request: malformed JSON: " + json_error);
  }
  if (!req.is_object()) {
    return error_line("rt-bad-request: request is not an object");
  }
  const support::JsonValue* op = req.find("op");
  if (op == nullptr || !op->is_string()) {
    return error_line("rt-bad-request: missing 'op'");
  }

  if (op->string_value == "ping") {
    return "{\"ok\":true}";
  }
  if (op->string_value == "describe") {
    support::JsonWriter w(0);
    w.begin_object();
    w.key("ok").value(true);
    w.key("program").value(service.program().name());
    w.key("organization").value(service.program().artifact().organization);
    w.key("shards").value(service.shards());
    w.key("describe").value(service.program().describe());
    w.end_object();
    return w.str();
  }
  if (op->string_value == "stats") {
    support::JsonWriter w(0);
    w.begin_object();
    w.key("ok").value(true);
    w.key("stats").raw(service.stats_json());
    w.end_object();
    return w.str();
  }
  if (op->string_value == "telemetry") {
    support::JsonWriter w(0);
    w.begin_object();
    w.key("ok").value(true);
    w.key("telemetry").raw(service.telemetry_json());
    w.end_object();
    return w.str();
  }
  if (op->string_value == "open") {
    std::uint64_t session = service.open_session();
    support::JsonWriter w(0);
    w.begin_object();
    w.key("ok").value(true);
    w.key("session").value(session);
    w.end_object();
    return w.str();
  }

  std::uint64_t session = 0;
  std::string resp;
  if (!get_session(req, &session, &resp)) return resp;
  std::string tag;
  if (!get_tag(req, &tag, &resp)) return resp;

  if (op->string_value == "close") {
    return result_line(
        service.close_session(session, std::move(tag)).get(), false);
  }
  if (op->string_value == "produce") {
    const support::JsonValue* words = req.find("words");
    if (words == nullptr || !words->is_array()) {
      return error_line("rt-bad-request: 'produce' needs a 'words' array");
    }
    BufferHandle buf = service.buffers().allocate(words->elements.size());
    for (std::size_t i = 0; i < words->elements.size(); ++i) {
      const support::JsonValue& e = words->elements[i];
      std::uint64_t v = 0;
      if (!number_u64(e, &v) &&
          (!e.is_string() || !parse_u64(e.string_value, &v))) {
        return error_line(
            "rt-bad-request: 'words' entries must be decimal strings");
      }
      buf[i] = v;
    }
    return result_line(
        service.produce(session, std::move(buf), std::move(tag)).get(),
        false);
  }
  if (op->string_value == "run") {
    int passes = 0;
    const support::JsonValue* p = req.find("passes");
    if (p != nullptr) {
      if (!p->is_number() || !(p->number_value >= INT_MIN &&
                               p->number_value <= INT_MAX)) {
        return error_line("rt-bad-request: 'passes' must be an int");
      }
      passes = static_cast<int>(p->number_value);
    }
    return result_line(
        service.run(session, passes, std::move(tag)).get(), true);
  }
  if (op->string_value == "consume") {
    std::vector<std::string> names;
    const support::JsonValue* n = req.find("names");
    if (n != nullptr) {
      if (!n->is_array()) {
        return error_line("rt-bad-request: 'names' must be an array");
      }
      for (const support::JsonValue& e : n->elements) {
        if (!e.is_string()) {
          return error_line("rt-bad-request: 'names' entries must be strings");
        }
        names.push_back(e.string_value);
      }
    }
    return result_line(
        service.consume(session, std::move(names), std::move(tag)).get(),
        true);
  }
  return error_line("rt-bad-request: unknown op '" + op->string_value + "'");
}

// ---------------------------------------------------------------------------
// RemoteServer
// ---------------------------------------------------------------------------

RemoteServer::RemoteServer(Service& service, std::string socket_path)
    : service_(service), path_(std::move(socket_path)) {}

RemoteServer::~RemoteServer() { stop(); }

namespace {

/// Reads up to the next '\n' using `inbuf` as carry-over. False on EOF or
/// error with nothing buffered.
bool read_line(int fd, std::string* inbuf, std::string* line) {
  for (;;) {
    std::size_t nl = inbuf->find('\n');
    if (nl != std::string::npos) {
      *line = inbuf->substr(0, nl);
      inbuf->erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    inbuf->append(chunk, static_cast<std::size_t>(n));
  }
}

bool write_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool RemoteServer::start(std::string* error) {
  if (running_.load()) return true;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) {
      *error = "rt-socket-error: socket path too long: " + path_;
    }
    return false;
  }
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) {
      *error = std::string("rt-socket-error: socket(): ") +
               std::strerror(errno);
    }
    return false;
  }
  ::unlink(path_.c_str());  // stale socket from a previous run
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    if (error != nullptr) {
      *error = std::string("rt-socket-error: bind/listen on ") + path_ +
               ": " + std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  struct stat st {};
  if (::lstat(path_.c_str(), &st) == 0) {
    socket_dev_ = st.st_dev;
    socket_ino_ = st.st_ino;
  }
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void RemoteServer::accept_loop() {
  while (running_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) break;
      continue;
    }
    connections_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void RemoteServer::serve_connection(int fd) {
  std::string inbuf;
  std::string line;
  while (running_.load() && read_line(fd, &inbuf, &line)) {
    if (support::trim(line).empty()) continue;
    std::string resp = handle_request_line(service_, line);
    resp += '\n';
    if (!write_all(fd, resp)) break;
  }
  // Deregister before close so stop() can never shut down a recycled fd.
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
  }
  ::close(fd);
}

void RemoteServer::stop() {
  if (!running_.exchange(false)) return;
  // Closing the listener unblocks accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    // Kick every live connection out of its blocking read: without this a
    // client that is connected but idle would hang the join below until it
    // chose to disconnect. The owning thread still does the close().
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  // A newer server may have replaced the socket file since start().
  struct stat st {};
  if (::lstat(path_.c_str(), &st) == 0 && st.st_dev == socket_dev_ &&
      st.st_ino == socket_ino_) {
    ::unlink(path_.c_str());
  }
}

// ---------------------------------------------------------------------------
// RemoteClient
// ---------------------------------------------------------------------------

RemoteClient::~RemoteClient() { close(); }

bool RemoteClient::connect(const std::string& socket_path,
                           std::string* error) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) {
      *error = "rt-socket-error: socket path too long: " + socket_path;
    }
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error != nullptr) {
      *error = std::string("rt-socket-error: socket(): ") +
               std::strerror(errno);
    }
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = std::string("rt-socket-error: connect to ") + socket_path +
               ": " + std::strerror(errno);
    }
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

void RemoteClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

bool RemoteClient::call(const std::string& request, std::string* response,
                        std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = "rt-socket-error: not connected";
    return false;
  }
  std::string line = request;
  line += '\n';
  if (!write_all(fd_, line)) {
    if (error != nullptr) {
      *error = "rt-socket-error: write failed (server gone?)";
    }
    return false;
  }
  if (!read_line(fd_, &inbuf_, response)) {
    if (error != nullptr) {
      *error = "rt-socket-error: connection closed before response";
    }
    return false;
  }
  return true;
}


// ---- Typed wrappers (transport-independent). -----------------------------

namespace {

/// Parses a response line; false when transport or the service failed.
bool parse_response(const std::string& line, support::JsonValue* out,
                    std::string* error) {
  std::string json_error;
  if (!parse_json(line, out, &json_error)) {
    if (error != nullptr) {
      *error = "rt-bad-response: malformed JSON: " + json_error;
    }
    return false;
  }
  const support::JsonValue* ok = out->find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    if (error != nullptr) *error = "rt-bad-response: missing 'ok'";
    return false;
  }
  if (!ok->bool_value) {
    const support::JsonValue* e = out->find("error");
    if (error != nullptr) {
      *error = e != nullptr && e->is_string() ? e->string_value
                                              : "unknown server error";
    }
    return false;
  }
  return true;
}

}  // namespace

bool RemoteClient::ping(std::string* error) {
  std::string resp;
  support::JsonValue v;
  return call("{\"op\":\"ping\"}", &resp, error) &&
         parse_response(resp, &v, error);
}

bool RemoteClient::open_session(std::uint64_t* session, std::string* error) {
  std::string resp;
  support::JsonValue v;
  if (!call("{\"op\":\"open\"}", &resp, error) ||
      !parse_response(resp, &v, error)) {
    return false;
  }
  const support::JsonValue* s = v.find("session");
  if (s == nullptr || !s->is_number()) {
    if (error != nullptr) *error = "rt-bad-response: missing 'session'";
    return false;
  }
  *session = static_cast<std::uint64_t>(s->number_value);
  return true;
}

namespace {

/// `,"tag":"..."` fragment for string-built requests ("" when untagged).
std::string tag_fragment(const std::string& tag) {
  if (tag.empty()) return "";
  return ",\"tag\":\"" + support::json_escape(tag) + "\"";
}

}  // namespace

bool RemoteClient::close_session(std::uint64_t session, std::string* error) {
  std::string resp;
  support::JsonValue v;
  return call(support::format("{\"op\":\"close\",\"session\":%llu%s}",
                              static_cast<unsigned long long>(session),
                              tag_fragment(tag_).c_str()),
              &resp, error) &&
         parse_response(resp, &v, error);
}

bool RemoteClient::produce(std::uint64_t session,
                           const std::vector<std::uint64_t>& words,
                           std::string* error) {
  support::JsonWriter w(0);
  w.begin_object();
  w.key("op").value("produce");
  w.key("session").value(session);
  if (!tag_.empty()) w.key("tag").value(tag_);
  w.key("words").begin_array();
  for (std::uint64_t word : words) w.value(u64_str(word));
  w.end_array();
  w.end_object();
  std::string resp;
  support::JsonValue v;
  return call(w.str(), &resp, error) && parse_response(resp, &v, error);
}

bool RemoteClient::run(std::uint64_t session, int passes, RunInfo* info,
                       std::string* error) {
  std::string resp;
  support::JsonValue v;
  if (!call(support::format(
                "{\"op\":\"run\",\"session\":%llu,\"passes\":%d%s}",
                static_cast<unsigned long long>(session), passes,
                tag_fragment(tag_).c_str()),
            &resp, error) ||
      !parse_response(resp, &v, error)) {
    return false;
  }
  if (info != nullptr) {
    const support::JsonValue* c = v.find("converged");
    const support::JsonValue* cy = v.find("cycles");
    const support::JsonValue* ro = v.find("rounds");
    const support::JsonValue* sh = v.find("shard");
    info->converged = c != nullptr && c->is_bool() && c->bool_value;
    info->cycles = cy != nullptr && cy->is_number()
                       ? static_cast<std::uint64_t>(cy->number_value)
                       : 0;
    info->rounds = ro != nullptr && ro->is_number()
                       ? static_cast<std::uint64_t>(ro->number_value)
                       : 0;
    info->shard = sh != nullptr && sh->is_number()
                      ? static_cast<int>(sh->number_value)
                      : -1;
  }
  return true;
}

bool RemoteClient::consume(
    std::uint64_t session, const std::vector<std::string>& names,
    std::vector<std::pair<std::string, std::uint64_t>>* registers,
    std::string* error) {
  support::JsonWriter w(0);
  w.begin_object();
  w.key("op").value("consume");
  w.key("session").value(session);
  if (!tag_.empty()) w.key("tag").value(tag_);
  w.key("names").begin_array();
  for (const std::string& n : names) w.value(n);
  w.end_array();
  w.end_object();
  std::string resp;
  support::JsonValue v;
  if (!call(w.str(), &resp, error) || !parse_response(resp, &v, error)) {
    return false;
  }
  if (registers != nullptr) {
    registers->clear();
    const support::JsonValue* regs = v.find("registers");
    if (regs == nullptr || !regs->is_array()) {
      if (error != nullptr) *error = "rt-bad-response: missing 'registers'";
      return false;
    }
    for (const support::JsonValue& e : regs->elements) {
      const support::JsonValue* name = e.find("name");
      const support::JsonValue* value = e.find("value");
      std::uint64_t parsed = 0;
      if (name == nullptr || !name->is_string() || value == nullptr ||
          !value->is_string() || !parse_u64(value->string_value, &parsed)) {
        if (error != nullptr) {
          *error = "rt-bad-response: malformed register entry";
        }
        return false;
      }
      registers->emplace_back(name->string_value, parsed);
    }
  }
  return true;
}

namespace {

/// Re-renders a parsed subtree compactly (one line, no indent).
void render_compact(const support::JsonValue& node, support::JsonWriter& w) {
  switch (node.kind) {
    case support::JsonValue::Kind::Null: w.value_null(); break;
    case support::JsonValue::Kind::Bool: w.value(node.bool_value); break;
    case support::JsonValue::Kind::Number: w.value(node.number_value); break;
    case support::JsonValue::Kind::String: w.value(node.string_value); break;
    case support::JsonValue::Kind::Array:
      w.begin_array();
      for (const auto& e : node.elements) render_compact(e, w);
      w.end_array();
      break;
    case support::JsonValue::Kind::Object:
      w.begin_object();
      for (const auto& [k, val] : node.members) {
        w.key(k);
        render_compact(val, w);
      }
      w.end_object();
      break;
  }
}

/// Shared body of stats()/telemetry(): call `op`, extract `field` and
/// re-render it compactly into *json.
bool fetch_subtree(RemoteClient& client, const char* op, const char* field,
                   std::string* json, std::string* error) {
  std::string resp;
  support::JsonValue v;
  if (!client.call(support::format("{\"op\":\"%s\"}", op), &resp, error) ||
      !parse_response(resp, &v, error)) {
    return false;
  }
  const support::JsonValue* s = v.find(field);
  if (s == nullptr) {
    if (error != nullptr) {
      *error = support::format("rt-bad-response: missing '%s'", field);
    }
    return false;
  }
  support::JsonWriter w(0);
  render_compact(*s, w);
  *json = w.str();
  return true;
}

}  // namespace

bool RemoteClient::stats(std::string* json, std::string* error) {
  return fetch_subtree(*this, "stats", "stats", json, error);
}

bool RemoteClient::telemetry(std::string* json, std::string* error) {
  return fetch_subtree(*this, "telemetry", "telemetry", json, error);
}

bool RemoteClient::describe(std::string* text, std::string* error) {
  std::string resp;
  support::JsonValue v;
  if (!call("{\"op\":\"describe\"}", &resp, error) ||
      !parse_response(resp, &v, error)) {
    return false;
  }
  const support::JsonValue* d = v.find("describe");
  if (d == nullptr || !d->is_string()) {
    if (error != nullptr) *error = "rt-bad-response: missing 'describe'";
    return false;
  }
  *text = d->string_value;
  return true;
}

}  // namespace hicsync::rt
