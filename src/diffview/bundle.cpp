#include "diffview/bundle.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cover/db.h"
#include "support/strings.h"

namespace hicsync::diffview {

namespace {

bool parse_kind(std::string_view s, trace::EventKind* out) {
  using trace::EventKind;
  static constexpr EventKind kAll[] = {
      EventKind::PortRequest,  EventKind::PortGrant,
      EventKind::PortStall,    EventKind::ArbWin,
      EventKind::SlotAdvance,  EventKind::Produce,
      EventKind::Consume,      EventKind::RoundComplete,
      EventKind::FsmState,     EventKind::ThreadBlock,
      EventKind::ThreadUnblock, EventKind::PassComplete,
  };
  for (EventKind k : kAll) {
    if (s == trace::to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

bool parse_cause(std::string_view s, trace::StallCause* out) {
  using trace::StallCause;
  static constexpr StallCause kAll[] = {
      StallCause::None,       StallCause::ArbitrationLoss,
      StallCause::DependencyNotProduced, StallCause::NotOurSlot,
      StallCause::PortABusy,  StallCause::DataWait,
  };
  for (StallCause c : kAll) {
    if (s == trace::to_string(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

bool parse_port(std::string_view s, trace::PortKind* out) {
  using trace::PortKind;
  static constexpr PortKind kAll[] = {PortKind::None, PortKind::A,
                                      PortKind::B, PortKind::C, PortKind::D};
  for (PortKind p : kAll) {
    if (s == trace::to_string(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

double number_or(const support::JsonValue& obj, std::string_view key,
                 double fallback) {
  const support::JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->number_value : fallback;
}

std::string string_or(const support::JsonValue& obj, std::string_view key,
                      const std::string& fallback = "") {
  const support::JsonValue* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->string_value : fallback;
}

bool bool_or(const support::JsonValue& obj, std::string_view key,
             bool fallback) {
  const support::JsonValue* v = obj.find(key);
  return v != nullptr && v->is_bool() ? v->bool_value : fallback;
}

bool write_file(const std::filesystem::path& path, const std::string& body,
                std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot write '" + path.string() + "'";
    return false;
  }
  out << body;
  return true;
}

bool read_file(const std::filesystem::path& path, std::string* body) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *body = ss.str();
  return true;
}

}  // namespace

std::string CapturedEvent::str() const {
  std::string out = support::format(
      "cycle %llu %s", static_cast<unsigned long long>(cycle),
      trace::to_string(kind));
  if (controller >= 0) {
    out += support::format(" bram%d", controller);
    if (port != trace::PortKind::None) {
      out += " ";
      out += trace::to_string(port);
      if (pseudo_port >= 0 && port != trace::PortKind::A) {
        out += std::to_string(pseudo_port);
      }
    }
  }
  if (cause != trace::StallCause::None) {
    out += support::format(" cause=%s", trace::to_string(cause));
  }
  if (!thread.empty()) out += " thread=" + thread;
  if (!dep.empty()) out += " dep=" + dep;
  if (value >= 0) {
    out += support::format(" value=%lld", static_cast<long long>(value));
  }
  return out;
}

void BundleCaptureSink::on_event(const trace::Event& e) {
  CapturedEvent c;
  c.cycle = e.cycle;
  c.kind = e.kind;
  c.port = e.port;
  c.cause = e.cause;
  c.controller = e.controller;
  c.pseudo_port = e.pseudo_port;
  c.value = e.value;
  c.thread = std::string(e.thread);
  c.dep = std::string(e.dep);
  events_.push_back(std::move(c));
}

std::string BundleCaptureSink::events_jsonl() const {
  std::string out;
  for (const CapturedEvent& e : events_) {
    out += support::format("{\"cycle\":%llu,\"kind\":\"%s\"",
                           static_cast<unsigned long long>(e.cycle),
                           trace::to_string(e.kind));
    if (e.port != trace::PortKind::None) {
      out += support::format(",\"port\":\"%s\"", trace::to_string(e.port));
    }
    if (e.cause != trace::StallCause::None) {
      out += support::format(",\"cause\":\"%s\"", trace::to_string(e.cause));
    }
    if (e.controller >= 0) {
      out += support::format(",\"controller\":%d", e.controller);
    }
    if (e.pseudo_port >= 0) {
      out += support::format(",\"pseudo_port\":%d", e.pseudo_port);
    }
    if (e.value != -1) {
      out += support::format(",\"value\":%lld",
                             static_cast<long long>(e.value));
    }
    if (!e.thread.empty()) {
      out += ",\"thread\":\"" + support::json_escape(e.thread) + "\"";
    }
    if (!e.dep.empty()) {
      out += ",\"dep\":\"" + support::json_escape(e.dep) + "\"";
    }
    out += "}\n";
  }
  return out;
}

std::string Manifest::to_json() const {
  support::JsonWriter w(/*indent=*/2);
  w.begin_object();
  w.key("schema").value(schema);
  w.key("run_id").value(run_id);
  w.key("program").value(program);
  w.key("source_digest").value(source_digest);
  w.key("organization").value(organization);
  w.key("use_cam").value(use_cam);
  w.key("chain").value(chain);
  w.key("infer").value(infer);
  w.key("passes").value(passes);
  w.key("max_cycles").value(max_cycles);
  w.key("cycles").value(cycles);
  w.key("converged").value(converged);
  w.key("areas").begin_array();
  for (const AreaRow& a : areas) {
    w.begin_object();
    w.key("bram").value(a.bram_id);
    w.key("module").value(a.module_name);
    w.key("luts").value(a.luts);
    w.key("ffs").value(a.ffs);
    w.key("slices").value(a.slices);
    w.key("fmax_mhz").value(a.fmax_mhz);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool Manifest::from_json(const support::JsonValue& v, Manifest* out,
                         std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (!v.is_object()) return fail("manifest is not a JSON object");
  const int schema = static_cast<int>(number_or(v, "schema", -1));
  if (schema != kBundleSchemaVersion) {
    return fail(support::format("manifest schema %d (this tool reads %d)",
                                schema, kBundleSchemaVersion));
  }
  Manifest m;
  m.schema = schema;
  m.run_id = string_or(v, "run_id");
  m.program = string_or(v, "program");
  m.source_digest = string_or(v, "source_digest");
  m.organization = string_or(v, "organization");
  if (m.organization.empty()) return fail("manifest lacks 'organization'");
  m.use_cam = bool_or(v, "use_cam", true);
  m.chain = bool_or(v, "chain", false);
  m.infer = bool_or(v, "infer", false);
  m.passes = static_cast<int>(number_or(v, "passes", 1));
  m.max_cycles = static_cast<std::uint64_t>(number_or(v, "max_cycles", 0));
  m.cycles = static_cast<std::uint64_t>(number_or(v, "cycles", 0));
  m.converged = bool_or(v, "converged", false);
  if (const support::JsonValue* areas = v.find("areas");
      areas != nullptr && areas->is_array()) {
    for (const support::JsonValue& a : areas->elements) {
      if (!a.is_object()) return fail("malformed area row in manifest");
      AreaRow row;
      row.bram_id = static_cast<int>(number_or(a, "bram", -1));
      row.module_name = string_or(a, "module");
      row.luts = static_cast<int>(number_or(a, "luts", 0));
      row.ffs = static_cast<int>(number_or(a, "ffs", 0));
      row.slices = static_cast<int>(number_or(a, "slices", 0));
      row.fmax_mhz = number_or(a, "fmax_mhz", 0.0);
      m.areas.push_back(std::move(row));
    }
  }
  *out = std::move(m);
  return true;
}

bool parse_events_jsonl(std::string_view text,
                        std::vector<CapturedEvent>* out, std::string* error) {
  std::vector<support::JsonValue> lines;
  if (!support::parse_jsonl(text, &lines, error)) return false;
  out->clear();
  out->reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const support::JsonValue& v = lines[i];
    auto fail = [&](const std::string& msg) {
      if (error != nullptr) {
        *error = support::format("event %zu: %s", i + 1, msg.c_str());
      }
      return false;
    };
    if (!v.is_object()) return fail("not a JSON object");
    CapturedEvent e;
    e.cycle = static_cast<std::uint64_t>(number_or(v, "cycle", 0));
    if (!parse_kind(string_or(v, "kind"), &e.kind)) {
      return fail("unknown kind '" + string_or(v, "kind") + "'");
    }
    if (const support::JsonValue* p = v.find("port"); p != nullptr) {
      if (!p->is_string() || !parse_port(p->string_value, &e.port)) {
        return fail("bad port");
      }
    }
    if (const support::JsonValue* c = v.find("cause"); c != nullptr) {
      if (!c->is_string() || !parse_cause(c->string_value, &e.cause)) {
        return fail("bad cause");
      }
    }
    e.controller = static_cast<int>(number_or(v, "controller", -1));
    e.pseudo_port = static_cast<int>(number_or(v, "pseudo_port", -1));
    e.value = static_cast<std::int64_t>(number_or(v, "value", -1));
    e.thread = string_or(v, "thread");
    e.dep = string_or(v, "dep");
    out->push_back(std::move(e));
  }
  return true;
}

bool write_bundle(const std::string& dir, const std::string& manifest_json,
                  const std::string& events_jsonl,
                  const std::string& metrics_json,
                  const std::string& cover_record, std::string* error) {
  std::error_code ec;
  std::filesystem::path root(dir);
  std::filesystem::create_directories(root, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create '" + dir + "': " + ec.message();
    }
    return false;
  }
  if (!write_file(root / "manifest.json", manifest_json, error)) return false;
  if (!write_file(root / "events.jsonl", events_jsonl, error)) return false;
  if (!write_file(root / "metrics.json", metrics_json, error)) return false;
  if (!cover_record.empty() &&
      !write_file(root / "cover.jsonl", cover_record + "\n", error)) {
    return false;
  }
  return true;
}

bool load_bundle(const std::string& dir, Bundle* out, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = dir + ": " + msg;
    return false;
  };
  Bundle b;
  b.dir = dir;

  std::string text;
  std::filesystem::path root(dir);
  if (!read_file(root / "manifest.json", &text)) {
    return fail("cannot read manifest.json (not a bundle directory?)");
  }
  support::JsonValue manifest;
  std::string perr;
  if (!support::parse_json(text, &manifest, &perr)) {
    return fail("manifest.json: " + perr);
  }
  if (!Manifest::from_json(manifest, &b.manifest, &perr)) {
    return fail(perr);
  }

  if (!read_file(root / "events.jsonl", &text)) {
    return fail("cannot read events.jsonl");
  }
  if (!parse_events_jsonl(text, &b.events, &perr)) {
    return fail("events.jsonl: " + perr);
  }

  if (read_file(root / "metrics.json", &text) && !text.empty()) {
    if (!support::parse_json(text, &b.metrics, &perr)) {
      return fail("metrics.json: " + perr);
    }
  }

  if (read_file(root / "cover.jsonl", &text) && !text.empty()) {
    int records = 0;
    if (!cover::load_records(text, &b.coverage, &perr, &records)) {
      return fail("cover.jsonl: " + perr);
    }
    b.has_coverage = records > 0;
  }

  *out = std::move(b);
  return true;
}

std::string digest_hex(std::string_view bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(support::fnv1a64(bytes)));
  return std::string(buf);
}

}  // namespace hicsync::diffview
