#include "rt/artifact.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/compiler.h"
#include "hic/sema.h"
#include "memalloc/sizing.h"
#include "support/json.h"
#include "support/strings.h"

namespace hicsync::rt {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// Index of the first row where `a` and `b` differ.
template <typename Row>
std::size_t first_mismatch(const std::vector<Row>& a,
                           const std::vector<Row>& b) {
  return static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
      a.begin());
}

}  // namespace

std::string sema_digest(const hic::Sema& sema) {
  // Canonical rendering: every declared symbol (qualified name, width,
  // element count, residency class) in declaration order, then every bound
  // dependency with its consumer list in program order. This pins exactly
  // the facts the stored memory map and port plans refer to.
  std::string canon;
  for (const hic::Symbol* sym : sema.all_symbols()) {
    canon += support::format(
        "sym %s w%d n%llu %s\n", sym->qualified_name().c_str(),
        sym->type()->bit_width(),
        static_cast<unsigned long long>(sym->element_count()),
        memalloc::is_memory_resident(*sym) ? "mem" : "reg");
  }
  for (const hic::Dependency& dep : sema.dependencies()) {
    canon += support::format("dep %s %s %s ->", dep.id.c_str(),
                             dep.producer_thread.c_str(),
                             dep.shared_var->qualified_name().c_str());
    for (const hic::DepConsumer& c : dep.consumers) {
      canon += " " + c.thread + "." + c.dest->name();
    }
    canon += '\n';
  }
  return hex64(support::fnv1a64(canon));
}

ArtifactDecisions encode_decisions(
    const memalloc::MemoryMap& map,
    const std::vector<memalloc::BramPortPlan>& plans) {
  auto ids = [](const std::vector<const hic::Dependency*>& deps) {
    std::vector<std::string> out;
    for (const hic::Dependency* dep : deps) out.push_back(dep->id);
    return out;
  };
  ArtifactDecisions d;
  for (const memalloc::BramInstance& b : map.brams()) {
    ArtifactBram& ab = d.brams.emplace_back(
        ArtifactBram{b.id, b.shape.width, b.shape.depth, b.primitives, {},
                     ids(b.dependencies)});
    for (const memalloc::Placement& p : b.placements) {
      ab.placements.push_back({p.symbol->thread(), p.symbol->name(),
                               p.base_address, p.words});
    }
  }
  for (const hic::Symbol* r : map.registers()) {
    d.registers.push_back(r->qualified_name());
  }
  for (const memalloc::BramPortPlan& plan : plans) {
    ArtifactPortPlan& ap =
        d.plans.emplace_back(ArtifactPortPlan{plan.bram_id, {}});
    for (const memalloc::PortClient& c : plan.clients) {
      ap.clients.push_back({c.thread, memalloc::to_string(c.port),
                            c.pseudo_port, ids(c.deps)});
    }
  }
  return d;
}

std::string first_difference(const ArtifactDecisions& recorded,
                             const ArtifactDecisions& rebuilt) {
  if (recorded.brams != rebuilt.brams) {
    return support::format(
        "memory_map.brams[%zu] differs from the rebuilt memory map",
        first_mismatch(recorded.brams, rebuilt.brams));
  }
  if (recorded.registers != rebuilt.registers) {
    return "memory_map.registers differs from the rebuilt memory map";
  }
  if (recorded.plans != rebuilt.plans) {
    return support::format(
        "port_plans[%zu] differs from the rebuilt port plans",
        first_mismatch(recorded.plans, rebuilt.plans));
  }
  return {};
}

std::string emit_artifact(const core::CompileResult& result,
                          std::string_view source) {
  const core::CompileOptions& opt = result.options();
  const ArtifactDecisions decisions =
      encode_decisions(result.memory_map(), result.port_plans());
  support::JsonWriter w(0);
  w.begin_object();
  w.key("schema").value("hicbin-v1");
  w.key("source_name").value(opt.source_name);
  w.key("source").value(source);
  w.key("organization").value(sim::to_string(opt.organization));
  w.key("use_cam").value(opt.use_cam);
  w.key("chain").value(opt.schedule.chain_states);
  w.key("infer_dependencies").value(opt.infer_dependencies);
  w.key("target_clock_mhz").value(opt.target_clock_mhz);
  w.key("sema_digest").value(sema_digest(result.sema()));

  w.key("memory_map").begin_object();
  w.key("brams").begin_array();
  for (const ArtifactBram& b : decisions.brams) {
    w.begin_object();
    w.key("id").value(b.id);
    w.key("width").value(b.width);
    w.key("depth").value(b.depth);
    w.key("primitives").value(b.primitives);
    w.key("placements").begin_array();
    for (const ArtifactPlacement& p : b.placements) {
      w.begin_object();
      w.key("thread").value(p.thread);
      w.key("var").value(p.var);
      w.key("base").value(static_cast<std::int64_t>(p.base_address));
      w.key("words").value(static_cast<std::int64_t>(p.words));
      w.end_object();
    }
    w.end_array();
    w.key("deps").begin_array();
    for (const std::string& dep : b.deps) w.value(dep);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("registers").begin_array();
  for (const std::string& r : decisions.registers) w.value(r);
  w.end_array();
  w.end_object();  // memory_map

  w.key("port_plans").begin_array();
  for (const ArtifactPortPlan& plan : decisions.plans) {
    w.begin_object();
    w.key("bram").value(plan.bram_id);
    w.key("clients").begin_array();
    for (const ArtifactPortClient& c : plan.clients) {
      w.begin_object();
      w.key("thread").value(c.thread);
      w.key("port").value(c.port);
      w.key("pseudo_port").value(c.pseudo_port);
      w.key("deps").begin_array();
      for (const std::string& dep : c.deps) w.value(dep);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("controllers").begin_array();
  for (const core::BramReport& r : result.bram_reports()) {
    w.begin_object();
    w.key("module").value(r.module_name);
    w.key("consumers").value(r.consumers);
    w.key("producers").value(r.producers);
    w.key("dependencies").value(r.dependencies);
    w.key("luts").value(r.area.luts);
    w.key("ffs").value(r.area.ffs);
    w.key("slices").value(r.area.slices);
    w.key("fmax_mhz").value(r.timing.fmax_mhz);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  const std::string& payload = w.str();
  std::string out = support::format(
      "%s %d %llu %s\n", kArtifactMagic, kArtifactVersion,
      static_cast<unsigned long long>(payload.size()),
      hex64(support::fnv1a64(payload)).c_str());
  out += payload;
  return out;
}

namespace {

// ---- Checked JSON field extraction. `where` names the context for the
// rt-corrupt message; every helper returns false with `error` filled.

bool fail(ArtifactError* error, const std::string& code,
          const std::string& message) {
  if (error != nullptr) {
    error->code = code;
    error->message = message;
  }
  return false;
}

bool corrupt(ArtifactError* error, const std::string& message) {
  return fail(error, "rt-corrupt", message);
}

const support::JsonValue* need(const support::JsonValue& obj,
                               const char* key, const char* where,
                               ArtifactError* error) {
  const support::JsonValue* v = obj.find(key);
  if (v == nullptr) {
    corrupt(error, support::format("missing field '%s' in %s", key, where));
  }
  return v;
}

bool get_string(const support::JsonValue& obj, const char* key,
                const char* where, std::string* out, ArtifactError* error) {
  const support::JsonValue* v = need(obj, key, where, error);
  if (v == nullptr) return false;
  if (!v->is_string()) {
    return corrupt(error,
                   support::format("field '%s' in %s is not a string", key,
                                   where));
  }
  *out = v->string_value;
  return true;
}

bool get_bool(const support::JsonValue& obj, const char* key,
              const char* where, bool* out, ArtifactError* error) {
  const support::JsonValue* v = need(obj, key, where, error);
  if (v == nullptr) return false;
  if (!v->is_bool()) {
    return corrupt(error, support::format("field '%s' in %s is not a bool",
                                          key, where));
  }
  *out = v->bool_value;
  return true;
}

bool get_number(const support::JsonValue& obj, const char* key,
                const char* where, double* out, ArtifactError* error) {
  const support::JsonValue* v = need(obj, key, where, error);
  if (v == nullptr) return false;
  if (!v->is_number()) {
    return corrupt(error, support::format("field '%s' in %s is not a number",
                                          key, where));
  }
  *out = v->number_value;
  return true;
}

/// An integer field that fits T. The range test runs on the double:
/// converting one outside T's range is undefined behaviour.
template <typename T>
bool get_int(const support::JsonValue& obj, const char* key,
             const char* where, T* out, ArtifactError* error) {
  double d = 0.0;
  if (!get_number(obj, key, where, &d, error)) return false;
  constexpr auto lo = static_cast<long long>(std::numeric_limits<T>::min());
  constexpr auto hi = static_cast<long long>(std::numeric_limits<T>::max());
  if (!(d >= static_cast<double>(lo) && d <= static_cast<double>(hi)) ||
      d != std::floor(d)) {
    return corrupt(error, support::format(
                              "field '%s' in %s is not an integer in "
                              "[%lld, %lld]",
                              key, where, lo, hi));
  }
  *out = static_cast<T>(d);
  return true;
}

const support::JsonValue* need_array(const support::JsonValue& obj,
                                     const char* key, const char* where,
                                     ArtifactError* error) {
  const support::JsonValue* v = need(obj, key, where, error);
  if (v == nullptr) return nullptr;
  if (!v->is_array()) {
    corrupt(error, support::format("field '%s' in %s is not an array", key,
                                   where));
    return nullptr;
  }
  return v;
}

bool get_string_array(const support::JsonValue& obj, const char* key,
                      const char* where, std::vector<std::string>* out,
                      ArtifactError* error) {
  const support::JsonValue* v = need_array(obj, key, where, error);
  if (v == nullptr) return false;
  for (const support::JsonValue& e : v->elements) {
    if (!e.is_string()) {
      return corrupt(error,
                     support::format("element of '%s' in %s is not a string",
                                     key, where));
    }
    out->push_back(e.string_value);
  }
  return true;
}

}  // namespace

bool parse_artifact(std::string_view bytes, Artifact* out,
                    ArtifactError* error) {
  // ---- Frame: "HICBIN <version> <bytes> <digest>\n".
  std::size_t nl = bytes.find('\n');
  if (nl == std::string_view::npos) {
    return fail(error, "rt-bad-magic", "no header line (not a hicbin file)");
  }
  std::string header(bytes.substr(0, nl));
  std::vector<std::string> fields = support::split(header, ' ');
  if (fields.size() != 4 || fields[0] != kArtifactMagic) {
    return fail(error, "rt-bad-magic",
                "bad magic: expected 'HICBIN <version> <bytes> <digest>'");
  }
  int version = 0;
  unsigned long long declared = 0;
  if (std::sscanf(fields[1].c_str(), "%d", &version) != 1 ||
      std::sscanf(fields[2].c_str(), "%llu", &declared) != 1) {
    return fail(error, "rt-bad-magic", "unparsable header fields");
  }
  if (version != kArtifactVersion) {
    return fail(error, "rt-version-skew",
                support::format("artifact version %d, runtime expects %d",
                                version, kArtifactVersion));
  }
  std::string_view payload = bytes.substr(nl + 1);
  if (payload.size() < declared) {
    return fail(
        error, "rt-truncated",
        support::format("payload is %llu bytes, header declares %llu",
                        static_cast<unsigned long long>(payload.size()),
                        declared));
  }
  if (payload.size() > declared) {
    return corrupt(error, support::format(
                              "%llu trailing bytes after declared payload",
                              static_cast<unsigned long long>(payload.size() -
                                                              declared)));
  }
  if (hex64(support::fnv1a64(payload)) != fields[3]) {
    return corrupt(error, "payload digest mismatch (artifact is corrupt)");
  }

  // ---- Payload.
  support::JsonValue root;
  std::string json_error;
  if (!parse_json(payload, &root, &json_error)) {
    return corrupt(error, "malformed payload JSON: " + json_error);
  }
  if (!root.is_object()) {
    return corrupt(error, "payload is not a JSON object");
  }

  Artifact art;
  art.version = version;
  std::string schema;
  if (!get_string(root, "schema", "payload", &schema, error)) return false;
  if (schema != "hicbin-v1") {
    return corrupt(error, "unknown payload schema '" + schema + "'");
  }
  if (!get_string(root, "source_name", "payload", &art.source_name, error) ||
      !get_string(root, "source", "payload", &art.source, error) ||
      !get_string(root, "organization", "payload", &art.organization,
                  error) ||
      !get_bool(root, "use_cam", "payload", &art.use_cam, error) ||
      !get_bool(root, "chain", "payload", &art.chain, error) ||
      !get_bool(root, "infer_dependencies", "payload",
                &art.infer_dependencies, error) ||
      !get_number(root, "target_clock_mhz", "payload", &art.target_clock_mhz,
                  error) ||
      !get_string(root, "sema_digest", "payload", &art.sema_digest, error)) {
    return false;
  }
  sim::OrgKind org = sim::OrgKind::Arbitrated;
  std::string org_error;
  if (!sim::parse_org(art.organization, &org, &org_error)) {
    return corrupt(error, org_error);
  }

  const support::JsonValue* map = need(root, "memory_map", "payload", error);
  if (map == nullptr) return false;
  if (!map->is_object()) {
    return corrupt(error, "'memory_map' is not an object");
  }
  const support::JsonValue* brams =
      need_array(*map, "brams", "memory_map", error);
  if (brams == nullptr) return false;
  for (const support::JsonValue& bj : brams->elements) {
    if (!bj.is_object()) {
      return corrupt(error, "bram entry is not an object");
    }
    ArtifactBram b;
    if (!get_int(bj, "id", "bram", &b.id, error) ||
        !get_int(bj, "width", "bram", &b.width, error) ||
        !get_int(bj, "depth", "bram", &b.depth, error) ||
        !get_int(bj, "primitives", "bram", &b.primitives, error) ||
        !get_string_array(bj, "deps", "bram", &b.deps, error)) {
      return false;
    }
    const support::JsonValue* placements =
        need_array(bj, "placements", "bram", error);
    if (placements == nullptr) return false;
    for (const support::JsonValue& pj : placements->elements) {
      if (!pj.is_object()) {
        return corrupt(error, "placement entry is not an object");
      }
      ArtifactPlacement p;
      if (!get_string(pj, "thread", "placement", &p.thread, error) ||
          !get_string(pj, "var", "placement", &p.var, error) ||
          !get_int(pj, "base", "placement", &p.base_address, error) ||
          !get_int(pj, "words", "placement", &p.words, error)) {
        return false;
      }
      b.placements.push_back(std::move(p));
    }
    art.decisions.brams.push_back(std::move(b));
  }
  if (!get_string_array(*map, "registers", "memory_map",
                        &art.decisions.registers, error)) {
    return false;
  }

  const support::JsonValue* plans =
      need_array(root, "port_plans", "payload", error);
  if (plans == nullptr) return false;
  for (const support::JsonValue& pj : plans->elements) {
    if (!pj.is_object()) {
      return corrupt(error, "port plan entry is not an object");
    }
    ArtifactPortPlan plan;
    if (!get_int(pj, "bram", "port_plan", &plan.bram_id, error)) return false;
    const support::JsonValue* clients =
        need_array(pj, "clients", "port_plan", error);
    if (clients == nullptr) return false;
    for (const support::JsonValue& cj : clients->elements) {
      if (!cj.is_object()) {
        return corrupt(error, "port client entry is not an object");
      }
      ArtifactPortClient c;
      if (!get_string(cj, "thread", "port_client", &c.thread, error) ||
          !get_string(cj, "port", "port_client", &c.port, error) ||
          !get_int(cj, "pseudo_port", "port_client", &c.pseudo_port,
                   error) ||
          !get_string_array(cj, "deps", "port_client", &c.deps, error)) {
        return false;
      }
      plan.clients.push_back(std::move(c));
    }
    art.decisions.plans.push_back(std::move(plan));
  }

  const support::JsonValue* controllers =
      need_array(root, "controllers", "payload", error);
  if (controllers == nullptr) return false;
  for (const support::JsonValue& cj : controllers->elements) {
    if (!cj.is_object()) {
      return corrupt(error, "controller entry is not an object");
    }
    ArtifactController c;
    if (!get_string(cj, "module", "controller", &c.module, error) ||
        !get_int(cj, "consumers", "controller", &c.consumers, error) ||
        !get_int(cj, "producers", "controller", &c.producers, error) ||
        !get_int(cj, "dependencies", "controller", &c.dependencies, error) ||
        !get_int(cj, "luts", "controller", &c.luts, error) ||
        !get_int(cj, "ffs", "controller", &c.ffs, error) ||
        !get_int(cj, "slices", "controller", &c.slices, error) ||
        !get_number(cj, "fmax_mhz", "controller", &c.fmax_mhz, error)) {
      return false;
    }
    art.controllers.push_back(std::move(c));
  }

  *out = std::move(art);
  if (error != nullptr) *error = ArtifactError{};
  return true;
}

}  // namespace hicsync::rt
