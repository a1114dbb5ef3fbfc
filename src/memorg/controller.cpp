#include "memorg/controller.h"

#include "memorg/arbitrated.h"
#include "memorg/eventdriven.h"

namespace hicsync::memorg {

const char* to_string(OrgKind k) {
  switch (k) {
    case OrgKind::Arbitrated: return "arbitrated";
    case OrgKind::EventDriven: return "event-driven";
  }
  return "unknown";
}

bool parse_org(std::string_view name, OrgKind* out, std::string* error) {
  for (OrgKind k : {OrgKind::Arbitrated, OrgKind::EventDriven}) {
    if (name == to_string(k)) {
      *out = k;
      return true;
    }
  }
  *error = "unknown organization '" + std::string(name) + "'";
  return false;
}

GeneratedController build_controller(rtl::Design& design,
                                     const memalloc::BramInstance& bram,
                                     const memalloc::BramPortPlan& plan,
                                     const ControllerOptions& options,
                                     const memalloc::DepListHint* hint) {
  GeneratedController c;
  c.organization = options.organization;
  if (hint != nullptr) {
    memalloc::PrunedBram pruned =
        memalloc::apply_dep_list_hint(bram, plan, *hint);
    c.bram = std::move(pruned.bram);
    c.plan = std::move(pruned.plan);
    c.pruned_deps = pruned.removed_deps;
    c.pruned_ports =
        pruned.removed_consumer_ports + pruned.removed_producer_ports;
  } else {
    c.bram = bram;
    c.plan = plan;
  }

  const std::string name = "memorg_bram" + std::to_string(bram.id);
  if (options.organization == OrgKind::Arbitrated) {
    ArbitratedConfig cfg = arbitrated_config_from(c.bram, c.plan);
    cfg.use_cam = options.use_cam;
    ControllerModule generated = generate_arbitrated(design, cfg, name);
    c.module = &generated.module;
    c.ports = std::move(generated.ports);
    c.entries = std::move(cfg.deps);
  } else {
    EventDrivenConfig cfg = eventdriven_config_from(c.bram, c.plan);
    ControllerModule generated = generate_eventdriven(design, cfg, name);
    c.module = &generated.module;
    c.ports = std::move(generated.ports);
    c.entries = std::move(cfg.deps);
  }
  return c;
}

std::vector<GeneratedController> build_controllers(
    rtl::Design& design, const memalloc::MemoryMap& map,
    const std::vector<memalloc::BramPortPlan>& plans,
    const ControllerOptions& options) {
  std::vector<GeneratedController> out;
  for (const memalloc::BramInstance& bram : map.brams()) {
    for (const memalloc::BramPortPlan& plan : plans) {
      if (plan.bram_id != bram.id) continue;
      out.push_back(build_controller(design, bram, plan, options));
      break;
    }
  }
  return out;
}

}  // namespace hicsync::memorg
