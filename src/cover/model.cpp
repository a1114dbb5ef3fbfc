#include "cover/model.h"

#include <algorithm>

namespace hicsync::cover {

void Covergroup::declare(const std::string& bin) {
  if (index_.count(bin) != 0) return;
  index_.emplace(bin, bins_.size());
  bins_.push_back(CoverBin{bin, 0});
}

bool Covergroup::hit(const std::string& bin, std::uint64_t n) {
  auto it = index_.find(bin);
  if (it == index_.end()) {
    unexpected_ += n;
    return false;
  }
  bins_[it->second].hits += n;
  return true;
}

const CoverBin* Covergroup::find(const std::string& bin) const {
  auto it = index_.find(bin);
  return it == index_.end() ? nullptr : &bins_[it->second];
}

std::size_t Covergroup::hit_bins() const {
  std::size_t n = 0;
  for (const auto& b : bins_) {
    if (b.hits > 0) ++n;
  }
  return n;
}

double Covergroup::coverage_pct() const {
  if (bins_.empty()) return 100.0;
  return 100.0 * static_cast<double>(hit_bins()) /
         static_cast<double>(bins_.size());
}

std::vector<const CoverBin*> Covergroup::holes() const {
  std::vector<const CoverBin*> out;
  for (const auto& b : bins_) {
    if (b.hits == 0) out.push_back(&b);
  }
  return out;
}

Covergroup& CoverageModel::group(const std::string& name,
                                 const std::string& description) {
  auto it = groups_.find(name);
  if (it == groups_.end()) {
    it = groups_
             .emplace(name, std::make_unique<Covergroup>(name, description))
             .first;
  }
  return *it->second;
}

const Covergroup* CoverageModel::find(const std::string& name) const {
  auto it = groups_.find(name);
  return it == groups_.end() ? nullptr : it->second.get();
}

std::vector<const Covergroup*> CoverageModel::groups() const {
  std::vector<const Covergroup*> out;
  out.reserve(groups_.size());
  for (const auto& [name, g] : groups_) out.push_back(g.get());
  return out;  // std::map iteration is already name-sorted
}

bool CoverageModel::hit(const std::string& group_name, const std::string& bin,
                        std::uint64_t n) {
  auto it = groups_.find(group_name);
  if (it == groups_.end()) return false;
  return it->second->hit(bin, n);
}

std::size_t CoverageModel::total_bins() const {
  std::size_t n = 0;
  for (const auto& [name, g] : groups_) n += g->bins().size();
  return n;
}

std::size_t CoverageModel::total_hit() const {
  std::size_t n = 0;
  for (const auto& [name, g] : groups_) n += g->hit_bins();
  return n;
}

double CoverageModel::coverage_pct() const {
  const std::size_t total = total_bins();
  if (total == 0) return 100.0;
  return 100.0 * static_cast<double>(total_hit()) /
         static_cast<double>(total);
}

const char* org_prefix(sim::OrgKind k) {
  switch (k) {
    case sim::OrgKind::Arbitrated:
      return "arbitrated";
    case sim::OrgKind::EventDriven:
      return "eventdriven";
  }
  return "unknown";
}

ModelInputs inputs_from(
    sim::OrgKind organization, const std::vector<synth::ThreadFsm>& fsms,
    const std::vector<memorg::GeneratedController>& controllers) {
  ModelInputs in;
  in.organization = organization;
  in.fsms = &fsms;
  for (const memorg::GeneratedController& ctrl : controllers) {
    if (ctrl.entries.empty()) continue;
    ControllerModel cm;
    cm.bram_id = ctrl.bram.id;
    cm.num_consumers = ctrl.plan.consumer_pseudo_ports();
    cm.num_producers = ctrl.plan.producer_pseudo_ports();
    cm.has_port_a = std::any_of(
        ctrl.plan.clients.begin(), ctrl.plan.clients.end(),
        [](const auto& c) { return c.port == memalloc::LogicalPort::A; });
    cm.deps = ctrl.entries;
    cm.total_slots = memorg::total_slots(cm.deps);
    in.controllers.push_back(std::move(cm));
  }
  return in;
}

}  // namespace hicsync::cover
