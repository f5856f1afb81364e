#include "spec/spec_store.h"

namespace sedspec::spec {

SnapshotRef SpecStore::publish(EsCfg cfg) {
  std::lock_guard lock(mu_);
  auto snap = std::make_shared<SpecSnapshot>();
  snap->device_name = cfg.device_name;
  auto it = specs_.find(snap->device_name);
  snap->version = it == specs_.end() ? 1 : it->second->version + 1;
  snap->cfg = std::move(cfg);
  SnapshotRef ref = snap;
  specs_[ref->device_name] = ref;
  ++publishes_;
  return ref;
}

SnapshotRef SpecStore::current(const std::string& device_name) const {
  std::lock_guard lock(mu_);
  auto it = specs_.find(device_name);
  return it == specs_.end() ? nullptr : it->second;
}

uint64_t SpecStore::version_of(const std::string& device_name) const {
  std::lock_guard lock(mu_);
  auto it = specs_.find(device_name);
  return it == specs_.end() ? 0 : it->second->version;
}

std::vector<std::string> SpecStore::device_names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& [name, snap] : specs_) {
    out.push_back(name);
  }
  return out;
}

size_t SpecStore::size() const {
  std::lock_guard lock(mu_);
  return specs_.size();
}

uint64_t SpecStore::publish_count() const {
  std::lock_guard lock(mu_);
  return publishes_;
}

}  // namespace sedspec::spec
