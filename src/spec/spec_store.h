// SpecStore: immutable, versioned ES-CFG snapshots for concurrent
// enforcement (the multi-VM deployment of paper Fig. 1 ③).
//
// One ES-Checker traverses its specification on every guest I/O access, so
// a live spec redeploy must never mutate a graph an in-flight traversal is
// walking. The store gives copy-on-write semantics: publish() wraps the new
// ES-CFG in a fresh `shared_ptr<const SpecSnapshot>` and swaps the map
// entry under a mutex; shards pin the snapshot they deployed against
// (EsChecker holds the shared_ptr), so an old version stays alive exactly
// as long as any checker still points into it, and a writer can republish
// at any time without coordinating with the check hot path. Shards observe
// the new version at their next poll and swap checkers *between* rounds.
//
// Snapshots are versioned per device, monotonic from 1.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "spec/es_cfg.h"
#include "spec/serial.h"

namespace sedspec::spec {

/// One immutable deployment unit. Nothing mutates a snapshot after
/// publish(); concurrent checkers traverse `cfg` lock-free.
struct SpecSnapshot {
  std::string device_name;
  uint64_t version = 0;  // per-device, monotonic from 1
  EsCfg cfg;
};

using SnapshotRef = std::shared_ptr<const SpecSnapshot>;

class SpecStore {
 public:
  SpecStore() = default;
  SpecStore(const SpecStore&) = delete;
  SpecStore& operator=(const SpecStore&) = delete;

  /// Copy-on-write redeploy: installs `cfg` as the current snapshot for
  /// `cfg.device_name` with version = previous version + 1 and returns it.
  /// Prior snapshots stay alive while anyone pins them.
  SnapshotRef publish(EsCfg cfg);

  /// Current snapshot for a device (nullptr if none published).
  [[nodiscard]] SnapshotRef current(const std::string& device_name) const;

  /// Current version for a device (0 if none published). Cheaper than
  /// current() for redeploy polling.
  [[nodiscard]] uint64_t version_of(const std::string& device_name) const;

  [[nodiscard]] std::vector<std::string> device_names() const;
  [[nodiscard]] size_t size() const;
  /// Total publish() calls (redeploys included) over the store's lifetime.
  [[nodiscard]] uint64_t publish_count() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, SnapshotRef> specs_;
  uint64_t publishes_ = 0;
};

}  // namespace sedspec::spec
