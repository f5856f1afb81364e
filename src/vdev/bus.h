// I/O bus with a pre-access proxy hook.
//
// Dispatches guest PMIO/MMIO accesses to mapped devices. An IoProxy — the
// ES-Checker in deployment (paper Fig. 1, phase 3) — sees every access
// *before* the device executes it and can veto it; this is the paper's
// "anomaly detection before the execution of emulated devices".
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "expr/io.h"
#include "vdev/device.h"

namespace sedspec {

namespace obs {
class MetricsRegistry;
}  // namespace obs

class IoProxy {
 public:
  virtual ~IoProxy() = default;
  /// Returns false to block the access (the write is dropped / the read
  /// returns 0). The proxy may also halt the device.
  ///
  /// Contract: hooks must not throw — a proxy is expected to be its own
  /// containment domain (EsChecker resolves internal faults via its
  /// FailurePolicy). The bus still backstops a violating proxy: an escaped
  /// exception is swallowed, counted in proxy_fault_count(), and treated as
  /// fail-closed (the access is blocked).
  virtual bool before_access(Device& device, const IoAccess& io) = 0;

  /// Called after the device executed a non-blocked access. For reads,
  /// `io.value` carries the value the device returned.
  virtual void after_access(Device& device, const IoAccess& io);
};

class IoBus {
 public:
  /// Maps [base, base+len) in `space` to `device` (non-owning).
  void map(IoSpace space, uint64_t base, uint64_t len, Device* device);

  /// Installs/removes the pre-access proxy (non-owning; nullptr to remove).
  void set_proxy(IoProxy* proxy) { proxy_ = proxy; }

  /// Guest read: dispatches to the mapped device. Unmapped reads return
  /// all-ones (x86 bus float); accesses to a halted device return 0.
  uint64_t read(IoSpace space, uint64_t addr, uint8_t size);

  /// Guest write: dispatches to the mapped device; silently ignores
  /// unmapped or halted targets, counts blocked accesses.
  void write(IoSpace space, uint64_t addr, uint8_t size, uint64_t value);

  [[nodiscard]] uint64_t access_count() const { return accesses_; }
  [[nodiscard]] uint64_t blocked_count() const { return blocked_; }
  /// Exceptions that escaped the proxy hooks (contract violations absorbed
  /// by the bus backstop). A healthy deployment keeps this at zero.
  [[nodiscard]] uint64_t proxy_fault_count() const { return proxy_faults_; }
  void reset_stats() { accesses_ = blocked_ = proxy_faults_ = 0; }
  /// Publishes the three counts above as `bus_accesses_total`,
  /// `bus_blocked_total` and `bus_proxy_faults_total` gauges labeled
  /// `bus="<label>"` into `registry` (snapshot semantics, like
  /// publish_checker_stats: gauges are overwritten each call). The access
  /// path itself touches no registry.
  void publish_metrics(obs::MetricsRegistry& registry,
                       const std::string& label) const;

  /// VM-exit cost model for the performance benchmarks: every dispatched
  /// access busy-waits this long, standing in for the KVM exit +
  /// kernel->QEMU round trip a real trapped PMIO/MMIO access pays (several
  /// microseconds on the paper's testbed). Zero (the default) disables it;
  /// the functional tests never enable it. See DESIGN.md §1.
  void set_access_latency_ns(uint64_t ns) { access_latency_ns_ = ns; }
  [[nodiscard]] uint64_t access_latency_ns() const {
    return access_latency_ns_;
  }

  /// How the exit cost is paid. kSpin (default) busy-waits — faithful for
  /// single-VM latency measurements. kSleep blocks the thread instead,
  /// modeling the trapped vCPU yielding the core during the exit — the
  /// right model for multi-shard throughput runs, where concurrent VMs
  /// overlap their I/O waits (and the only one that scales on a
  /// constrained-core host). See DESIGN.md §9.
  enum class LatencyModel : uint8_t { kSpin, kSleep };
  void set_access_latency_model(LatencyModel m) { latency_model_ = m; }
  [[nodiscard]] LatencyModel access_latency_model() const {
    return latency_model_;
  }

  /// Shard-ownership guard for the concurrent enforcement layer: each bus
  /// (and its devices, checker, shadow state) is owned by exactly one shard
  /// thread, and that single-threaded discipline is what makes the
  /// non-atomic device/checker internals race-free. bind_owner_thread()
  /// records the calling thread; from then on read()/write() from any other
  /// thread increments owner_violations() (relaxed counter — never throws
  /// on the hot path, tests assert it stays zero).
  void bind_owner_thread();
  [[nodiscard]] uint64_t owner_violations() const {
    return owner_violations_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] Device* device_at(IoSpace space, uint64_t addr) const;

 private:
  struct Mapping {
    IoSpace space;
    uint64_t base;
    uint64_t len;
    Device* device;
  };

  void exit_cost() const;
  void check_owner();
  bool proxy_allows(Device& dev, const IoAccess& io);
  void proxy_done(Device& dev, const IoAccess& io);

  std::vector<Mapping> mappings_;
  IoProxy* proxy_ = nullptr;
  uint64_t accesses_ = 0;
  uint64_t blocked_ = 0;
  uint64_t proxy_faults_ = 0;
  uint64_t access_latency_ns_ = 0;
  LatencyModel latency_model_ = LatencyModel::kSpin;
  // Owner token: hash of the bound thread id with bit 0 forced on (so 0
  // unambiguously means "unbound"). Relaxed loads on the access path.
  std::atomic<uint64_t> owner_token_{0};
  std::atomic<uint64_t> owner_violations_{0};
};

/// Busy-waits for `ns` nanoseconds (shared by the bus exit model and the
/// device backend model).
void spin_wait_ns(uint64_t ns);

}  // namespace sedspec
