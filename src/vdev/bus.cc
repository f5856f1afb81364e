#include "vdev/bus.h"

#include <chrono>
#include <functional>
#include <thread>

#include "common/assert.h"
#include "obs/metrics.h"

namespace sedspec {

namespace {
uint64_t this_thread_token() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1;
}
}  // namespace

void spin_wait_ns(uint64_t ns) {
  if (ns == 0) {
    return;
  }
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < until) {
    // busy wait: models fixed hardware/hypervisor path latency
  }
}

void IoBus::exit_cost() const {
  if (access_latency_ns_ == 0) {
    return;
  }
  if (latency_model_ == LatencyModel::kSleep) {
    // Model the trapped vCPU blocking (not burning) its core during the
    // exit. Actual sleep duration is at the mercy of timer slack —
    // throughput runs care about overlap, not the exact figure.
    std::this_thread::sleep_for(std::chrono::nanoseconds(access_latency_ns_));
    return;
  }
  spin_wait_ns(access_latency_ns_);
}

void IoBus::bind_owner_thread() {
  owner_token_.store(this_thread_token(), std::memory_order_relaxed);
}

void IoBus::check_owner() {
  const uint64_t owner = owner_token_.load(std::memory_order_relaxed);
  if (owner != 0 && owner != this_thread_token()) {
    owner_violations_.fetch_add(1, std::memory_order_relaxed);
  }
}

void IoBus::publish_metrics(obs::MetricsRegistry& registry,
                            const std::string& label) const {
  const std::string labels = obs::label({{"bus", label}});
  auto set = [&](std::string_view name, uint64_t value) {
    registry.gauge(name, labels).set(static_cast<int64_t>(value));
  };
  set("bus_accesses_total", accesses_);
  set("bus_blocked_total", blocked_);
  set("bus_proxy_faults_total", proxy_faults_);
}

void IoProxy::after_access(Device& /*device*/, const IoAccess& /*io*/) {}

bool IoBus::proxy_allows(Device& dev, const IoAccess& io) {
  try {
    return proxy_->before_access(dev, io);
  } catch (...) {
    // Contract violation (proxies must contain their own faults): last-
    // resort fail-closed — block the access rather than crash the VMM or
    // let an unchecked access through.
    ++proxy_faults_;
    return false;
  }
}

void IoBus::proxy_done(Device& dev, const IoAccess& io) {
  try {
    proxy_->after_access(dev, io);
  } catch (...) {
    ++proxy_faults_;
  }
}

void IoBus::map(IoSpace space, uint64_t base, uint64_t len, Device* device) {
  SEDSPEC_REQUIRE(device != nullptr && len > 0);
  for (const Mapping& m : mappings_) {
    if (m.space == space && base < m.base + m.len && m.base < base + len) {
      SEDSPEC_REQUIRE_MSG(false, "overlapping I/O mapping");
    }
  }
  mappings_.push_back(Mapping{space, base, len, device});
}

Device* IoBus::device_at(IoSpace space, uint64_t addr) const {
  for (const Mapping& m : mappings_) {
    if (m.space == space && addr >= m.base && addr < m.base + m.len) {
      return m.device;
    }
  }
  return nullptr;
}

uint64_t IoBus::read(IoSpace space, uint64_t addr, uint8_t size) {
  check_owner();
  ++accesses_;
  exit_cost();
  Device* dev = device_at(space, addr);
  if (dev == nullptr) {
    return ~uint64_t{0} >> (64 - 8 * size);
  }
  if (dev->halted()) {
    ++blocked_;
    return 0;
  }
  IoAccess io;
  io.space = space;
  io.addr = addr;
  io.size = size;
  io.is_write = false;
  if (proxy_ != nullptr && !proxy_allows(*dev, io)) {
    ++blocked_;
    return 0;
  }
  const uint64_t value = dev->io_read(io);
  if (proxy_ != nullptr) {
    IoAccess done = io;
    done.value = value;
    proxy_done(*dev, done);
  }
  return value;
}

void IoBus::write(IoSpace space, uint64_t addr, uint8_t size, uint64_t value) {
  check_owner();
  ++accesses_;
  exit_cost();
  Device* dev = device_at(space, addr);
  if (dev == nullptr) {
    return;
  }
  if (dev->halted()) {
    ++blocked_;
    return;
  }
  IoAccess io;
  io.space = space;
  io.addr = addr;
  io.size = size;
  io.value = value;
  io.is_write = true;
  if (proxy_ != nullptr && !proxy_allows(*dev, io)) {
    ++blocked_;
    return;
  }
  dev->io_write(io);
  if (proxy_ != nullptr) {
    proxy_done(*dev, io);
  }
}

}  // namespace sedspec
