// The benchmark's three workloads (README.md explains why each exists).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "bench.h"

namespace sedbench {

/// Exact work counts of the single-VM workloads' fixed-length count pass.
/// Host-independent: two passes with one seed must agree field by field.
struct VmCounts {
  std::array<uint64_t, kDevices> ops{};
  std::array<uint64_t, kDevices> accesses{};
  std::array<uint64_t, kDevices> rounds{};
  std::array<uint64_t, kDevices> steps{};
  uint64_t warnings = 0;
  uint64_t blocked = 0;
  uint64_t violations = 0;
  uint64_t contained_faults = 0;
  uint64_t reports_offered = 0;
  uint64_t reports_pushed = 0;
  uint64_t reports_dropped = 0;
  uint64_t flight_dumps = 0;
  uint64_t flight_suppressed = 0;

  bool operator==(const VmCounts&) const = default;
};

/// Sums over the untraced operations of one device (or of all of them).
struct TwinTotals {
  double checked_ns = 0;
  double unchecked_ns = 0;
  uint64_t accesses = 0;
};

struct VmResult {
  std::vector<SetupTiming> setups;
  VmCounts counts;
  Slowdowns slowdown;  // untraced operations
  TwinTotals total;
  std::array<TwinTotals, kDevices> per_device{};
  // Traced operations (trace mode only).
  TwinTotals traced;
  LayerTimes layers;
  std::array<EngineLedger, kDevices> engines{};
  double peak_rss_mb = 0;
  Tally tally;
};

struct VmOptions {
  bool hostile = false;    // hostile_mix (else guest_io)
  uint64_t seed = 1;
  double seconds = 1;      // timed phase
  bool traced = false;     // alternate traced and untraced chunks
  double replay_seconds = 0;  // bare-engine ledger budget (traced only)
  std::string trace_prefix;  // where the trace goes (traced only)
};

[[nodiscard]] VmResult run_vm(const VmOptions& options);

/// Exact work counts of the fleet count pass.
struct FleetCounts {
  std::vector<uint64_t> shard_accesses;  // per (round, shard)
  std::vector<uint64_t> shard_redeploys;
  uint64_t rounds = 0;
  uint64_t steps = 0;
  uint64_t redeploys = 0;
  uint64_t reports_offered = 0;
  uint64_t reports_pushed = 0;
  uint64_t reports_dropped = 0;

  bool operator==(const FleetCounts&) const = default;
};

struct FleetResult {
  std::vector<SetupTiming> setups;
  FleetCounts counts;
  // Untraced rounds.
  double protected_ns = 0;
  double unprotected_ns = 0;
  uint64_t protected_accesses = 0;
  // Protected / unprotected time of the same (round, shard, operation).
  Slowdowns slowdown;
  std::vector<double> stall_us;
  std::vector<double> publish_us;
  std::array<double, kDevices> device_busy_ns{};
  std::array<uint64_t, kDevices> device_accesses{};
  // Traced rounds (trace mode only).
  double traced_protected_ns = 0;
  uint64_t traced_accesses = 0;
  LayerTimes layers;
  double peak_rss_mb = 0;
  Tally tally;
};

struct FleetOptions {
  uint64_t seed = 1;
  double seconds = 1;
  bool traced = false;
  std::string trace_prefix;
};

[[nodiscard]] FleetResult run_fleet(const FleetOptions& options);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace sedbench
