// Robustness layer: integrity envelope + structured spec loading, checker
// failure domains (fail-closed quarantine, fail-open degradation +
// self-heal, traversal watchdog), the bus proxy backstop, DMA fault
// absorption, trace-transport fault tolerance, and the full deterministic
// fault-injection campaign.
#include <gtest/gtest.h>

#include "checker/checker_set.h"
#include "common/crc32.h"
#include "faultinject/campaign.h"
#include "faultinject/faultinject.h"
#include "guest/workload.h"
#include "spec/serial.h"
#include "vdev/dma.h"

namespace sedspec {
namespace {

using checker::CheckerConfig;
using checker::CheckerStats;
using checker::EsChecker;
using checker::FailurePolicy;
using checker::Mode;
using guest::DeviceWorkload;
using guest::InteractionMode;
using guest::make_workload;
using guest::workload_names;

// --- Spec integrity envelope -----------------------------------------------

TEST(SpecEnvelope, LoadAcceptsPristineArtifact) {
  auto wl = make_workload("fdc");
  const auto bytes = spec::serialize(
      pipeline::build_spec(wl->device(), [&] { wl->training(); }));
  const spec::LoadResult r = spec::load(bytes);
  ASSERT_TRUE(r.ok()) << r.error.describe();
  EXPECT_EQ(r.cfg->device_name, "fdc");
}

TEST(SpecEnvelope, EachDefectYieldsItsStatus) {
  auto wl = make_workload("fdc");
  const auto bytes = spec::serialize(
      pipeline::build_spec(wl->device(), [&] { wl->training(); }));
  ASSERT_GT(bytes.size(), spec::kSpecEnvelopeSize);

  {
    std::vector<uint8_t> b(bytes.begin(),
                           bytes.begin() + spec::kSpecEnvelopeSize - 1);
    EXPECT_EQ(spec::load(b).error.status, spec::LoadStatus::kTooShort);
  }
  {
    std::vector<uint8_t> b = bytes;
    b[0] ^= 0xff;
    EXPECT_EQ(spec::load(b).error.status, spec::LoadStatus::kBadMagic);
  }
  {
    std::vector<uint8_t> b = bytes;
    b[4] += 1;  // version field
    EXPECT_EQ(spec::load(b).error.status, spec::LoadStatus::kVersionSkew);
  }
  {
    std::vector<uint8_t> b = bytes;
    b.push_back(0);  // trailing garbage
    EXPECT_EQ(spec::load(b).error.status, spec::LoadStatus::kLengthMismatch);
  }
  {
    std::vector<uint8_t> b = bytes;
    b[spec::kSpecEnvelopeSize] ^= 0x01;  // payload bit flip
    EXPECT_EQ(spec::load(b).error.status, spec::LoadStatus::kCrcMismatch);
  }
  {
    // Structural damage under a valid CRC: truncate the payload and reseal.
    std::vector<uint8_t> b = bytes;
    b.resize(b.size() - 3);
    spec::reseal(b);
    EXPECT_EQ(spec::load(b).error.status, spec::LoadStatus::kMalformed);
  }
}

TEST(SpecEnvelope, Crc32MatchesKnownVector) {
  // "123456789" -> 0xcbf43926 (the standard CRC-32 check value).
  const std::vector<uint8_t> check = {'1', '2', '3', '4', '5',
                                      '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xcbf43926u);
}

class FaultInjectSuite : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllDevices, FaultInjectSuite,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Corruption fuzz: whatever happens to the serialized artifact — random bit
// flips, truncations, resealed payload garbling — load() must never throw,
// and deserialize() must throw DecodeError, never crash or corrupt memory.
TEST_P(FaultInjectSuite, SerializedSpecCorruptionNeverCrashesLoader) {
  auto wl = make_workload(GetParam());
  const auto bytes = spec::serialize(
      pipeline::build_spec(wl->device(), [&] { wl->training(); }));
  Rng rng(0xf00d ^ std::hash<std::string>{}(GetParam()));
  for (int i = 0; i < 400; ++i) {
    std::vector<uint8_t> b = bytes;
    const auto kind = static_cast<faultinject::SpecFaultKind>(
        rng.below(faultinject::kSpecFaultKinds));
    faultinject::corrupt_spec(b, kind, rng);
    // Extra unresealed payload damage on top, sometimes.
    if (rng.chance(0.3) && !b.empty()) {
      b[rng.below(b.size())] ^= static_cast<uint8_t>(rng.next_u64());
    }
    spec::LoadResult r;
    EXPECT_NO_THROW(r = spec::load(b)) << GetParam() << " iteration " << i;
    if (!r.ok()) {
      EXPECT_NE(r.error.status, spec::LoadStatus::kOk);
      EXPECT_THROW((void)spec::deserialize(b), DecodeError);
    }
  }
}

// A corrupt spec must never install a checker; the bus proxy slot and the
// device stay untouched.
TEST_P(FaultInjectSuite, DeploySerializedRejectsCorruptSpecs) {
  auto wl = make_workload(GetParam());
  auto bytes = spec::serialize(
      pipeline::build_spec(wl->device(), [&] { wl->training(); }));
  Rng rng(0xbead);
  faultinject::corrupt_spec(bytes, faultinject::SpecFaultKind::kBitFlip, rng);
  const auto out =
      pipeline::deploy_serialized(bytes, wl->device(), wl->bus(), {});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.checker, nullptr);
  // Benign traffic still works unprotected (no proxy was installed).
  Rng oprng(1);
  EXPECT_NO_THROW(wl->common_operation(InteractionMode::kSequential, oprng));
}

TEST(SpecEnvelope, DeploySerializedRejectsDeviceMismatch) {
  auto fdc = make_workload("fdc");
  const auto bytes = spec::serialize(
      pipeline::build_spec(fdc->device(), [&] { fdc->training(); }));
  auto sdhci = make_workload("sdhci");
  const auto out =
      pipeline::deploy_serialized(bytes, sdhci->device(), sdhci->bus(), {});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error.status, spec::LoadStatus::kDeviceMismatch);
}

// --- Failure domains --------------------------------------------------------

// Fail-closed: an internal checker fault quarantines (resets) the device and
// re-arms protection; subsequent benign I/O is served checked and clean.
TEST_P(FaultInjectSuite, FailClosedQuarantineRecoversDevice) {
  auto wl = make_workload(GetParam());
  CheckerConfig config;
  config.failure_policy = FailurePolicy::kFailClosed;
  wl->build_and_deploy(config);
  EsChecker& ck = *wl->checker();

  faultinject::arm_checker_faults(ck, faultinject::CheckerFaultKind::kThrow,
                                  1, 7);
  Rng rng(11);
  EXPECT_NO_THROW(wl->common_operation(InteractionMode::kSequential, rng));
  faultinject::disarm_checker_faults(ck);

  const CheckerStats& s = ck.stats();
  EXPECT_EQ(s.contained_faults, 1u);
  EXPECT_EQ(s.fail_closed_faults, 1u);
  EXPECT_EQ(s.quarantines, 1u);
  EXPECT_EQ(s.fail_open_faults, 0u);
  EXPECT_FALSE(ck.degraded());
  EXPECT_FALSE(wl->device().halted()) << "quarantine must reset, not strand";

  // Protection is re-armed and the device fully functional.
  const uint64_t blocked_before = s.blocked;
  for (int i = 0; i < 4; ++i) {
    EXPECT_NO_THROW(wl->common_operation(InteractionMode::kSequential, rng));
  }
  EXPECT_EQ(ck.stats().blocked, blocked_before);
  EXPECT_GT(ck.stats().clean_rounds, 0u);
  EXPECT_EQ(s.rounds, s.clean_rounds + s.warnings + s.blocked +
                          s.degraded_rounds);
}

// Fail-open: the fault degrades the checker instead of costing a device
// reset; unprotected rounds are counted, and the periodic self-heal
// re-attaches protection.
TEST_P(FaultInjectSuite, FailOpenDegradesThenSelfHeals) {
  auto wl = make_workload(GetParam());
  CheckerConfig config;
  config.failure_policy = FailurePolicy::kFailOpen;
  config.self_heal_interval = 3;
  wl->build_and_deploy(config);
  EsChecker& ck = *wl->checker();

  faultinject::arm_checker_faults(ck, faultinject::CheckerFaultKind::kThrow,
                                  1, 7);
  Rng rng(13);
  EXPECT_NO_THROW(wl->common_operation(InteractionMode::kSequential, rng));
  faultinject::disarm_checker_faults(ck);

  EXPECT_EQ(ck.stats().contained_faults, 1u);
  EXPECT_EQ(ck.stats().fail_open_faults, 1u);
  EXPECT_EQ(ck.stats().quarantines, 0u);
  EXPECT_GT(ck.stats().degraded_rounds, 0u);

  // Keep driving benign I/O until the self-heal re-attaches.
  for (int i = 0; i < 8 && ck.degraded(); ++i) {
    EXPECT_NO_THROW(wl->common_operation(InteractionMode::kSequential, rng));
  }
  EXPECT_FALSE(ck.degraded());
  EXPECT_GE(ck.stats().self_heals, 1u);
  const CheckerStats& s = ck.stats();
  EXPECT_EQ(s.rounds, s.clean_rounds + s.warnings + s.blocked +
                          s.degraded_rounds);
}

// Mid-round shadow corruption must never escape the proxy; at worst it is a
// spurious violation resolved by the configured policy.
TEST_P(FaultInjectSuite, ShadowCorruptionIsContainedOrFlagged) {
  auto wl = make_workload(GetParam());
  CheckerConfig config;
  config.rollback_on_violation = true;
  wl->build_and_deploy(config);
  EsChecker& ck = *wl->checker();
  Rng rng(17);
  for (int i = 0; i < 10; ++i) {
    faultinject::arm_checker_faults(
        ck, faultinject::CheckerFaultKind::kShadowCorrupt, 1, 1000 + i);
    EXPECT_NO_THROW(wl->common_operation(InteractionMode::kSequential, rng));
    faultinject::disarm_checker_faults(ck);
    ck.resync();
  }
  EXPECT_FALSE(wl->device().halted());
  EXPECT_EQ(wl->bus().proxy_fault_count(), 0u);
}

// The traversal watchdog: with termination logic suppressed on a cyclic
// spec, the round must end in a contained CheckerFault — not a hang.
TEST(FailureDomains, WatchdogEndsRunawayTraversal) {
  auto wl = make_workload("fdc");
  spec::EsCfg cfg =
      pipeline::build_spec(wl->device(), [&] { wl->training(); });
  // Rewire every entry block into a self-loop.
  for (const auto& [key, entry] : cfg.entry_dispatch) {
    if (entry == kInvalidSite) {
      continue;
    }
    spec::EsBlock& block = cfg.blocks.at(entry);
    block.kind = BlockKind::kPlain;
    block.merged = false;
    block.has_succ = true;
    block.succ = entry;
    block.ends = false;
  }

  CheckerConfig config;
  config.max_steps = 1u << 10;
  config.watchdog_steps = 1u << 12;
  config.rollback_on_violation = true;
  auto checker = pipeline::deploy(cfg, wl->device(), wl->bus(), config);
  // Some rounds end at dispatch without reaching a looped block; arm enough
  // one-shot faults that at least one suppressed round actually loops.
  faultinject::arm_checker_faults(
      *checker, faultinject::CheckerFaultKind::kRunaway, 64, 3);
  Rng rng(19);
  EXPECT_NO_THROW(wl->common_operation(InteractionMode::kSequential, rng));
  EXPECT_GE(checker->stats().contained_faults, 1u);
  EXPECT_GE(checker->stats().quarantines, 1u);  // default fail-closed
  wl->bus().set_proxy(nullptr);
  wl->device().set_internal_activity_hook({});
}

// Without the fault, the same cyclic spec resolves through the ordinary
// violation path (visit bound / budget), not the watchdog.
TEST(FailureDomains, CyclicSpecWithoutFaultIsAViolationNotAFault) {
  auto wl = make_workload("fdc");
  spec::EsCfg cfg =
      pipeline::build_spec(wl->device(), [&] { wl->training(); });
  for (const auto& [key, entry] : cfg.entry_dispatch) {
    if (entry == kInvalidSite) {
      continue;
    }
    spec::EsBlock& block = cfg.blocks.at(entry);
    block.kind = BlockKind::kPlain;
    block.merged = false;
    block.has_succ = true;
    block.succ = entry;
    block.ends = false;
  }

  CheckerConfig config;
  config.max_steps = 1u << 10;
  config.rollback_on_violation = true;
  auto checker = pipeline::deploy(cfg, wl->device(), wl->bus(), config);
  Rng rng(23);
  EXPECT_NO_THROW(wl->common_operation(InteractionMode::kSequential, rng));
  EXPECT_EQ(checker->stats().contained_faults, 0u);
  EXPECT_GT(checker->stats().blocked, 0u);
  wl->bus().set_proxy(nullptr);
  wl->device().set_internal_activity_hook({});
}

// Rollback recovery: after a blocked violation with rollback enabled, the
// device is not halted and keeps serving benign I/O cleanly.
TEST_P(FaultInjectSuite, RollbackRecoveryKeepsDeviceAvailable) {
  auto wl = make_workload(GetParam());
  CheckerConfig config;
  config.rollback_on_violation = true;
  wl->build_and_deploy(config);
  Rng rng(29);
  wl->rare_operation(rng);  // triggers a blocked violation in protection mode
  EXPECT_GT(wl->checker()->stats().blocked, 0u);
  EXPECT_GT(wl->checker()->stats().rollbacks, 0u);
  EXPECT_FALSE(wl->device().halted());
  const uint64_t blocked = wl->checker()->stats().blocked;
  for (int i = 0; i < 4; ++i) {
    EXPECT_NO_THROW(wl->common_operation(InteractionMode::kSequential, rng));
  }
  EXPECT_EQ(wl->checker()->stats().blocked, blocked)
      << "benign traffic after rollback must stay clean";
}

// --- Bus backstop -----------------------------------------------------------

struct ThrowingProxy final : IoProxy {
  bool before_access(Device&, const IoAccess&) override {
    throw std::runtime_error("rogue proxy");
  }
};

TEST(BusBackstop, EscapedProxyExceptionIsAbsorbedAndFailClosed) {
  auto wl = make_workload("fdc");
  ThrowingProxy rogue;
  wl->bus().set_proxy(&rogue);
  Rng rng(31);
  EXPECT_NO_THROW(wl->common_operation(InteractionMode::kSequential, rng));
  EXPECT_GT(wl->bus().proxy_fault_count(), 0u);
  EXPECT_EQ(wl->bus().proxy_fault_count(), wl->bus().blocked_count())
      << "backstopped accesses are blocked (fail-closed last resort)";
  wl->bus().set_proxy(nullptr);
}

TEST(BusBackstop, EsCheckerNeverTriggersBackstop) {
  auto wl = make_workload("fdc");
  wl->build_and_deploy();
  EsChecker& ck = *wl->checker();
  Rng rng(37);
  for (int i = 0; i < 6; ++i) {
    faultinject::arm_checker_faults(ck, faultinject::CheckerFaultKind::kThrow,
                                    1, 100 + i);
    EXPECT_NO_THROW(wl->common_operation(InteractionMode::kSequential, rng));
  }
  faultinject::disarm_checker_faults(ck);
  EXPECT_EQ(wl->bus().proxy_fault_count(), 0u)
      << "the checker must contain its own faults";
  EXPECT_GE(ck.stats().contained_faults, 1u);
}

// --- DMA faults -------------------------------------------------------------

TEST(DmaFaults, FailedAndShortTransfersAreAbsorbed) {
  for (const std::string name : {"pcnet", "usb-ehci", "scsi-esp"}) {
    auto wl = make_workload(name);
    ASSERT_NE(wl->device().dma_engine(), nullptr) << name;
    CheckerConfig config;
    config.rollback_on_violation = true;
    wl->build_and_deploy(config);
    DmaEngine& dma = *wl->device().dma_engine();
    Rng rng(41);
    for (int i = 0; i < 20; ++i) {
      const auto kind = static_cast<faultinject::DmaFaultKind>(i % 2);
      faultinject::arm_dma_faults(wl->device(), kind, 1, 500 + i);
      EXPECT_NO_THROW(
          wl->common_operation(InteractionMode::kSequential, rng))
          << name;
    }
    faultinject::disarm_dma_faults(wl->device());
    EXPECT_GT(dma.faults_injected(), 0u) << name;
    EXPECT_FALSE(wl->device().halted()) << name;
    EXPECT_EQ(wl->bus().proxy_fault_count(), 0u) << name;
  }
}

TEST(DmaFaults, PioOnlyDevicesHaveNoEngine) {
  for (const std::string name : {"fdc", "sdhci"}) {
    auto wl = make_workload(name);
    EXPECT_EQ(wl->device().dma_engine(), nullptr) << name;
    EXPECT_FALSE(faultinject::arm_dma_faults(
        wl->device(), faultinject::DmaFaultKind::kFailTransfer, 1, 1))
        << name;
  }
}

// --- Trace faults -----------------------------------------------------------

TEST_P(FaultInjectSuite, GarbledTraceTransportNeverCrashesPipeline) {
  auto wl = make_workload(GetParam());
  Rng rng(0xcafe);
  for (int i = 0; i < 6; ++i) {
    pipeline::CollectOptions opts;
    const auto kind = static_cast<faultinject::TraceFaultKind>(
        i % faultinject::kTraceFaultKinds);
    opts.packet_tap = [&](std::vector<uint8_t>& packets) {
      faultinject::corrupt_packets(packets, kind, 1 + rng.below(4), rng);
    };
    try {
      const auto collection =
          pipeline::collect(wl->device(), [&] { wl->training(); }, opts);
      (void)pipeline::construct(wl->device(), collection);
    } catch (const std::exception&) {
      // Rejecting a garbled trace is a legal outcome; crashing is not.
    }
    wl->device().reset();
  }
}

// --- Stats plumbing ---------------------------------------------------------

TEST(StatsPlumbing, MergeAndAggregateSumEveryCounter) {
  CheckerStats a;
  a.rounds = 3;
  a.contained_faults = 1;
  a.fail_closed_faults = 1;
  a.quarantines = 1;
  CheckerStats b;
  b.rounds = 2;
  b.degraded_rounds = 2;
  b.fail_open_faults = 1;
  b.contained_faults = 1;
  b.self_heals = 1;
  a.merge(b);
  EXPECT_EQ(a.rounds, 5u);
  EXPECT_EQ(a.contained_faults, 2u);
  EXPECT_EQ(a.fail_closed_faults, 1u);
  EXPECT_EQ(a.fail_open_faults, 1u);
  EXPECT_EQ(a.degraded_rounds, 2u);
  EXPECT_EQ(a.quarantines, 1u);
  EXPECT_EQ(a.self_heals, 1u);

  checker::CheckerSet set;
  auto fdc = make_workload("fdc");
  auto cfg = pipeline::build_spec(fdc->device(), [&] { fdc->training(); });
  EsChecker* ck = set.attach(cfg, fdc->device(), {});
  fdc->bus().set_proxy(&set);
  Rng rng(43);
  fdc->common_operation(InteractionMode::kSequential, rng);
  const CheckerStats agg = set.aggregate_stats();
  EXPECT_EQ(agg.rounds, ck->stats().rounds);
  EXPECT_GT(agg.rounds, 0u);
  fdc->bus().set_proxy(nullptr);
  fdc->device().set_internal_activity_hook({});
}

// --- Campaign ---------------------------------------------------------------

// A compact but full-coverage campaign run (all four layers, all five
// devices, both policies would be ~2x this; the standalone
// examples/fault_campaign binary runs the big sweep). Acceptance: zero
// escapes, zero backstop hits, every fault accounted.
TEST(Campaign, EveryFaultAccountedZeroEscapes) {
  faultinject::CampaignConfig config;
  config.seed = 0xf00d;
  config.spec_faults_per_device = 16;
  config.trace_faults_per_device = 3;
  config.dma_faults_per_device = 8;
  config.checker_faults_per_device = 9;
  config.ops_per_fault = 2;
  const faultinject::CampaignResult result =
      faultinject::run_campaign(config);

  EXPECT_EQ(result.devices_run, workload_names().size());
  const faultinject::LayerOutcomes total = result.total();
  EXPECT_GT(total.injected, 0u);
  EXPECT_EQ(total.escaped, 0u);
  EXPECT_EQ(result.proxy_faults, 0u);
  for (size_t i = 0; i < faultinject::kLayerCount; ++i) {
    EXPECT_TRUE(result.by_layer[i].accounted())
        << faultinject::layer_name(static_cast<faultinject::Layer>(i))
        << " layer lost faults:\n"
        << result.describe();
    // kDma is device-conditional and kControl is driven by the dedicated
    // control-plane campaign (control/campaign.h), not this sweep.
    const auto layer = static_cast<faultinject::Layer>(i);
    if (layer != faultinject::Layer::kDma &&
        layer != faultinject::Layer::kControl) {
      EXPECT_GT(result.by_layer[i].injected, 0u);
    }
  }
  // Layer-specific expectations: spec corruption is overwhelmingly caught
  // at load; checker faults resolve at the containment boundary.
  const auto& spec_o =
      result.by_layer[static_cast<size_t>(faultinject::Layer::kSpec)];
  EXPECT_GT(spec_o.rejected_at_load, 0u);
  const auto& ck_o =
      result.by_layer[static_cast<size_t>(faultinject::Layer::kChecker)];
  EXPECT_GT(ck_o.contained, 0u);
}

TEST(Campaign, DeterministicPerSeed) {
  faultinject::CampaignConfig config;
  config.seed = 0xbead;
  config.devices = {"fdc"};
  config.spec_faults_per_device = 12;
  config.trace_faults_per_device = 2;
  config.dma_faults_per_device = 0;
  config.checker_faults_per_device = 6;
  config.ops_per_fault = 2;
  const auto a = faultinject::run_campaign(config);
  const auto b = faultinject::run_campaign(config);
  EXPECT_EQ(a.describe(), b.describe());
}

// The trace layer's outcomes per seed, pinned exactly. The trace decoder
// feeds the ITC-CFG builder as it goes, so a corrupt packet stream may be
// rejected by the builder before the decoder reaches the defect; either way
// the collection throws and the fault counts as rejected at load, and a
// stream that decodes cleanly yields the same graph. These counts must
// not depend on where in the pipeline a garbled trace is caught.
TEST(Campaign, TraceLayerOutcomesArePinnedPerSeed) {
  struct Pinned {
    uint64_t seed;
    uint64_t rejected_at_load, contained, flagged, absorbed, escaped;
  };
  const Pinned kPinned[] = {
      {0xf00d, 7, 0, 0, 23, 0},
      {0xbead, 12, 0, 0, 18, 0},
      {0xcafe, 16, 0, 0, 14, 0},
      {0x5eed, 12, 0, 0, 18, 0},
  };
  for (const Pinned& p : kPinned) {
    faultinject::CampaignConfig config;
    config.seed = p.seed;
    config.spec_faults_per_device = 0;
    config.trace_faults_per_device = 6;
    config.dma_faults_per_device = 0;
    config.checker_faults_per_device = 0;
    config.ops_per_fault = 2;
    const faultinject::LayerOutcomes o =
        faultinject::run_campaign(config)
            .by_layer[static_cast<size_t>(faultinject::Layer::kTrace)];
    SCOPED_TRACE(p.seed);
    EXPECT_EQ(o.injected, 6 * workload_names().size());
    EXPECT_EQ(o.rejected_at_load, p.rejected_at_load);
    EXPECT_EQ(o.contained, p.contained);
    EXPECT_EQ(o.flagged, p.flagged);
    EXPECT_EQ(o.absorbed, p.absorbed);
    EXPECT_EQ(o.escaped, p.escaped);
    EXPECT_TRUE(o.accounted());
  }
}

TEST(Campaign, FailOpenPolicyProducesDegradedResolutions) {
  faultinject::CampaignConfig config;
  config.seed = 0xcafe;
  config.devices = {"fdc"};
  config.policy = FailurePolicy::kFailOpen;
  config.spec_faults_per_device = 0;
  config.trace_faults_per_device = 0;
  config.dma_faults_per_device = 0;
  config.checker_faults_per_device = 9;
  config.ops_per_fault = 2;
  const auto result = faultinject::run_campaign(config);
  const auto& o =
      result.by_layer[static_cast<size_t>(faultinject::Layer::kChecker)];
  EXPECT_GT(o.fail_open, 0u);
  EXPECT_EQ(o.fail_closed, 0u);
  EXPECT_EQ(o.escaped, 0u);
}

}  // namespace
}  // namespace sedspec
