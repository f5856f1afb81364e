// ES-Checker behavior tests: deployment from a serialized specification,
// mode policies, shadow-state consistency (the core soundness invariant:
// after clean rounds the shadow equals the device's control structure
// byte-for-byte), per-strategy statistics, and configuration knobs.
#include <gtest/gtest.h>

#include "guest/workload.h"
#include "spec/serial.h"

namespace sedspec {
namespace {

using checker::CheckerConfig;
using checker::EsChecker;
using checker::Mode;
using guest::DeviceWorkload;
using guest::InteractionMode;
using guest::make_workload;
using guest::workload_names;

class CheckerSuite : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllDevices, CheckerSuite,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The paper's correctness requirement in its purest form: the ES-Checker's
// shadow device state must track every SCALAR control-structure field
// exactly across arbitrary benign traffic — otherwise the spec could
// neither predict behavior nor stay FP-free. (Buffer *contents* are data,
// not control: bulk DMA payloads are deliberately not mirrored.)
TEST_P(CheckerSuite, ShadowStateMirrorsDeviceAfterCleanRounds) {
  auto wl = make_workload(GetParam());
  wl->build_and_deploy();
  const auto& layout = wl->device().program().layout();
  Rng rng(17);
  VirtualClock clock;
  for (int i = 0; i < 6; ++i) {
    wl->test_case(static_cast<InteractionMode>(i % 3), rng, clock, false);
    ASSERT_EQ(wl->checker()->stats().blocked, 0u);
    for (size_t f = 0; f < layout.field_count(); ++f) {
      const auto id = static_cast<ParamId>(f);
      if (layout.field(id).is_buffer()) {
        continue;
      }
      EXPECT_EQ(wl->checker()->shadow().param(id),
                wl->device().state().param(id))
          << GetParam() << ": shadow diverged on field "
          << layout.field(id).name << " after case " << i;
    }
  }
}

TEST_P(CheckerSuite, DeploymentFromSerializedSpecBehavesIdentically) {
  auto wl = make_workload(GetParam());
  wl->build_and_deploy();
  // Serialize the trained spec, reload it, and swap the deployment.
  const auto bytes = spec::serialize(wl->spec());
  const spec::EsCfg restored = spec::deserialize(bytes);
  EXPECT_EQ(spec::serialize(restored), bytes);  // byte-stable round trip

  auto wl2 = make_workload(GetParam());
  spec::EsCfg trained =
      pipeline::build_spec(wl2->device(), [&] { wl2->training(); });
  const spec::EsCfg reloaded = spec::deserialize(spec::serialize(trained));
  auto checker = pipeline::deploy(reloaded, wl2->device(), wl2->bus());
  Rng rng(23);
  VirtualClock clock;
  // Benign traffic against the reloaded spec stays clean.
  wl2->training();
  EXPECT_EQ(checker->stats().blocked, 0u);
  EXPECT_EQ(checker->stats().warnings, 0u);
}

TEST_P(CheckerSuite, StatsBookkeepingIsConsistent) {
  auto wl = make_workload(GetParam());
  CheckerConfig config;
  config.mode = Mode::kEnhancement;
  wl->build_and_deploy(config);
  Rng rng(31);
  VirtualClock clock;
  wl->test_case(InteractionMode::kRandom, rng, clock, true);
  const auto& s = wl->checker()->stats();
  EXPECT_EQ(s.rounds,
            s.clean_rounds + s.warnings + s.blocked + s.degraded_rounds);
  EXPECT_GT(s.total_steps, 0u);
}

TEST_P(CheckerSuite, MonitorModeNeverBlocks) {
  auto wl = make_workload(GetParam());
  CheckerConfig config;
  config.monitor_only = true;
  wl->build_and_deploy(config);
  Rng rng(41);
  VirtualClock clock;
  for (int i = 0; i < 3; ++i) {
    wl->test_case(InteractionMode::kRandom, rng, clock, true);
  }
  EXPECT_EQ(wl->checker()->stats().blocked, 0u);
  EXPECT_FALSE(wl->device().halted());
  EXPECT_GT(wl->checker()->stats().warnings, 0u);  // rare ops noted
}

TEST_P(CheckerSuite, ProtectionModeHaltsOnRareOperation) {
  auto wl = make_workload(GetParam());
  wl->build_and_deploy();  // protection mode default
  Rng rng(43);
  wl->rare_operation(rng);
  EXPECT_GT(wl->checker()->stats().blocked, 0u);
  EXPECT_TRUE(wl->device().halted());
}

TEST(CheckerConfigKnobs, SpecDeviceMismatchRejected) {
  auto fdc = make_workload("fdc");
  spec::EsCfg cfg =
      pipeline::build_spec(fdc->device(), [&] { fdc->training(); });
  auto sdhci = make_workload("sdhci");
  EXPECT_THROW(EsChecker(&cfg, &sdhci->device(), {}), std::logic_error);
}

TEST(CheckerConfigKnobs, TraversalBudgetGuard) {
  // A pathologically small max_steps turns a normal round into a
  // conditional-jump finding rather than a hang.
  auto wl = make_workload("fdc");
  CheckerConfig config;
  config.max_steps = 1;
  config.mode = Mode::kEnhancement;
  wl->build_and_deploy(config);
  Rng rng(47);
  VirtualClock clock;
  wl->test_case(InteractionMode::kSequential, rng, clock, false);
  EXPECT_GT(wl->checker()->stats().violations_by_strategy[2], 0u);
  EXPECT_FALSE(wl->device().halted());
}

}  // namespace
}  // namespace sedspec
