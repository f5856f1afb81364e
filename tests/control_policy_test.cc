// Tighten-only policy model (control/policy.h): OR-composition algebra,
// tenant → VM → device inheritance, config application, and the
// one-write-hardens-the-fleet integration with the enforcement service.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "control/policy.h"
#include "sedspec/enforcement.h"
#include "spec/spec_store.h"

namespace sedspec {
namespace {

using control::Policy;
using control::PolicyBits;
using control::PolicyTree;

TEST(PolicyBits, TightenIsMonotonicOr) {
  PolicyBits a;
  a.enforce = true;
  a.require_parameter = true;
  PolicyBits b;
  b.force_fail_closed = true;
  b.require_parameter = true;

  PolicyBits merged = a;
  merged.tighten(b);
  EXPECT_TRUE(merged.enforce);
  EXPECT_TRUE(merged.force_fail_closed);
  EXPECT_TRUE(merged.require_parameter);
  EXPECT_FALSE(merged.require_indirect);

  // Tightening never clears a bit: merging anything into `merged` keeps it
  // covering both inputs.
  EXPECT_TRUE(merged.covers(a));
  EXPECT_TRUE(merged.covers(b));
  EXPECT_FALSE(a.covers(b));

  EXPECT_FALSE(PolicyBits{}.any());
  EXPECT_TRUE(a.any());
}

TEST(PolicyBits, TightenIsIdempotentAndCommutative) {
  PolicyBits a;
  a.enforce = true;
  a.forbid_monitor_only = true;
  PolicyBits b;
  b.require_conditional = true;

  PolicyBits ab = a;
  ab.tighten(b);
  PolicyBits ba = b;
  ba.tighten(a);
  EXPECT_EQ(ab, ba);

  PolicyBits twice = ab;
  twice.tighten(ab);
  EXPECT_EQ(twice, ab);
}

TEST(Policy, EffectiveComposesFleetAndPerDevice) {
  Policy p;
  p.fleet.enforce = true;
  p.per_device["fdc"].require_conditional = true;

  const PolicyBits fdc = p.effective("fdc");
  EXPECT_TRUE(fdc.enforce);
  EXPECT_TRUE(fdc.require_conditional);

  const PolicyBits other = p.effective("sdhci");
  EXPECT_TRUE(other.enforce);
  EXPECT_FALSE(other.require_conditional);
}

TEST(PolicyTree, InheritanceTenantThenVmThenDevice) {
  PolicyTree tree;
  const uint64_t v0 = tree.version();

  Policy tenant;
  tenant.fleet.force_fail_closed = true;
  tree.tighten_tenant(tenant);

  Policy vm;
  vm.per_device["fdc"].enforce = true;
  tree.tighten_vm("vm3", vm);

  // Every policy write bumps the version shards poll on.
  EXPECT_EQ(tree.version(), v0 + 2);

  const PolicyBits vm3_fdc = tree.effective("vm3", "fdc");
  EXPECT_TRUE(vm3_fdc.force_fail_closed);  // inherited from the tenant
  EXPECT_TRUE(vm3_fdc.enforce);            // added at the VM layer

  // A different VM only sees the tenant layer; a different device on the
  // same VM misses the per-device bit.
  EXPECT_FALSE(tree.effective("vm9", "fdc").enforce);
  EXPECT_TRUE(tree.effective("vm9", "fdc").force_fail_closed);
  EXPECT_FALSE(tree.effective("vm3", "sdhci").enforce);
}

TEST(ApplyPolicy, ForcesOnlyEverTightens) {
  checker::CheckerConfig loose;
  loose.mode = checker::Mode::kEnhancement;
  loose.failure_policy = checker::FailurePolicy::kFailOpen;
  loose.enable_parameter = true;
  loose.enable_indirect = false;
  loose.enable_conditional = false;
  loose.monitor_only = true;

  PolicyBits bits;
  bits.force_protection = true;
  bits.force_fail_closed = true;
  bits.require_conditional = true;
  bits.forbid_monitor_only = true;

  const checker::CheckerConfig tight = control::apply_policy(bits, loose);
  EXPECT_EQ(tight.mode, checker::Mode::kProtection);
  EXPECT_EQ(tight.failure_policy, checker::FailurePolicy::kFailClosed);
  EXPECT_TRUE(tight.enable_parameter);  // never cleared
  EXPECT_TRUE(tight.enable_conditional);
  EXPECT_FALSE(tight.enable_indirect);  // policy did not ask for it
  EXPECT_FALSE(tight.monitor_only);

  EXPECT_TRUE(control::is_tightening_of(tight, loose));
  EXPECT_FALSE(control::is_tightening_of(loose, tight));

  // Applying no bits is the identity (and trivially a tightening).
  const checker::CheckerConfig same = control::apply_policy({}, loose);
  EXPECT_TRUE(control::is_tightening_of(same, loose));
  EXPECT_TRUE(control::is_tightening_of(loose, same));
}

// The "new CVE, enforce fdc everywhere now" flow: a fleet with an
// opted-out shard is hardened by ONE tenant-level policy write, picked up
// by the shard's policy polling mid-run.
TEST(PolicyEnforcement, OneTenantWriteProtectsOptedOutShard) {
  spec::SpecStore store;
  enforce::publish_device_specs(store, {"fdc"});

  control::PolicyTree tree;
  enforce::ServiceConfig svc;
  svc.policy = &tree;
  svc.spec_poll_ops = 8;

  std::vector<enforce::ShardSpec> shards(2);
  for (auto& s : shards) {
    s.device = "fdc";
    s.ops = 400;
  }
  shards[1].unprotected = true;
  // Deterministic mid-run write from the shard's own thread: at operation
  // 100 the tenant enforces fdc fleet-wide; the next policy poll must
  // deploy a checker on the opted-out shard.
  shards[1].op_hook = [&tree](uint64_t op) {
    if (op == 100) {
      control::Policy p;
      p.per_device["fdc"].enforce = true;
      tree.tighten_tenant(p);
    }
  };

  enforce::EnforcementService service(&store, svc);
  const enforce::RunReport report = service.run(shards);
  ASSERT_TRUE(report.ok()) << report.shards[1].error;

  const enforce::ShardResult& opted_out = report.shards[1];
  EXPECT_TRUE(opted_out.ended_protected);
  EXPECT_GE(opted_out.policy_redeploys, 1u);
  // The shard ran bare before the write, protected after: it checked
  // fewer rounds than it drove operations, but did check.
  EXPECT_GT(opted_out.stats.rounds, 0u);
  EXPECT_LT(opted_out.stats.rounds, opted_out.bus_accesses);
  // The always-protected sibling never needed a policy redeploy, but its
  // deploy-time config passed through the (empty-bits) policy unchanged.
  EXPECT_TRUE(report.shards[0].ended_protected);
  // Benign traffic stays benign under the tightened config.
  EXPECT_EQ(report.fleet.blocked, 0u);
}

// A policy write that forces protection must keep trying to deploy until
// it lands: when the first fetch after the write exhausts its retries, the
// shard stays unprotected only until the next poll, not until the next
// policy write.
TEST(PolicyEnforcement, ForcedProtectionRetriesAfterExhaustedFetch) {
  spec::SpecStore store;
  enforce::publish_device_specs(store, {"fdc"});

  control::PolicyTree tree;
  enforce::ServiceConfig svc;
  svc.policy = &tree;
  svc.spec_poll_ops = 8;
  svc.redeploy_backoff_base_us = 5;
  svc.redeploy_backoff_max_us = 50;
  // The channel fails one whole fetch (first try plus every retry), then
  // serves the store.
  auto failures = std::make_shared<std::atomic<int>>(
      1 + static_cast<int>(enforce::kRedeployMaxRetries));
  svc.spec_fetch = [failures, &store](const std::string& device,
                                      spec::SnapshotRef& out) {
    if (failures->fetch_sub(1, std::memory_order_relaxed) > 0) {
      spec::LoadError e;
      e.status = spec::LoadStatus::kCrcMismatch;
      e.detail = "channel down (injected)";
      return e;
    }
    out = store.current(device);
    return spec::LoadError{};
  };

  std::vector<enforce::ShardSpec> shards(1);
  shards[0].device = "fdc";
  shards[0].ops = 400;
  shards[0].unprotected = true;
  shards[0].op_hook = [&tree](uint64_t op) {
    if (op == 100) {
      control::Policy p;
      p.per_device["fdc"].enforce = true;
      tree.tighten_tenant(p);
    }
  };

  enforce::EnforcementService service(&store, svc);
  const enforce::RunReport report = service.run(shards);
  ASSERT_TRUE(report.ok()) << report.shards[0].error;

  const enforce::ShardResult& s = report.shards[0];
  EXPECT_TRUE(s.ended_protected);
  EXPECT_EQ(s.redeploy_failures, 1u);
  EXPECT_GT(s.stats.rounds, 0u);
}

// Opt-out is honored while NO layer enforces: same fleet, no policy write.
TEST(PolicyEnforcement, OptOutHonoredWithoutEnforceBit) {
  spec::SpecStore store;
  enforce::publish_device_specs(store, {"fdc"});

  control::PolicyTree tree;
  enforce::ServiceConfig svc;
  svc.policy = &tree;

  std::vector<enforce::ShardSpec> shards(1);
  shards[0].device = "fdc";
  shards[0].ops = 100;
  shards[0].unprotected = true;

  enforce::EnforcementService service(&store, svc);
  const enforce::RunReport report = service.run(shards);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.shards[0].ended_protected);
  EXPECT_EQ(report.shards[0].stats.rounds, 0u);
  EXPECT_GT(report.shards[0].bus_accesses, 0u);
}

}  // namespace
}  // namespace sedspec
