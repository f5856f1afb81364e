// SpecStore: copy-on-write snapshot semantics — versions rise per device
// and a superseded snapshot survives while pinned.
#include <gtest/gtest.h>

#include "guest/workload.h"
#include "spec/spec_store.h"

namespace sedspec {
namespace {

using spec::SnapshotRef;
using spec::SpecStore;

spec::EsCfg build_spec_for(const std::string& name) {
  auto w = guest::make_workload(name);
  return pipeline::build_spec(w->device(), [&] { w->training(); });
}

TEST(SpecStore, PublishVersionsMonotonicallyAndOldSnapshotsSurvive) {
  SpecStore store;
  spec::EsCfg cfg = build_spec_for("fdc");
  const SnapshotRef v1 = store.publish(cfg);
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(store.version_of("fdc"), 1u);

  const SnapshotRef v2 = store.publish(cfg);
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(store.current("fdc"), v2);
  EXPECT_EQ(store.publish_count(), 2u);
  EXPECT_EQ(store.size(), 1u);

  // The superseded snapshot is untouched while pinned — the property the
  // concurrent redeploy path depends on.
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->cfg.device_name, "fdc");

  EXPECT_EQ(store.current("nonesuch"), nullptr);
  EXPECT_EQ(store.version_of("nonesuch"), 0u);
}

}  // namespace
}  // namespace sedspec
