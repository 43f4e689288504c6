// Failure injection against the MPC model audit: every constraint the
// simulator enforces must actually fire, at the boundary, from every
// layer that can breach it — primitives, pipelines, applications.
#include <gtest/gtest.h>

#include "closure_step.hpp"
#include "core/mpc_embedder.hpp"
#include "geometry/generators.hpp"
#include "mpc/primitives.hpp"
#include "mpc/sort.hpp"

namespace mpte::mpc {
namespace {

TEST(Violations, SendExactlyAtCapIsAllowed) {
  Cluster cluster(ClusterConfig{2, 128, true});
  cluster.run_round(closure_step([](MachineContext& ctx) {
    if (ctx.id() == 0) ctx.send(1, std::vector<std::uint8_t>(128));
  }));
  EXPECT_EQ(cluster.stats().records()[0].max_sent_bytes, 128u);
}

TEST(Violations, SendOneByteOverCapThrows) {
  Cluster cluster(ClusterConfig{2, 128, true});
  EXPECT_THROW(cluster.run_round(closure_step([](MachineContext& ctx) {
    if (ctx.id() == 0) ctx.send(1, std::vector<std::uint8_t>(129));
  })),
               MpcViolation);
}

TEST(Violations, AggregateSendsCountAgainstQuota) {
  // Two sends of 70B to different destinations = 140B sent > 128B cap.
  Cluster cluster(ClusterConfig{3, 128, true});
  EXPECT_THROW(cluster.run_round(closure_step([](MachineContext& ctx) {
    if (ctx.id() == 0) {
      ctx.send(1, std::vector<std::uint8_t>(70));
      ctx.send(2, std::vector<std::uint8_t>(70));
    }
  })),
               MpcViolation);
}

TEST(Violations, InboxCountsTowardResidency) {
  // Store is fine, message is fine, but store + inbox crosses the cap at
  // the round boundary.
  Cluster cluster(ClusterConfig{2, 128, true});
  cluster.run_round(closure_step([](MachineContext& ctx) {
    if (ctx.id() == 1) {
      ctx.store().set_blob("held", std::vector<std::uint8_t>(100));
    }
  }));
  EXPECT_THROW(cluster.run_round(closure_step([](MachineContext& ctx) {
    if (ctx.id() == 0) ctx.send(1, std::vector<std::uint8_t>(100));
  })),
               MpcViolation);
}

TEST(Violations, ViolationMessageNamesRoundAndMachine) {
  Cluster cluster(ClusterConfig{2, 64, true});
  try {
    cluster.run_round(
        closure_step([](MachineContext& ctx) {
          if (ctx.id() == 1) ctx.send(0, std::vector<std::uint8_t>(100));
        }),
        "my-round");
    FAIL() << "expected MpcViolation";
  } catch (const MpcViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("my-round"), std::string::npos);
    EXPECT_NE(what.find("machine 1"), std::string::npos);
  }
}

TEST(Violations, BroadcastBlobTooBigForFanoutThrows) {
  // Blob * fanout exceeds the sender's quota.
  Cluster cluster(ClusterConfig{8, 256, true});
  cluster.store(0).set_blob("b", std::vector<std::uint8_t>(200));
  EXPECT_THROW(broadcast_blob(cluster, 0, "b", 4), MpcViolation);
}

TEST(Violations, ShuffleOverloadThrows) {
  // All records share one key: the receiving machine blows its cap.
  Cluster cluster(ClusterConfig{4, 512, true});
  std::vector<KV> records(200, KV{7, 7});
  scatter_vector(cluster, "in", records);
  EXPECT_THROW(shuffle_kv_by_key(cluster, "in", "out"), MpcViolation);
}

TEST(Violations, EmbedderSurfacesViolationWhenClusterTooSmall) {
  // 2 machines x 2KB cannot hold 300 points' paths; the model audit, not
  // a crash or a wrong answer, must stop the run.
  Cluster cluster(ClusterConfig{2, 2048, true});
  const PointSet points = generate_uniform_cube(300, 4, 20.0, 3);
  MpcEmbedOptions options;
  options.use_fjlt = false;
  options.delta = 256;
  EXPECT_THROW((void)mpc_embed(cluster, points, options), MpcViolation);
}

TEST(Violations, DisabledEnforcementRecordsInsteadOfThrowing) {
  Cluster cluster(ClusterConfig{2, 64, false});
  cluster.run_round(closure_step([](MachineContext& ctx) {
    if (ctx.id() == 0) ctx.send(1, std::vector<std::uint8_t>(1000));
  }));
  EXPECT_EQ(cluster.stats().peak_round_io_bytes(), 1000u);
}

TEST(Violations, SampleSortSurvivesAtGenerousCap) {
  // Control: the same primitive passes cleanly with room to breathe —
  // the audits do not false-positive.
  Cluster cluster(ClusterConfig{4, 1 << 16, true});
  std::vector<KV> records;
  for (std::uint64_t i = 0; i < 500; ++i) records.push_back(KV{i * 7, i});
  scatter_vector(cluster, "in", records);
  EXPECT_NO_THROW(sample_sort_kv(cluster, "in", "out"));
}

}  // namespace
}  // namespace mpte::mpc
