#include "core/mpc_stages.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "geometry/generators.hpp"
#include "geometry/quantize.hpp"
#include "mpc/primitives.hpp"

namespace mpte::detail {
namespace {

using mpc::Cluster;
using mpc::ClusterConfig;
using mpc::KV;

Cluster test_cluster(std::size_t machines = 4) {
  return Cluster(ClusterConfig{machines, 1 << 22, true});
}

TEST(PackLevelNode, RoundTripsLevel) {
  for (const std::size_t level : {0u, 1u, 17u, 63u}) {
    const std::uint64_t key = pack_level_node(level, mix64(level + 99));
    EXPECT_EQ(packed_level(key), level);
  }
}

TEST(PackLevelNode, DistinctIdsStayDistinct) {
  std::set<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    keys.insert(pack_level_node(3, mix64(i)));
  }
  EXPECT_EQ(keys.size(), 1000u);
}

TEST(ScatterPoints, PreservesIndexCoordinatePairing) {
  Cluster cluster = test_cluster(3);
  const PointSet points = generate_uniform_cube(10, 2, 5.0, 1);
  scatter_points(cluster, points);
  for (std::uint32_t id = 0; id < 3; ++id) {
    const auto idx = cluster.store(id).get_vector<std::uint64_t>("emb/idx");
    const auto data = cluster.store(id).get_vector<double>("emb/pts");
    ASSERT_EQ(data.size(), idx.size() * 2);
    for (std::size_t local = 0; local < idx.size(); ++local) {
      EXPECT_EQ(data[local * 2], points.coord(idx[local], 0));
      EXPECT_EQ(data[local * 2 + 1], points.coord(idx[local], 1));
    }
  }
}

TEST(MpcQuantize, MatchesSequentialQuantizer) {
  Cluster cluster = test_cluster(4);
  const PointSet points = generate_uniform_cube(37, 3, 80.0, 3);
  const std::uint64_t delta = 128;
  scatter_points(cluster, points);
  mpc_quantize(cluster, 3, delta, 2);

  const Quantized expected = quantize_to_grid(points, delta);
  for (std::uint32_t id = 0; id < 4; ++id) {
    const auto idx = cluster.store(id).get_vector<std::uint64_t>("emb/idx");
    const auto data = cluster.store(id).get_vector<double>("emb/pts");
    for (std::size_t local = 0; local < idx.size(); ++local) {
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(data[local * 3 + j],
                  expected.points.coord(idx[local], j))
            << "point " << idx[local] << " coord " << j;
      }
    }
  }
}

PartitionParams make_params(std::uint64_t seed, std::size_t n,
                            std::size_t dim, std::uint32_t r,
                            std::uint64_t delta) {
  HybridOptions options;
  options.num_buckets = r;
  options.delta = delta;
  options.seed = seed;
  return resolve_partition_params(options, n, dim);
}

TEST(RunPartitionAttempt, EdgesMatchSequentialHierarchy) {
  const std::size_t n = 25, dim = 3;
  const std::uint64_t delta = 64, seed = 77;
  const PointSet raw = generate_uniform_cube(n, dim, 40.0, 5);
  const Quantized q = quantize_to_grid(raw, delta);

  Cluster cluster = test_cluster(3);
  scatter_points(cluster, q.points);
  const auto params = make_params(seed, n, dim, 2, delta);
  const std::uint64_t failures =
      run_partition_attempt(cluster, dim, params, 2);
  ASSERT_EQ(failures, 0u);

  // Sequential reference ids.
  HybridOptions options;
  options.num_buckets = 2;
  options.delta = delta;
  options.seed = seed;
  const auto hierarchy = build_hybrid_hierarchy(q.points, options);
  ASSERT_TRUE(hierarchy.ok());

  // Every sequential (child, parent) id pair must appear in the gathered
  // edge records and vice versa.
  std::set<std::pair<std::uint64_t, std::uint64_t>> expected;
  for (std::size_t level = 1; level < hierarchy->levels(); ++level) {
    for (std::size_t i = 0; i < n; ++i) {
      expected.emplace(hierarchy->cluster_of_point[level][i],
                       hierarchy->cluster_of_point[level - 1][i]);
    }
  }
  std::set<std::pair<std::uint64_t, std::uint64_t>> actual;
  for (const KV& kv : mpc::gather_vector<KV>(cluster, "emb/edges")) {
    actual.emplace(kv.key, kv.value);
  }
  EXPECT_EQ(actual, expected);
}

TEST(RunPathRecordsAttempt, RecordsCoverEveryPointAndLevel) {
  const std::size_t n = 20, dim = 2;
  const std::uint64_t delta = 32, seed = 99;
  const PointSet raw = generate_uniform_cube(n, dim, 40.0, 7);
  const Quantized q = quantize_to_grid(raw, delta);

  Cluster cluster = test_cluster(4);
  scatter_points(cluster, q.points);
  const auto params = make_params(seed, n, dim, 2, delta);
  ASSERT_EQ(run_path_records_attempt(cluster, dim, params, 2), 0u);

  const ScaleLadder ladder = hybrid_scale_ladder(dim, 2, delta);
  const auto records = mpc::gather_vector<KV>(cluster, "emb/nodes");
  EXPECT_EQ(records.size(), n * ladder.levels);
  std::vector<std::size_t> per_point(n, 0);
  for (const KV& kv : records) {
    const std::size_t level = packed_level(kv.key);
    EXPECT_GE(level, 1u);
    EXPECT_LE(level, ladder.levels);
    ++per_point[kv.value];
  }
  for (const std::size_t count : per_point) {
    EXPECT_EQ(count, ladder.levels);
  }
}

TEST(RunPathRecordsAttempt, LinksFormChains) {
  const std::size_t n = 15, dim = 2;
  const std::uint64_t delta = 32, seed = 111;
  const PointSet raw = generate_uniform_cube(n, dim, 40.0, 9);
  const Quantized q = quantize_to_grid(raw, delta);

  Cluster cluster = test_cluster(3);
  scatter_points(cluster, q.points);
  const auto params = make_params(seed, n, dim, 1, delta);
  ASSERT_EQ(run_path_records_attempt(cluster, dim, params, 2,
                                     /*emit_links=*/true),
            0u);

  const auto links = mpc::gather_vector<KV>(cluster, "emb/links");
  EXPECT_FALSE(links.empty());
  for (const KV& link : links) {
    EXPECT_EQ(packed_level(link.key), packed_level(link.value) + 1);
  }
  // The root appears as a parent of every level-1 link.
  const std::uint64_t packed_root =
      pack_level_node(0, hybrid_root_id(seed));
  bool saw_root = false;
  for (const KV& link : links) {
    if (link.value == packed_root) saw_root = true;
  }
  EXPECT_TRUE(saw_root);
}

TEST(RunPartitionAttempt, ReportsFailuresWithStarvedGrids) {
  const std::size_t n = 40, dim = 4;
  const PointSet raw = generate_uniform_cube(n, dim, 40.0, 11);
  const Quantized q = quantize_to_grid(raw, 64);

  Cluster cluster = test_cluster(3);
  scatter_points(cluster, q.points);
  auto params = make_params(13, n, dim, 1, 64);
  params.num_grids = 1;  // hopeless coverage in 4 dims
  EXPECT_GT(run_partition_attempt(cluster, dim, params, 2), 0u);
}

}  // namespace
}  // namespace mpte::detail
