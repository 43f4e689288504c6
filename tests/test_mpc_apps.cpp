#include "apps/mpc_apps.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "apps/densest_ball.hpp"
#include "apps/emd.hpp"
#include "apps/mst.hpp"
#include "apps/union_find.hpp"
#include "geometry/generators.hpp"
#include "geometry/quantize.hpp"

namespace mpte {
namespace {

using mpc::Cluster;
using mpc::ClusterConfig;

Cluster big_cluster(std::size_t machines = 5) {
  return Cluster(ClusterConfig{machines, 1 << 22, true});
}

MpcEmbedOptions base_options(std::uint64_t seed) {
  MpcEmbedOptions options;
  options.seed = seed;
  options.use_fjlt = false;
  options.delta = 256;
  options.num_buckets = 2;
  return options;
}

/// The sequential hierarchy matching what the MPC pipeline computes for
/// `options` (first attempt's seed).
Hierarchy reference_hierarchy(const PointSet& points,
                              const MpcEmbedOptions& options) {
  const Quantized q = quantize_to_grid(points, options.delta);
  HybridOptions hybrid;
  hybrid.num_buckets = options.num_buckets;
  hybrid.delta = options.delta;
  hybrid.seed = attempt_seed(options.seed, 0);
  auto result = build_hybrid_hierarchy(q.points, hybrid);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(MpcTreeEmd, ValidatesInputs) {
  Cluster cluster = big_cluster();
  const PointSet a = generate_uniform_cube(4, 2, 10.0, 1);
  const PointSet b = generate_uniform_cube(5, 2, 10.0, 2);
  EXPECT_FALSE(mpc_tree_emd(cluster, a, b, base_options(1)).ok());
  const PointSet c = generate_uniform_cube(4, 3, 10.0, 3);
  EXPECT_FALSE(mpc_tree_emd(cluster, a, c, base_options(1)).ok());
}

TEST(MpcTreeEmd, MatchesSequentialHierarchyEmd) {
  const PointSet a = generate_uniform_cube(20, 3, 30.0, 5);
  const PointSet b = generate_uniform_cube(20, 3, 30.0, 6);
  PointSet all = a;
  for (std::size_t i = 0; i < b.size(); ++i) all.push_back(b[i]);

  const MpcEmbedOptions options = base_options(7);
  Cluster cluster = big_cluster();
  const auto mpc_result = mpc_tree_emd(cluster, a, b, options);
  ASSERT_TRUE(mpc_result.ok()) << mpc_result.status().to_string();

  const Hierarchy hierarchy = reference_hierarchy(all, options);
  std::vector<int> side(40);
  for (std::size_t i = 0; i < 40; ++i) side[i] = i < 20 ? 1 : -1;
  const Quantized q = quantize_to_grid(all, options.delta);
  const double expected = hierarchy_emd(hierarchy, side) * q.scale_back;

  EXPECT_NEAR(mpc_result->emd, expected, 1e-9 * (1.0 + expected));
}

TEST(MpcTreeEmd, DominatesExactEmd) {
  const PointSet a = generate_uniform_cube(12, 3, 30.0, 9);
  const PointSet b = generate_uniform_cube(12, 3, 30.0, 10);
  Cluster cluster = big_cluster();
  const auto result = mpc_tree_emd(cluster, a, b, base_options(11));
  ASSERT_TRUE(result.ok());
  // Tree metric dominates; quantization can nudge by ~eps.
  EXPECT_GE(result->emd, exact_emd(a, b) * 0.9);
}

TEST(MpcTreeEmd, ZeroForIdenticalSides) {
  const PointSet a = generate_uniform_cube(10, 2, 20.0, 13);
  Cluster cluster = big_cluster();
  const auto result = mpc_tree_emd(cluster, a, a, base_options(15));
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->emd, 0.0, 1e-9);
}

TEST(MpcTreeEmd, ConstantRounds) {
  std::size_t rounds_small = 0, rounds_large = 0;
  for (const std::size_t half : {16u, 64u}) {
    const PointSet a = generate_uniform_cube(half, 3, 30.0, 17);
    const PointSet b = generate_uniform_cube(half, 3, 30.0, 18);
    Cluster cluster = big_cluster();
    const auto result = mpc_tree_emd(cluster, a, b, base_options(19));
    ASSERT_TRUE(result.ok());
    (half == 16 ? rounds_small : rounds_large) = result->rounds_used;
  }
  EXPECT_EQ(rounds_small, rounds_large);
}

TEST(MpcTreeEmdWeighted, ReducesToUnweightedForUnitMasses) {
  const PointSet a = generate_uniform_cube(12, 3, 30.0, 61);
  const PointSet b = generate_uniform_cube(12, 3, 30.0, 62);
  const std::vector<std::int64_t> unit(12, 1);
  Cluster c1 = big_cluster();
  Cluster c2 = big_cluster();
  const auto weighted =
      mpc_tree_emd_weighted(c1, a, b, unit, unit, base_options(63));
  const auto plain = mpc_tree_emd(c2, a, b, base_options(63));
  ASSERT_TRUE(weighted.ok() && plain.ok());
  EXPECT_NEAR(weighted->emd, plain->emd, 1e-9 * (1.0 + plain->emd));
}

TEST(MpcTreeEmdWeighted, MatchesSequentialWeightedHierarchyEmd) {
  const PointSet a = generate_uniform_cube(8, 3, 30.0, 64);
  const PointSet b = generate_uniform_cube(6, 3, 30.0, 65);
  const std::vector<std::int64_t> mass_a{3, 1, 2, 1, 4, 1, 2, 1};
  const std::vector<std::int64_t> mass_b{5, 2, 1, 3, 2, 2};
  PointSet all = a;
  for (std::size_t i = 0; i < b.size(); ++i) all.push_back(b[i]);

  const MpcEmbedOptions options = base_options(66);
  Cluster cluster = big_cluster();
  const auto mpc_result =
      mpc_tree_emd_weighted(cluster, a, b, mass_a, mass_b, options);
  ASSERT_TRUE(mpc_result.ok()) << mpc_result.status().to_string();

  // Sequential reference: weighted imbalance over the same hierarchy.
  const Hierarchy hierarchy = reference_hierarchy(all, options);
  const Quantized q = quantize_to_grid(all, options.delta);
  double expected = 0.0;
  for (std::size_t level = 1; level < hierarchy.levels(); ++level) {
    std::unordered_map<std::uint64_t, std::int64_t> imbalance;
    for (std::size_t i = 0; i < all.size(); ++i) {
      const std::int64_t m = i < 8 ? mass_a[i] : -mass_b[i - 8];
      imbalance[hierarchy.cluster_of_point[level][i]] += m;
    }
    for (const auto& [id, im] : imbalance) {
      expected += hierarchy.edge_weight[level] *
                  static_cast<double>(std::llabs(im));
    }
  }
  expected *= q.scale_back;
  EXPECT_NEAR(mpc_result->emd, expected, 1e-9 * (1.0 + expected));
}

TEST(MpcTreeEmdWeighted, Validation) {
  Cluster cluster = big_cluster();
  const PointSet a = generate_uniform_cube(3, 2, 10.0, 67);
  const PointSet b = generate_uniform_cube(3, 2, 10.0, 68);
  EXPECT_FALSE(mpc_tree_emd_weighted(cluster, a, b, {1, 1}, {1, 1, 0},
                                     base_options(69))
                   .ok());
  EXPECT_FALSE(mpc_tree_emd_weighted(cluster, a, b, {1, 1, 1}, {1, 1, 2},
                                     base_options(69))
                   .ok());
  EXPECT_FALSE(mpc_tree_emd_weighted(cluster, a, b, {1, -1, 1}, {1, 0, 0},
                                     base_options(69))
                   .ok());
}

TEST(MpcDensestBall, MatchesSequentialHierarchyVersion) {
  const PointSet points =
      generate_gaussian_clusters(60, 3, 3, 200.0, 1.5, 21);
  const MpcEmbedOptions options = base_options(23);
  const double max_diameter = 50.0;

  Cluster cluster = big_cluster();
  const auto mpc_result =
      mpc_densest_ball(cluster, points, max_diameter, options);
  ASSERT_TRUE(mpc_result.ok()) << mpc_result.status().to_string();

  const Hierarchy hierarchy = reference_hierarchy(points, options);
  const Quantized q = quantize_to_grid(points, options.delta);
  const auto expected =
      hierarchy_densest_ball(hierarchy, max_diameter / q.scale_back);

  EXPECT_EQ(mpc_result->count, expected.count);
  EXPECT_NEAR(mpc_result->diameter, expected.diameter * q.scale_back,
              1e-9 * (1.0 + mpc_result->diameter));
}

TEST(MpcDensestBall, NegativeDiameterRejected) {
  Cluster cluster = big_cluster();
  const PointSet points = generate_uniform_cube(10, 2, 10.0, 25);
  EXPECT_FALSE(
      mpc_densest_ball(cluster, points, -1.0, base_options(27)).ok());
}

TEST(MpcDensestBall, HugeDiameterCapturesEverything) {
  const PointSet points = generate_uniform_cube(40, 3, 20.0, 29);
  Cluster cluster = big_cluster();
  const auto result =
      mpc_densest_ball(cluster, points, 1e9, base_options(31));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 40u);
}

TEST(MpcDensestBall, TinyDiameterGivesSingleton) {
  const PointSet points = generate_uniform_cube(40, 3, 20.0, 33);
  Cluster cluster = big_cluster();
  const auto result =
      mpc_densest_ball(cluster, points, 0.0, base_options(35));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 1u);
  EXPECT_EQ(result->diameter, 0.0);
}

TEST(MpcTreeMst, ProducesSpanningTree) {
  const PointSet points = generate_uniform_cube(50, 3, 30.0, 37);
  Cluster cluster = big_cluster();
  const auto result = mpc_tree_mst(cluster, points, base_options(39));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_EQ(result->edges.size(), points.size() - 1);
  UnionFind uf(points.size());
  for (const MstEdge& e : result->edges) {
    EXPECT_TRUE(uf.unite(e.u, e.v)) << "cycle at " << e.u << "-" << e.v;
  }
  EXPECT_EQ(uf.num_sets(), 1u);
}

TEST(MpcTreeMst, CostDominatesExactMst) {
  const PointSet points = generate_uniform_cube(60, 3, 30.0, 41);
  Cluster cluster = big_cluster();
  const auto result = mpc_tree_mst(cluster, points, base_options(43));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->total_length,
            exact_mst(points).total_length - 1e-9);
  // And within a sane factor on uniform data.
  EXPECT_LT(result->total_length, 20.0 * exact_mst(points).total_length);
}

TEST(MpcTreeMst, ConstantRounds) {
  std::size_t rounds_small = 0, rounds_large = 0;
  for (const std::size_t n : {24u, 96u}) {
    const PointSet points = generate_uniform_cube(n, 3, 30.0, 45);
    Cluster cluster = big_cluster();
    const auto result = mpc_tree_mst(cluster, points, base_options(47));
    ASSERT_TRUE(result.ok());
    (n == 24 ? rounds_small : rounds_large) = result->rounds_used;
  }
  EXPECT_EQ(rounds_small, rounds_large);
}

TEST(MpcTreeMst, ClusteredDataSingleBridge) {
  const PointSet points = generate_two_blobs(40, 3, 2000.0, 1.0, 49);
  Cluster cluster = big_cluster();
  MpcEmbedOptions options = base_options(51);
  options.delta = 1 << 14;  // resolve the tight blobs
  const auto result = mpc_tree_mst(cluster, points, options);
  ASSERT_TRUE(result.ok());
  std::size_t long_edges = 0;
  for (const MstEdge& e : result->edges) {
    if (e.length > 1000.0) ++long_edges;
  }
  EXPECT_EQ(long_edges, 1u);
}

TEST(HierarchyEmd, ValidatesSides) {
  const PointSet points = generate_uniform_cube(10, 2, 20.0, 53);
  const Hierarchy hierarchy =
      reference_hierarchy(points, base_options(55));
  EXPECT_THROW((void)hierarchy_emd(hierarchy, std::vector<int>(3, 0)),
               MpteError);
  EXPECT_THROW((void)hierarchy_emd(hierarchy, std::vector<int>(10, 1)),
               MpteError);
}

TEST(HierarchyDensestBall, MonotoneInDiameter) {
  const PointSet points =
      generate_gaussian_clusters(50, 3, 4, 100.0, 1.0, 57);
  const Hierarchy hierarchy =
      reference_hierarchy(points, base_options(59));
  std::size_t prev = 0;
  for (const double d : {0.0, 5.0, 20.0, 100.0, 1e6}) {
    const auto result = hierarchy_densest_ball(hierarchy, d);
    EXPECT_GE(result.count, std::max<std::size_t>(prev, 1));
    EXPECT_LE(result.diameter, d);
    prev = result.count;
  }
}

}  // namespace
}  // namespace mpte
