#include "core/mpc_embedder.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dyn/dynamic_embedder.hpp"
#include "geometry/generators.hpp"
#include "tree/distortion.hpp"

namespace mpte {
namespace {

using mpc::Cluster;
using mpc::ClusterConfig;

Cluster big_cluster(std::size_t machines = 4) {
  return Cluster(ClusterConfig{machines, 1 << 22, true});
}

TEST(MpcEmbedder, RejectsTooFewPoints) {
  Cluster cluster = big_cluster();
  const PointSet one = generate_uniform_cube(1, 3, 1.0, 1);
  EXPECT_FALSE(mpc_embed(cluster, one, MpcEmbedOptions{}).ok());
}

TEST(MpcEmbedder, ProducesValidDominatingTree) {
  Cluster cluster = big_cluster(6);
  const PointSet points = generate_uniform_cube(90, 5, 30.0, 3);
  MpcEmbedOptions options;
  options.seed = 5;
  options.use_fjlt = false;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->tree.validate().ok());
  EXPECT_EQ(result->tree.num_points(), 90u);
  const auto stats =
      measure_distortion(result->tree, result->embedded_points, 4000, 1);
  EXPECT_GE(stats.min_ratio, 1.0);
}

TEST(MpcEmbedder, MatchesSequentialPipelineExactly) {
  // Same seed, no FJLT: the MPC tree must realize the identical metric —
  // also when singleton balls are hit (kSingleton with U = 2), which pins
  // the dense-index salt both paths use.
  const PointSet points = generate_uniform_cube(70, 4, 20.0, 7);
  struct Case {
    UncoveredPolicy uncovered;
    std::size_t num_grids;
  };
  for (const Case c : {Case{UncoveredPolicy::kFail, 0},
                       Case{UncoveredPolicy::kSingleton, 2}}) {
    EmbedOptions seq_options;
    seq_options.method = PartitionMethod::kHybrid;
    seq_options.num_buckets = 2;
    seq_options.delta = 256;
    seq_options.seed = 11;
    seq_options.use_fjlt = false;
    seq_options.uncovered = c.uncovered;
    seq_options.num_grids = c.num_grids;
    const auto seq = embed(points, seq_options);
    ASSERT_TRUE(seq.ok());

    Cluster cluster = big_cluster(5);
    MpcEmbedOptions mpc_options;
    mpc_options.num_buckets = 2;
    mpc_options.delta = 256;
    mpc_options.seed = 11;
    mpc_options.use_fjlt = false;
    mpc_options.uncovered = c.uncovered;
    mpc_options.num_grids = c.num_grids;
    const auto par = mpc_embed(cluster, points, mpc_options);
    ASSERT_TRUE(par.ok()) << par.status().to_string();

    if (c.uncovered == UncoveredPolicy::kSingleton) {
      // Not vacuous: the sequential build really takes the singleton path.
      HybridOptions hybrid;
      hybrid.num_buckets = 2;
      hybrid.delta = 256;
      hybrid.seed = attempt_seed(11, 0);
      hybrid.num_grids = c.num_grids;
      hybrid.uncovered = c.uncovered;
      const auto h = build_hybrid_hierarchy(seq->embedded_points, hybrid);
      ASSERT_TRUE(h.ok());
      EXPECT_GT(h->uncovered_events, 0u);
    }

    // Identical quantized points...
    EXPECT_EQ(par->embedded_points.raw(), seq->embedded_points.raw());
    // ...and identical tree metric.
    ASSERT_EQ(par->tree.num_points(), seq->tree.num_points());
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t j = i + 1; j < points.size(); ++j) {
        EXPECT_DOUBLE_EQ(par->tree.distance(i, j), seq->tree.distance(i, j))
            << "pair " << i << "," << j;
      }
    }
  }
}

TEST(MpcEmbedder, ExplicitBucketCountAboveDimClampsInEveryDriver) {
  // r = dim + 3 resolves to r = dim in embed, mpc_embed and dyn alike.
  const std::size_t dim = 4;
  const PointSet points = generate_uniform_cube(40, dim, 20.0, 29);
  const auto r = static_cast<std::uint32_t>(dim + 3);

  EmbedOptions seq_options;
  seq_options.num_buckets = r;
  seq_options.delta = 128;
  seq_options.seed = 31;
  seq_options.use_fjlt = false;
  const auto seq = embed(points, seq_options);
  ASSERT_TRUE(seq.ok()) << seq.status().to_string();
  EXPECT_EQ(seq->buckets_used, dim);

  Cluster cluster = big_cluster(3);
  MpcEmbedOptions mpc_options;
  mpc_options.num_buckets = r;
  mpc_options.delta = 128;
  mpc_options.seed = 31;
  mpc_options.use_fjlt = false;
  const auto par = mpc_embed(cluster, points, mpc_options);
  ASSERT_TRUE(par.ok()) << par.status().to_string();
  EXPECT_EQ(par->buckets_used, dim);

  dyn::DynOptions dyn_options;
  dyn_options.num_buckets = r;
  dyn_options.delta = 128;
  dyn_options.seed = 31;
  const auto dynamic = dyn::DynamicEmbedder::create(points, dyn_options);
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().to_string();
  EXPECT_EQ(dynamic->static_equivalent_options().num_buckets, dim);

  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      EXPECT_EQ(par->distance(i, j), seq->distance(i, j))
          << "pair " << i << "," << j;
    }
  }
}

TEST(MpcEmbedder, ConstantRoundsAcrossN) {
  // The round count must not depend on the input size.
  std::size_t rounds_small = 0, rounds_large = 0;
  for (const std::size_t n : {32u, 256u}) {
    Cluster cluster = big_cluster(4);
    const PointSet points = generate_uniform_cube(n, 4, 20.0, 13);
    MpcEmbedOptions options;
    options.seed = 17;
    options.use_fjlt = false;
    options.delta = 128;
    const auto result = mpc_embed(cluster, points, options);
    ASSERT_TRUE(result.ok());
    (n == 32 ? rounds_small : rounds_large) = result->rounds_used;
  }
  EXPECT_EQ(rounds_small, rounds_large);
}

TEST(MpcEmbedder, WithFjltStageStillDominates) {
  Cluster cluster = big_cluster(4);
  const PointSet points = generate_uniform_cube(64, 300, 10.0, 19);
  MpcEmbedOptions options;
  options.seed = 23;
  options.use_fjlt = true;
  options.fjlt_xi = 0.4;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result->fjlt_applied);
  EXPECT_LT(result->dim_used, 300u);
  const auto stats =
      measure_distortion(result->tree, result->embedded_points, 2000, 1);
  EXPECT_GE(stats.min_ratio, 1.0);
}

TEST(MpcEmbedder, ReportsCoverageFailureAfterRetries) {
  Cluster cluster = big_cluster(4);
  const PointSet points = generate_uniform_cube(120, 5, 10.0, 29);
  MpcEmbedOptions options;
  options.num_buckets = 1;  // 5-dim bucket
  options.num_grids = 2;    // far too few
  options.max_retries = 1;
  options.use_fjlt = false;
  options.seed = 31;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCoverageFailure);
}

TEST(MpcEmbedder, SingletonPolicyAvoidsFailure) {
  Cluster cluster = big_cluster(4);
  const PointSet points = generate_uniform_cube(60, 5, 10.0, 37);
  MpcEmbedOptions options;
  options.num_buckets = 1;
  options.num_grids = 2;
  options.uncovered = UncoveredPolicy::kSingleton;
  options.use_fjlt = false;
  options.seed = 41;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->tree.validate().ok());
}

TEST(MpcEmbedder, LocalMemoryStaysWithinConfig) {
  Cluster cluster(ClusterConfig{8, 1 << 18, true});
  const PointSet points = generate_uniform_cube(128, 4, 20.0, 43);
  MpcEmbedOptions options;
  options.use_fjlt = false;
  options.delta = 128;
  options.seed = 47;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_LE(cluster.stats().peak_local_bytes(), 1u << 18);
}

TEST(MpcEmbedder, ScaleToInputRoundTrips) {
  Cluster cluster = big_cluster(4);
  const PointSet points = generate_uniform_cube(50, 3, 100.0, 53);
  MpcEmbedOptions options;
  options.use_fjlt = false;
  options.quantize_eps = 0.02;
  options.seed = 59;
  const auto result = mpc_embed(cluster, points, options);
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i < 15; ++i) {
    for (std::size_t j = i + 1; j < 15; ++j) {
      const double true_dist = l2_distance(points[i], points[j]);
      EXPECT_GE(result->distance(i, j), (1.0 - 0.03) * true_dist);
    }
  }
}

}  // namespace
}  // namespace mpte
