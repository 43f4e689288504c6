// Hybrid partitioning (Definition 3 / Algorithm 1) and the hierarchical
// drivers producing per-level cluster assignments.
//
// One hybrid level with parameters (w, r): the d dimensions are split into
// r contiguous buckets of d/r; each bucket runs an independent ball
// partitioning at scale w on the projected points; two points share a
// hybrid partition iff they share a ball in *every* bucket. r = 1 is pure
// ball partitioning; r = d (with touching balls) is grid partitioning.
//
// The hierarchy halves w per level. Cluster identity at level i is the
// hash chain of per-bucket ball ids along the whole path from the root, so
// the family of clusters is laminar by construction and equals the
// child-product construction in Algorithm 1. Scales start at
// w_1 = Delta*sqrt(d)/2 — high enough that the level-0 root's diameter
// bound covers the whole box, which is what makes the domination inequality
// (Lemma 2) hold at the first separation — and stop once the diameter
// bound 2*sqrt(r)*w drops below the minimum interpoint distance 1 of
// integer inputs, guaranteeing singleton leaves.
//
// The column rule (a point's cluster ids from PartitionParams, coordinates
// and a salt) is written once: fold_bucket per (level, bucket), with
// hybrid_columns the level-major builder over it (fold_grid_level for the
// grid method). The sequential, MPC and dynamic builds differ only in their
// points, where their grids live, and the salt of an uncovered point's
// singleton ball: dense index, emb/idx, or stable id.
//
// Edge weights: the edge entering a level-i node weighs 2*sqrt(r)*w_i
// (hybrid; the within-cluster diameter bound) and sqrt(d)*w_i (grid; the
// cell diagonal). Both satisfy domination; see tree/embedding_builder.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "geometry/point_set.hpp"
#include "partition/ball_partition.hpp"
#include "partition/grid_partition.hpp"

namespace mpte {

/// What to do with a point no grid covered (probability <= fail_prob).
enum class UncoveredPolicy {
  /// Report StatusCode::kCoverageFailure — Theorem 1's contract; the caller
  /// retries with a fresh seed.
  kFail,
  /// Give the point a private singleton ball. Keeps the run alive at the
  /// cost of unbounded distortion for that point's pairs (practical mode).
  kSingleton,
};

/// Options for the hybrid hierarchy (and the special cases r=1, grid).
struct HybridOptions {
  /// Number of dimension buckets r in [1, d]. Dimensions are zero-padded
  /// internally so r divides the effective dimension (footnote 3).
  std::uint32_t num_buckets = 1;
  /// Coordinate bound: points must lie in [1, delta]^d (see
  /// geometry/quantize.hpp). Fixes the scale ladder and level count.
  std::uint64_t delta = 0;
  /// Root randomness; every level/bucket derives its own stream.
  std::uint64_t seed = 0;
  /// Grids per (level, bucket); 0 = auto from recommended_num_grids.
  std::size_t num_grids = 0;
  /// Target failure probability delta for auto num_grids.
  double fail_prob = 1e-6;
  UncoveredPolicy uncovered = UncoveredPolicy::kFail;
};

/// Per-level cluster assignments of a hierarchical partitioning — the
/// input to tree/embedding_builder. Level 0 is the root (all points share
/// one id); cluster ids are hash-chain values over the full path, so
/// chains continue below singleton clusters (the tree builder prunes those
/// — identically for the sequential and MPC paths).
struct Hierarchy {
  /// cluster_of_point[level][point]; level 0 .. levels().
  std::vector<std::vector<std::uint64_t>> cluster_of_point;
  /// Scale w_i per level (scales[0] is the notional root scale, unused).
  std::vector<double> scales;
  /// Weight of the tree edge *entering* a node on this level.
  std::vector<double> edge_weight;
  /// Buckets used (1 for ball, d for grid-style).
  std::uint32_t num_buckets = 1;
  /// Grids per (level, bucket) (0 for the grid method).
  std::size_t num_grids = 0;
  /// Count of (point, level, bucket) cover misses resolved by the
  /// kSingleton policy (always 0 under kFail success).
  std::size_t uncovered_events = 0;

  std::size_t levels() const { return cluster_of_point.size(); }
  std::size_t num_points() const {
    return cluster_of_point.empty() ? 0 : cluster_of_point[0].size();
  }
};

/// The scale/weight ladder shared by the sequential and MPC hybrid
/// pipelines: w_i = w_max / 2^i with w_max = delta*sqrt(d), level count
/// chosen so the diameter bound 2*sqrt(r)*w_L < 1, and per-level edge
/// weights 2*sqrt(r)*w_i.
struct ScaleLadder {
  double w_max = 0.0;
  std::size_t levels = 0;
  /// scales[0] = w_max (root), scales[i] = w_max / 2^i, size levels+1.
  std::vector<double> scales;
  /// edge_weight[i] = weight of an edge entering a level-i node, size
  /// levels+1 (index 0 is 0).
  std::vector<double> edge_weight;
};

ScaleLadder hybrid_scale_ladder(std::size_t dim, std::uint32_t num_buckets,
                                std::uint64_t delta);

/// The ladder build_grid_hierarchy walks: w_max = 2*delta, cell width
/// halving per level until the cell diagonal sqrt(d)*w drops below 1,
/// edge weight sqrt(d)*w_i. Shared with mpte::dyn so incremental updates
/// reproduce the static levels exactly.
ScaleLadder grid_scale_ladder(std::size_t dim, std::uint64_t delta);

/// Per-level seed of the grid hierarchy's ShiftedGrid (counter-based, like
/// hybrid_ball_grids).
std::uint64_t grid_level_seed(std::uint64_t seed, std::size_t level);

/// Root cluster id for a run seed.
std::uint64_t hybrid_root_id(std::uint64_t seed);

/// The resolved description of one hybrid run: everything that fixes every
/// grid of every (level, bucket), plus the uncovered policy. The MPC build
/// broadcasts it verbatim (stage 3, `grids/build`), so its 40-byte layout
/// is wire format.
struct PartitionParams {
  std::uint64_t seed = 0;
  std::uint64_t delta = 0;
  std::uint64_t num_grids = 0;
  std::uint32_t num_buckets = 0;
  std::uint32_t bucket_dim = 0;
  std::uint32_t effective_dim = 0;  // bucket_dim * num_buckets
  std::uint32_t uncovered_singleton = 0;

  UncoveredPolicy uncovered() const {
    return uncovered_singleton != 0 ? UncoveredPolicy::kSingleton
                                    : UncoveredPolicy::kFail;
  }
};
static_assert(sizeof(PartitionParams) == 40, "grids/build wire layout");

/// Resolves `options` (num_buckets in [1, dim]) for n points in `dim`
/// dimensions: bucket_dim = ceil(dim / r), zero-padded to effective_dim
/// (footnote 3); num_grids 0 becomes recommended_num_grids.
PartitionParams resolve_partition_params(const HybridOptions& options,
                                         std::size_t n, std::size_t dim);

/// Partition seed of Monte Carlo retry `attempt` under root seed `seed`
/// (mpte::dyn pins attempt 0).
std::uint64_t attempt_seed(std::uint64_t seed, std::uint64_t attempt);

/// The BallGrids of (level, bucket) under `params` at scale `radius`.
BallGrids hybrid_ball_grids(const PartitionParams& params, double radius,
                            std::size_t level, std::uint32_t bucket);

/// One (level, bucket) step of the column rule over ids.size() rows: row
/// i's bucket is the grids.dim() coordinates at coords[offset + i * stride]
/// (zeros past the true dimension), and its first covering ball is
/// hash-chained into ids[i]. An uncovered row gets a private ball salted
/// by salts[i] under kSingleton, the placeholder 0 under kFail (the caller
/// discards the attempt). Returns the number of uncovered rows.
std::size_t fold_bucket(const BallGrids& grids,
                        std::span<const double> coords, std::size_t offset,
                        std::size_t stride,
                        std::span<const std::uint64_t> salts,
                        std::size_t level, std::uint32_t bucket,
                        UncoveredPolicy policy, std::span<std::uint64_t> ids);

/// kCoverageFailure if `uncovered` events remain under the kFail policy.
Status coverage_status(const PartitionParams& params, std::size_t uncovered);

/// The column rule over salts.size() rows of `points` (row-major, `dim`
/// coordinates each), level-major, returned as their Hierarchy: fold_bucket
/// for every level of the hybrid ladder and every bucket, one (level,
/// bucket) BallGrids at a time, with uncovered events counted.
Hierarchy hybrid_columns(std::span<const double> points, std::size_t dim,
                         const PartitionParams& params,
                         std::span<const std::uint64_t> salts);

/// One level of the grid method: ids[i] = hash_combine(ids[i],
/// grid.cell_id(row i)) over the row-major rows of `coords`.
void fold_grid_level(const ShiftedGrid& grid, std::span<const double> coords,
                     std::span<std::uint64_t> ids);

/// Builds the hybrid hierarchy of Algorithm 1 over integer points in
/// [1, delta]^d. Fails with kCoverageFailure under UncoveredPolicy::kFail
/// if any level/bucket leaves a point uncovered.
Result<Hierarchy> build_hybrid_hierarchy(const PointSet& points,
                                         const HybridOptions& options);

/// Builds Arora's random-shifted-grid hierarchy (the baseline): one grid
/// per level, cell width halving from delta, edge weight sqrt(d)*w.
/// Never fails (grids always cover).
Result<Hierarchy> build_grid_hierarchy(const PointSet& points,
                                       std::uint64_t delta,
                                       std::uint64_t seed);

/// Convenience: ball partitioning hierarchy = hybrid with r = 1.
Result<Hierarchy> build_ball_hierarchy(const PointSet& points,
                                       HybridOptions options);

}  // namespace mpte
