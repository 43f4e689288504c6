#include "partition/hybrid_partition.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "partition/coverage.hpp"

namespace mpte {
namespace {

/// Number of levels so the diameter bound `diameter_factor * w` drops
/// below 1 (the minimum distance of integer inputs): smallest L with
/// diameter_factor * w_max / 2^L < 1.
std::size_t ladder_levels(double w_max, double diameter_factor) {
  const double target = diameter_factor * w_max;
  if (target < 1.0) return 1;
  return static_cast<std::size_t>(std::floor(std::log2(target))) + 1;
}

}  // namespace

ScaleLadder grid_scale_ladder(std::size_t dim, std::uint64_t delta) {
  ScaleLadder ladder;
  const double sqrt_d = std::sqrt(static_cast<double>(dim));
  // w_1 = delta: one level-1 cell can contain the whole box.
  ladder.w_max = 2.0 * static_cast<double>(delta);
  ladder.levels = ladder_levels(ladder.w_max, sqrt_d);
  ladder.scales.push_back(ladder.w_max);
  ladder.edge_weight.push_back(0.0);
  for (std::size_t level = 1; level <= ladder.levels; ++level) {
    const double w = ladder.w_max / std::exp2(static_cast<double>(level));
    ladder.scales.push_back(w);
    ladder.edge_weight.push_back(sqrt_d * w);
  }
  return ladder;
}

std::uint64_t grid_level_seed(std::uint64_t seed, std::size_t level) {
  return hash_combine(mix64(seed ^ 0x96d1ull), level);
}

ScaleLadder hybrid_scale_ladder(std::size_t dim, std::uint32_t num_buckets,
                                std::uint64_t delta) {
  ScaleLadder ladder;
  const double sqrt_r = std::sqrt(static_cast<double>(num_buckets));
  ladder.w_max =
      static_cast<double>(delta) * std::sqrt(static_cast<double>(dim));
  ladder.levels = ladder_levels(ladder.w_max, 2.0 * sqrt_r);
  ladder.scales.push_back(ladder.w_max);
  ladder.edge_weight.push_back(0.0);
  for (std::size_t level = 1; level <= ladder.levels; ++level) {
    const double w = ladder.w_max / std::exp2(static_cast<double>(level));
    ladder.scales.push_back(w);
    ladder.edge_weight.push_back(2.0 * sqrt_r * w);
  }
  return ladder;
}

std::uint64_t hybrid_root_id(std::uint64_t seed) {
  return mix64(seed ^ 0x700a0ull);
}

PartitionParams resolve_partition_params(const HybridOptions& options,
                                         std::size_t n, std::size_t dim) {
  PartitionParams params;
  params.seed = options.seed;
  params.delta = options.delta;
  params.num_buckets = options.num_buckets;
  params.bucket_dim = static_cast<std::uint32_t>(
      ceil_div(dim, static_cast<std::size_t>(options.num_buckets)));
  params.effective_dim = params.bucket_dim * params.num_buckets;
  params.uncovered_singleton =
      options.uncovered == UncoveredPolicy::kSingleton ? 1 : 0;
  params.num_grids =
      options.num_grids > 0
          ? options.num_grids
          : recommended_num_grids(
                params.bucket_dim, n, params.num_buckets,
                hybrid_scale_ladder(dim, params.num_buckets, options.delta)
                    .levels,
                options.fail_prob);
  return params;
}

std::uint64_t attempt_seed(std::uint64_t seed, std::uint64_t attempt) {
  return hash_combine(mix64(seed), attempt);
}

BallGrids hybrid_ball_grids(const PartitionParams& params, double radius,
                            std::size_t level, std::uint32_t bucket) {
  const std::uint64_t seed = hash_combine(
      hash_combine(mix64(params.seed ^ 0x9b1d5ull), level), bucket);
  return BallGrids(params.bucket_dim, radius, params.num_grids, seed);
}

std::size_t fold_bucket(const BallGrids& grids,
                        std::span<const double> coords, std::size_t offset,
                        std::size_t stride,
                        std::span<const std::uint64_t> salts,
                        std::size_t level, std::uint32_t bucket,
                        UncoveredPolicy policy,
                        std::span<std::uint64_t> ids) {
  const std::size_t k = grids.dim();
  std::size_t uncovered = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::uint64_t ball = grids.assign(coords.subspan(offset + i * stride, k));
    if (ball == kUncovered) {
      ++uncovered;
      ball = policy == UncoveredPolicy::kSingleton
                 ? hash_combine(hash_combine(mix64(0xdeadull), salts[i]),
                                hash_combine(level, bucket))
                 : 0;
    }
    ids[i] = hash_combine(ids[i], ball);
  }
  return uncovered;
}

Status coverage_status(const PartitionParams& params, std::size_t uncovered) {
  if (uncovered == 0 || params.uncovered() == UncoveredPolicy::kSingleton) {
    return Status::Ok();
  }
  return Status(StatusCode::kCoverageFailure,
                "ball partitioning left " + std::to_string(uncovered) +
                    " (point, level, bucket) events uncovered (U=" +
                    std::to_string(params.num_grids) + ")");
}

Hierarchy hybrid_columns(std::span<const double> points, std::size_t dim,
                         const PartitionParams& params,
                         std::span<const std::uint64_t> salts) {
  const std::size_t n = salts.size();
  const std::size_t k = params.bucket_dim;
  // Scale ladder: w_1 = w_max / 2 with w_max = delta * sqrt(d) (an upper
  // bound on the data diameter, so the root's diameter bound covers it).
  const ScaleLadder ladder = hybrid_scale_ladder(dim, params.num_buckets,
                                                 params.delta);

  // Buckets are read in place (row i's bucket j is the slice at
  // i * stride + j * k); only when r does not divide dim are the rows
  // first zero-padded to effective_dim (footnote 3).
  const std::size_t stride = params.effective_dim;
  std::vector<double> padded;
  if (stride != dim) {
    padded.resize(n * stride);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy_n(points.begin() + i * dim, dim, padded.begin() + i * stride);
    }
    points = padded;
  }

  Hierarchy h;
  h.num_buckets = params.num_buckets;
  h.num_grids = params.num_grids;
  h.scales = ladder.scales;
  h.edge_weight = ladder.edge_weight;
  h.cluster_of_point.emplace_back(n, hybrid_root_id(params.seed));

  // Chains continue below singleton clusters; the tree builder prunes them
  // (so the MPC path, where no machine knows global cluster sizes, computes
  // the identical structure).
  for (std::size_t level = 1; level <= ladder.levels; ++level) {
    std::vector<std::uint64_t> next = h.cluster_of_point.back();
    for (std::uint32_t j = 0; j < params.num_buckets; ++j) {
      h.uncovered_events += fold_bucket(
          hybrid_ball_grids(params, ladder.scales[level], level, j), points,
          j * k, stride, salts, level, j, params.uncovered(), next);
    }
    h.cluster_of_point.push_back(std::move(next));
  }
  return h;
}

void fold_grid_level(const ShiftedGrid& grid, std::span<const double> coords,
                     std::span<std::uint64_t> ids) {
  const std::size_t d = grid.dim();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = hash_combine(ids[i], grid.cell_id(coords.subspan(i * d, d)));
  }
}

Result<Hierarchy> build_hybrid_hierarchy(const PointSet& points,
                                         const HybridOptions& options) {
  if (points.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "build_hybrid_hierarchy: empty point set");
  }
  if (options.delta < 1) {
    return Status(StatusCode::kInvalidArgument,
                  "build_hybrid_hierarchy: delta must be >= 1");
  }
  const std::size_t d = points.dim();
  const std::uint32_t r = options.num_buckets;
  if (r < 1 || r > d) {
    return Status(StatusCode::kInvalidArgument,
                  "build_hybrid_hierarchy: need 1 <= num_buckets <= dim");
  }

  const std::size_t n = points.size();
  std::vector<std::uint64_t> salts(n);
  std::iota(salts.begin(), salts.end(), std::uint64_t{0});
  const PartitionParams params = resolve_partition_params(options, n, d);
  Hierarchy h = hybrid_columns(points.raw(), d, params, salts);
  if (Status status = coverage_status(params, h.uncovered_events);
      !status.ok()) {
    return status;
  }
  return h;
}

Result<Hierarchy> build_grid_hierarchy(const PointSet& points,
                                       std::uint64_t delta,
                                       std::uint64_t seed) {
  if (points.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "build_grid_hierarchy: empty point set");
  }
  if (delta < 1) {
    return Status(StatusCode::kInvalidArgument,
                  "build_grid_hierarchy: delta must be >= 1");
  }
  const std::size_t d = points.dim();
  const ScaleLadder ladder = grid_scale_ladder(d, delta);
  Hierarchy h;
  h.num_buckets = static_cast<std::uint32_t>(d);
  h.scales = ladder.scales;
  h.edge_weight = ladder.edge_weight;
  h.cluster_of_point.emplace_back(points.size(), hybrid_root_id(seed));
  for (std::size_t level = 1; level <= ladder.levels; ++level) {
    std::vector<std::uint64_t> next = h.cluster_of_point.back();
    fold_grid_level(
        ShiftedGrid(d, ladder.scales[level], grid_level_seed(seed, level)),
        points.raw(), next);
    h.cluster_of_point.push_back(std::move(next));
  }
  return h;
}

Result<Hierarchy> build_ball_hierarchy(const PointSet& points,
                                       HybridOptions options) {
  options.num_buckets = 1;
  return build_hybrid_hierarchy(points, options);
}

}  // namespace mpte
