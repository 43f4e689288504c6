// Public API: sequential tree embedding pipelines.
//
// embed() runs the paper's full sequential pipeline on arbitrary real
// points in R^d:
//
//   (1) dimension reduction with the FJLT when it pays (Theorem 3),
//   (2) quantization to the integer grid [Delta]^d (the Theorem 1/2 input
//       model; Delta is chosen so rounding perturbs distances negligibly),
//   (3) hierarchical partitioning — grid (Arora baseline), ball (r = 1) or
//       hybrid (Algorithm 1) — with coverage-failure retries,
//   (4) HST assembly.
//
// The returned Embedding owns the tree and enough bookkeeping to convert
// tree distances back to input units.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geometry/point_set.hpp"
#include "geometry/quantize.hpp"
#include "partition/hybrid_partition.hpp"
#include "tree/hst.hpp"

namespace mpte {

/// Which hierarchical partitioning builds the tree.
enum class PartitionMethod {
  /// Arora's random shifted grid [9] — the O(log^2 n) baseline.
  kGrid,
  /// Charikar et al.'s ball partitioning [27] — hybrid with r = 1.
  kBall,
  /// The paper's hybrid partitioning (Algorithm 1).
  kHybrid,
};

const char* to_string(PartitionMethod method);

/// Options for embed(). Zeros mean "choose per the paper".
struct EmbedOptions {
  PartitionMethod method = PartitionMethod::kHybrid;
  /// Buckets r for kHybrid; 0 = auto: max(Theta(log log n) as in
  /// Theorem 1, ceil(dim / max_bucket_dim)). An explicit r above the
  /// working dimension (which the FJLT decides) is clamped to it.
  std::uint32_t num_buckets = 0;
  /// Cap on the per-bucket dimension d/r when num_buckets is auto. The
  /// grid count U grows as 2^{Theta(k log k)} in the bucket dimension k
  /// (Lemma 7), so while r = Theta(log log n) suffices asymptotically,
  /// any implementable scale needs small buckets — the very trade-off
  /// hybridization exists for. 3 keeps U in the hundreds.
  std::size_t max_bucket_dim = 3;
  /// Grid extent Delta; 0 = recommended_delta(points, quantize_eps, 2^20).
  std::uint64_t delta = 0;
  /// Relative distance error budget for quantization when delta = 0.
  double quantize_eps = 0.05;
  /// Root seed; retries derive fresh seeds from it.
  std::uint64_t seed = 1;

  /// Apply the FJLT first when the input dimension exceeds the target k.
  bool use_fjlt = true;
  /// FJLT distortion parameter xi in (0, 0.5).
  double fjlt_xi = 0.25;

  /// Grids per (level, bucket); 0 = auto from Lemma 7's union bound.
  std::size_t num_grids = 0;
  /// Coverage failure probability per run.
  double fail_prob = 1e-6;
  UncoveredPolicy uncovered = UncoveredPolicy::kFail;
  /// Coverage-failure retries before giving up (Theorem 1 reports failure;
  /// retrying with a fresh seed is the standard Monte Carlo amplification).
  int max_retries = 3;
};

/// A finished embedding.
struct Embedding {
  Hst tree;
  /// The points the tree was built on: quantized (and possibly
  /// dimension-reduced) coordinates in [1, delta]^dim.
  PointSet embedded_points;
  /// Multiply a tree distance (or an embedded-space distance) by this to
  /// express it in input units.
  double scale_to_input = 1.0;
  /// Parameters actually used.
  std::uint64_t delta_used = 0;
  std::uint32_t buckets_used = 0;
  std::size_t grids_used = 0;
  std::size_t dim_used = 0;
  bool fjlt_applied = false;
  int retries_used = 0;
  /// Stable external id of each embedded point (dense index -> id). Empty
  /// means the identity mapping 0..n-1 (every static build). mpte::dyn
  /// fills it so erase(id) survives a save/load round trip; embedding_io
  /// persists it in envelope version 2.
  std::vector<std::uint64_t> point_ids;

  /// Tree distance between input points p and q, in input units.
  double distance(std::size_t p, std::size_t q) const {
    return tree.distance(p, q) * scale_to_input;
  }
};

/// Embeds `points` into a weighted tree. Needs at least 2 points. Fails
/// with kCoverageFailure only if all retries fail (probability
/// <= fail_prob^(max_retries+1) under UncoveredPolicy::kFail).
Result<Embedding> embed(const PointSet& points, const EmbedOptions& options);

/// The r used by Theorem 1's parameterization: max(1, round(2·ln ln n)),
/// clamped to [1, dim].
std::uint32_t theorem1_num_buckets(std::size_t n, std::size_t dim);

/// The automatic bucket count: Theorem 1's r, raised so the per-bucket
/// dimension stays <= max_bucket_dim (see EmbedOptions::max_bucket_dim).
std::uint32_t auto_num_buckets(std::size_t n, std::size_t dim,
                               std::size_t max_bucket_dim);

/// The HybridOptions every driver (embed, mpc_embed, the MPC applications,
/// mpte::dyn) partitions with, from its options (EmbedOptions,
/// MpcEmbedOptions, dyn::DynOptions) over n points in the working
/// dimension dim. r is 1 for kBall and dim for kGrid; for kHybrid it is
/// options.num_buckets clamped to dim, or auto_num_buckets when 0. The
/// caller sets the attempt seed.
template <typename DriverOptions>
HybridOptions hybrid_options_for(const DriverOptions& options,
                                 PartitionMethod method, std::size_t n,
                                 std::size_t dim, std::uint64_t delta) {
  const auto d = static_cast<std::uint32_t>(dim);
  HybridOptions hybrid;
  hybrid.num_buckets =
      method == PartitionMethod::kBall   ? 1
      : method == PartitionMethod::kGrid ? d
      : options.num_buckets > 0
          ? std::min(options.num_buckets, d)
          : auto_num_buckets(n, dim, options.max_bucket_dim);
  hybrid.delta = delta;
  hybrid.num_grids = options.num_grids;
  hybrid.fail_prob = options.fail_prob;
  hybrid.uncovered = options.uncovered;
  return hybrid;
}

}  // namespace mpte
