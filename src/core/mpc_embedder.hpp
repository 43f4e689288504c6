// Public API: the MPC tree-embedding pipeline (Algorithm 2 / Theorem 1).
//
// Stages, each a constant number of rounds on the simulated cluster:
//
//   (1) MPC FJLT (Theorem 3) when the ambient dimension exceeds the target
//       k = Theta(log n) — see transform/mpc_fjlt.hpp.
//   (2) Distributed quantization to [1, Delta]^dim: local per-dimension
//       extremes, converge-cast to rank 0, broadcast of the bounding box,
//       local snap. (Identical arithmetic to geometry/quantize.hpp, so the
//       sequential and MPC pipelines see the same integer points.)
//   (3) Rank 0 "builds the grids and sends them to all machines": the grid
//       set is its (seed, scale ladder, U) description — the counter-based
//       form of the object Lemma 8 sizes — broadcast via the fan-out tree.
//   (4) Every machine computes, locally, the root-to-leaf path of each of
//       its points (per level, per bucket ball assignment, hash-chained
//       cluster ids — the same chain the sequential Algorithm 1 computes),
//       plus a failure flag if any point is uncovered. A converge-cast
//       aggregates failure; on failure the stage retries with a fresh seed
//       (Theorem 1 "reports failure").
//   (5) The tree is the union of the paths: one shuffle deduplicates the
//       (child, parent) edge records; the host assembles the HST with the
//       same pruning pass as the sequential builder, so for equal seeds
//       the two pipelines return trees with identical metrics.
#pragma once

#include "core/embedder.hpp"
#include "geometry/point_set.hpp"
#include "mpc/cluster.hpp"
#include "partition/hybrid_partition.hpp"
#include "tree/hst.hpp"

namespace mpte {

/// Options for mpc_embed(). Zeros mean "choose per the paper".
struct MpcEmbedOptions {
  /// Buckets r; 0 = auto (Theorem 1's Theta(log log n) raised so the
  /// per-bucket dimension stays <= max_bucket_dim — see
  /// EmbedOptions::max_bucket_dim for the rationale). An explicit r above
  /// the working dimension is clamped to it, exactly as in embed().
  std::uint32_t num_buckets = 0;
  std::size_t max_bucket_dim = 3;
  /// Grid extent Delta; 0 = host-side recommended_delta (the aspect-ratio
  /// promise is an *input* precondition in the paper, so computing it is
  /// not part of the round count).
  std::uint64_t delta = 0;
  double quantize_eps = 0.05;
  std::uint64_t seed = 1;
  bool use_fjlt = true;
  double fjlt_xi = 0.25;
  std::size_t num_grids = 0;
  double fail_prob = 1e-6;
  UncoveredPolicy uncovered = UncoveredPolicy::kFail;
  int max_retries = 3;
  /// Fan-out of broadcast trees (M^eps in the fully scalable regime).
  std::size_t broadcast_fanout = 4;
};

/// A finished MPC embedding: the same Embedding the sequential pipeline
/// returns (point_ids empty: the identity mapping), plus its round count.
struct MpcEmbedding : Embedding {
  /// Rounds consumed by this call (delta of cluster.stats()).
  std::size_t rounds_used = 0;
};

/// Runs the full MPC pipeline on `cluster`. Input scatter and output
/// gather are host-side (the model's input/output are distributed); all
/// real work happens in audited rounds, accounted in cluster.stats().
Result<MpcEmbedding> mpc_embed(mpc::Cluster& cluster, const PointSet& points,
                               const MpcEmbedOptions& options);

}  // namespace mpte
