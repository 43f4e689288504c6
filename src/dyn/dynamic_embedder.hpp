// DynamicEmbedder — incremental HST maintenance for one embedding.
//
// The static pipeline (core/embedder.hpp) derives a point's cluster id at
// every level as a hash chain over per-level, per-bucket ball (or grid
// cell) ids, and each of those ids is a *pure function of (seed, level,
// coordinates)* — no point's id depends on any other point. That is the
// whole reason the construction dynamizes (Goranci et al. 2025, PAPERS.md):
// inserting or erasing a point changes exactly one root-to-leaf column of
// the hierarchy, O(depth) cells, and leaves every other point's column
// untouched.
//
// A DynamicEmbedder pins everything the static pipeline would derive from
// the point set as a whole — delta, the quantization frame (per-dimension
// lows + cell width), bucket count r, grid count U, the scale ladder, and
// the partition structures for every (level, bucket) — at creation, then
// maintains a map from stable point id to that point's snapped coordinates
// and cluster-id column. create() builds the initial columns with the
// static builder itself (build_hybrid_hierarchy / build_grid_hierarchy);
// insert() runs the same per-level fold (fold_bucket / fold_grid_level) on
// one point over the pinned tables (O(levels * r) ball probes); erase()
// drops one column. materialize() lays the live columns out in ascending-id
// order and runs the *same* build_hst the static path
// runs, so the produced tree is byte-identical (hst_to_bytes) to
// embed(final_points, static_equivalent_options()) whenever the final
// set's bounding box matches the pinned frame — the core correctness
// contract, asserted by tests/test_dyn.cpp.
//
// Determinism caveats (see docs/dynamic-embeddings.md):
//  * No FJLT: the transform's output dimension is a function of n, which
//    changes under updates. Dynamic instances always embed raw
//    (quantized) coordinates.
//  * UncoveredPolicy::kSingleton salts the fallback ball id with the
//    point's *stable id*, where the static builder salts with the dense
//    index. The two agree while the live ids are exactly 0..n-1 — after
//    create() and any run of insert() calls — so singleton salts diverge
//    only after a remove (erase(), or an insert_with_id that skips ids).
//    From then on byte-identity requires zero uncovered events
//    (guaranteed under kFail, overwhelmingly likely under the default
//    fail_prob).
//  * The partition seed is the static path's attempt-0 retry seed. If
//    attempt 0 would fail coverage, create()/insert() report
//    kCoverageFailure instead of silently re-seeding (re-seeding would
//    reshuffle every existing point's column — a full rebuild).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "core/embedder.hpp"
#include "geometry/point_set.hpp"
#include "geometry/quantize.hpp"
#include "partition/hybrid_partition.hpp"

namespace mpte::dyn {

/// Options for DynamicEmbedder::create(). Zeros mean "resolve from the
/// initial point set, then pin" — after creation nothing auto-adapts.
struct DynOptions {
  PartitionMethod method = PartitionMethod::kHybrid;
  /// Buckets r for kHybrid; 0 = auto_num_buckets over the *initial* set.
  /// An explicit r above dim is clamped to dim, as in embed().
  std::uint32_t num_buckets = 0;
  /// Cap on the per-bucket dimension when num_buckets is auto.
  std::size_t max_bucket_dim = 3;
  /// Grid extent Delta; 0 = recommended_delta over the initial set.
  std::uint64_t delta = 0;
  /// Relative distance error budget for quantization when delta = 0.
  double quantize_eps = 0.05;
  /// Root seed, in embed() terms: the partition seed actually used is the
  /// attempt-0 derivation hash_combine(mix64(seed), 0).
  std::uint64_t seed = 1;
  /// Grids per (level, bucket); 0 = recommended_num_grids over the
  /// initial set.
  std::size_t num_grids = 0;
  double fail_prob = 1e-6;
  UncoveredPolicy uncovered = UncoveredPolicy::kFail;
};

class DynamicEmbedder {
 public:
  /// Pins the configuration against `initial` (>= 2 points) and inserts
  /// its points with ids 0..n-1. Fails with kCoverageFailure when the
  /// pinned seed leaves a point uncovered under kFail (retry with a
  /// different options.seed).
  static Result<DynamicEmbedder> create(const PointSet& initial,
                                        const DynOptions& options);

  DynamicEmbedder(DynamicEmbedder&&) = default;
  DynamicEmbedder& operator=(DynamicEmbedder&&) = default;
  DynamicEmbedder(const DynamicEmbedder&) = delete;
  DynamicEmbedder& operator=(const DynamicEmbedder&) = delete;

  /// Inserts a point given in *input* units; returns its new stable id.
  /// O(levels * r) partition probes — the O(depth) update of the paper.
  Result<std::uint64_t> insert(std::span<const double> coords);

  /// Inserts under a caller-chosen id (ensemble members must agree on
  /// ids). Fails with kInvalidArgument if the id is live.
  Status insert_with_id(std::uint64_t id, std::span<const double> coords);

  /// Removes a live point. Fails with kInvalidArgument on an unknown id,
  /// or when the removal would leave fewer than 2 points (embed()'s own
  /// lower bound).
  Status erase(std::uint64_t id);

  bool contains(std::uint64_t id) const { return records_.count(id) != 0; }
  std::size_t size() const { return records_.size(); }
  std::size_t dim() const { return dim_; }
  std::size_t levels() const { return ladder_.levels; }
  /// The id insert() will assign next (monotonic, never reused).
  std::uint64_t next_id() const { return next_id_; }
  /// Live ids in ascending order — the dense order materialize() uses.
  std::vector<std::uint64_t> live_ids() const;
  const QuantFrame& frame() const { return frame_; }

  /// Cumulative count of hierarchy cells (point-level cluster ids)
  /// recomputed by inserts — the "subtree nodes re-embedded" statistic.
  /// Each insert adds levels()+1; erases add nothing (they only drop a
  /// column).
  std::uint64_t cells_recomputed() const { return cells_recomputed_; }

  /// Rebuilds the full Embedding over the live set: columns in ascending
  /// id order -> Hierarchy -> the shared build_hst. O(n * depth), no
  /// partition probes. Byte-identical to the static build over the same
  /// final set (see file comment for the exact conditions).
  Result<Embedding> materialize() const;

  /// The EmbedOptions a from-scratch embed() needs to reproduce this
  /// instance's trees: every pinned parameter made explicit, FJLT off.
  EmbedOptions static_equivalent_options() const;

 private:
  struct Record {
    /// Snapped coordinates, dim() entries in {1, ..., delta}.
    std::vector<double> snapped;
    /// Cluster-id column, levels()+1 entries (level 0 = root id).
    std::vector<std::uint64_t> column;
  };

  DynamicEmbedder() = default;

  /// The cluster-id column of one snapped point: the static builder's fold
  /// over the pinned tables. `id` only salts the kSingleton fallback.
  Result<std::vector<std::uint64_t>> compute_column(
      std::uint64_t id, std::span<const double> snapped) const;

  PartitionMethod method_ = PartitionMethod::kHybrid;
  std::size_t dim_ = 0;
  std::uint64_t seed_ = 0;  // embed()-level root seed
  /// The pinned partition (attempt-0 seed); the grid method sets only
  /// seed, delta, num_buckets (= dim) and the policy.
  PartitionParams params_;
  double fail_prob_ = 1e-6;
  QuantFrame frame_;
  ScaleLadder ladder_;
  /// Hybrid/ball: grids_[(level-1) * r + bucket]; immutable once built.
  std::vector<BallGrids> grids_;
  /// Grid method: one ShiftedGrid per level (index level-1).
  std::vector<ShiftedGrid> level_grids_;

  std::map<std::uint64_t, Record> records_;
  std::uint64_t next_id_ = 0;
  std::uint64_t cells_recomputed_ = 0;
};

}  // namespace mpte::dyn
