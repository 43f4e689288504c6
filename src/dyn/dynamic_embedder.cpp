#include "dyn/dynamic_embedder.hpp"

#include <algorithm>
#include <utility>

#include "tree/embedding_builder.hpp"

namespace mpte::dyn {

Result<DynamicEmbedder> DynamicEmbedder::create(const PointSet& initial,
                                                const DynOptions& options) {
  const std::size_t n = initial.size();
  if (n < 2) {
    return Status(StatusCode::kInvalidArgument,
                  "DynamicEmbedder: need at least two initial points");
  }
  DynamicEmbedder dyn;
  dyn.method_ = options.method;
  dyn.dim_ = initial.dim();
  dyn.seed_ = options.seed;
  dyn.fail_prob_ = options.fail_prob;

  const std::uint64_t delta =
      options.delta > 0
          ? options.delta
          : recommended_delta(initial, options.quantize_eps, 1ull << 20);
  if (delta < 2) {
    return Status(StatusCode::kInvalidArgument,
                  "DynamicEmbedder: delta must be >= 2");
  }
  dyn.frame_ = QuantFrame::of(initial, delta);
  PointSet snapped(n, dyn.dim_);
  for (std::size_t i = 0; i < n; ++i) dyn.frame_.snap(initial[i], snapped[i]);

  HybridOptions hybrid =
      hybrid_options_for(options, options.method, n, dyn.dim_, delta);
  // The static path's attempt-0 seed: incremental updates cannot re-seed
  // (that would change every existing point's column), so the pinned run
  // is exactly retry attempt 0.
  hybrid.seed = attempt_seed(options.seed, 0);

  if (options.method == PartitionMethod::kGrid) {
    dyn.params_.seed = hybrid.seed;
    dyn.params_.delta = delta;
    dyn.params_.num_buckets = hybrid.num_buckets;
    dyn.params_.uncovered_singleton =
        options.uncovered == UncoveredPolicy::kSingleton ? 1 : 0;
    dyn.ladder_ = grid_scale_ladder(dyn.dim_, delta);
    for (std::size_t level = 1; level <= dyn.ladder_.levels; ++level) {
      dyn.level_grids_.emplace_back(dyn.dim_, dyn.ladder_.scales[level],
                                    grid_level_seed(hybrid.seed, level));
    }
  } else {
    dyn.params_ = resolve_partition_params(hybrid, n, dyn.dim_);
    dyn.ladder_ = hybrid_scale_ladder(dyn.dim_, hybrid.num_buckets, delta);
    for (std::size_t level = 1; level <= dyn.ladder_.levels; ++level) {
      for (std::uint32_t j = 0; j < hybrid.num_buckets; ++j) {
        dyn.grids_.push_back(hybrid_ball_grids(
            dyn.params_, dyn.ladder_.scales[level], level, j));
      }
    }
  }

  // The initial points get ids 0..n-1, their dense indexes, so their
  // columns are exactly the static builder's: run it.
  const Result<Hierarchy> columns =
      options.method == PartitionMethod::kGrid
          ? build_grid_hierarchy(snapped, delta, hybrid.seed)
          : build_hybrid_hierarchy(snapped, hybrid);
  if (!columns.ok()) return columns.status();
  for (std::size_t i = 0; i < n; ++i) {
    Record record;
    record.snapped.assign(snapped[i].begin(), snapped[i].end());
    record.column.reserve(columns->levels());
    for (const auto& level : columns->cluster_of_point) {
      record.column.push_back(level[i]);
    }
    dyn.records_.emplace_hint(dyn.records_.end(), i, std::move(record));
  }
  dyn.next_id_ = n;
  return dyn;
}

Result<std::vector<std::uint64_t>> DynamicEmbedder::compute_column(
    std::uint64_t id, std::span<const double> snapped) const {
  std::vector<std::uint64_t> column(ladder_.levels + 1,
                                    hybrid_root_id(params_.seed));
  // Zero-pad so r divides the dimension, exactly like the static builder.
  std::vector<double> padded(std::max<std::size_t>(params_.effective_dim,
                                                   dim_));
  std::copy(snapped.begin(), snapped.end(), padded.begin());
  std::size_t uncovered = 0;
  for (std::size_t level = 1; level <= ladder_.levels; ++level) {
    column[level] = column[level - 1];
    const std::span<std::uint64_t> cell(&column[level], 1);
    if (method_ == PartitionMethod::kGrid) {
      fold_grid_level(level_grids_[level - 1], snapped, cell);
      continue;
    }
    // Salted with the stable id (the static builder salts with the dense
    // index) — see the byte-identity caveat in the header.
    for (std::uint32_t j = 0; j < params_.num_buckets; ++j) {
      uncovered += fold_bucket(grids_[(level - 1) * params_.num_buckets + j],
                               padded, j * params_.bucket_dim, 0,
                               std::span(&id, 1), level, j,
                               params_.uncovered(), cell);
    }
  }
  const Status covered = coverage_status(params_, uncovered);
  if (!covered.ok()) return covered;
  return column;
}

Result<std::uint64_t> DynamicEmbedder::insert(std::span<const double> coords) {
  const std::uint64_t id = next_id_;
  const Status inserted = insert_with_id(id, coords);
  if (!inserted.ok()) return inserted;
  return id;
}

Status DynamicEmbedder::insert_with_id(std::uint64_t id,
                                       std::span<const double> coords) {
  if (coords.size() != dim_) {
    return Status(StatusCode::kInvalidArgument,
                  "insert: point has dimension " +
                      std::to_string(coords.size()) + ", embedder has " +
                      std::to_string(dim_));
  }
  if (records_.count(id) != 0) {
    return Status(StatusCode::kInvalidArgument,
                  "insert: id " + std::to_string(id) + " is already live");
  }
  Record record;
  record.snapped.resize(dim_);
  frame_.snap(coords, record.snapped);
  auto column = compute_column(id, record.snapped);
  if (!column.ok()) return column.status();
  record.column = std::move(column).value();
  cells_recomputed_ += record.column.size();
  records_.emplace(id, std::move(record));
  next_id_ = std::max(next_id_, id + 1);
  return Status::Ok();
}

Status DynamicEmbedder::erase(std::uint64_t id) {
  const auto it = records_.find(id);
  if (it == records_.end()) {
    return Status(StatusCode::kInvalidArgument,
                  "erase: no live point with id " + std::to_string(id));
  }
  if (records_.size() <= 2) {
    return Status(StatusCode::kInvalidArgument,
                  "erase: embedder needs at least two live points");
  }
  records_.erase(it);
  return Status::Ok();
}

std::vector<std::uint64_t> DynamicEmbedder::live_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(records_.size());
  for (const auto& [id, record] : records_) ids.push_back(id);
  return ids;
}

Result<Embedding> DynamicEmbedder::materialize() const {
  const std::size_t n = records_.size();
  if (n < 2) {
    return Status(StatusCode::kInvalidArgument,
                  "materialize: need at least two live points");
  }
  Hierarchy h;
  h.num_buckets = params_.num_buckets;
  h.num_grids = params_.num_grids;
  h.scales = ladder_.scales;
  h.edge_weight = ladder_.edge_weight;
  h.cluster_of_point.assign(ladder_.levels + 1,
                            std::vector<std::uint64_t>(n));
  PointSet points(n, dim_);
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  std::size_t i = 0;
  // std::map iterates in ascending id order — the dense order of the
  // equivalent static build.
  for (const auto& [id, record] : records_) {
    for (std::size_t level = 0; level <= ladder_.levels; ++level) {
      h.cluster_of_point[level][i] = record.column[level];
    }
    std::copy(record.snapped.begin(), record.snapped.end(),
              points[i].begin());
    ids.push_back(id);
    ++i;
  }
  Embedding embedding{
      build_hst(h),
      std::move(points),
      frame_.cell,
      frame_.delta,
      params_.num_buckets,
      params_.num_grids,
      dim_,
      /*fjlt_applied=*/false,
      /*retries_used=*/0,
      std::move(ids),
  };
  return embedding;
}

EmbedOptions DynamicEmbedder::static_equivalent_options() const {
  EmbedOptions options;
  options.method = method_;
  options.num_buckets = params_.num_buckets;
  options.delta = frame_.delta;
  options.seed = seed_;
  options.use_fjlt = false;
  options.num_grids = params_.num_grids;
  options.fail_prob = fail_prob_;
  options.uncovered = params_.uncovered();
  // Byte-identity is pinned to retry attempt 0.
  options.max_retries = 0;
  return options;
}

}  // namespace mpte::dyn
