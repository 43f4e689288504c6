#include "apps/mpc_apps.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/mpc_stages.hpp"
#include "geometry/quantize.hpp"
#include "mpc/primitives.hpp"
#include "mpc/step.hpp"
#include "transform/mpc_fjlt.hpp"

namespace mpte {
namespace {

using mpc::StepParams;
using mpc::Channel;
using mpc::Cluster;
using mpc::Key;
using mpc::KV;
using mpc::MachineContext;
using mpc::MachineId;
using mpc::RegisterStep;
using mpc::Step;
using mpc::StepSpec;
using mpc::ValueKey;
using detail::keys::kFail;
using detail::keys::kFailTotal;
using detail::keys::kIdx;
using detail::keys::kLinks;
using detail::keys::kNodes;
using detail::keys::kPts;

// Typed handles to the per-application cluster state.
const Key<KV> kEmdIn{"emd/in"};
const Key<KV> kEmdImbalance{"emd/imbalance"};
const ValueKey<double> kEmdPartial{"emd/partial"};
const ValueKey<double> kEmdTotal{"emd/total"};
const Key<std::int64_t> kMass{"emb/mass"};
const Key<KV> kDbIn{"db/in"};
const Key<KV> kDbCounts{"db/counts"};
const Key<KV> kMstRep{"mst/rep"};
const Key<KV> kMstLinks{"mst/links"};
const Key<KV> kMstEdges{"mst/edges"};
const Key<KV> kMstEdgesDedup{"mst/edges/dedup"};

/// Wire record of the densest-ball converge-cast: a machine's best
/// qualifying cluster size and its diameter bound.
struct BallBest {
  std::uint64_t count;
  double bound;
};

const Channel<BallBest> kBestCh{"db/best"};
const ValueKey<BallBest> kBestKey{"db/best"};

// --- registered steps -------------------------------------------------------
// Level weights and diameter bounds are recomputed worker-side from the
// ladder's defining triple (dim, num_buckets, delta) — the same
// counter-based-randomness discipline the partition stages use.

Step make_emd_label(StepParams params) {
  Deserializer d(params);
  const auto a_count = d.read<std::uint64_t>();
  return [a_count](MachineContext& ctx) {
    auto records = kNodes.get(ctx.store());
    kNodes.erase(ctx.store());
    for (KV& kv : records) {
      const std::int64_t side = kv.value < a_count ? 1 : -1;
      kv.value = static_cast<std::uint64_t>(side);
    }
    kEmdIn.set(ctx.store(), records);
  };
}

Step make_emd_label_weighted(StepParams /*params*/) {
  return [](MachineContext& ctx) {
    const auto idx = kIdx.get(ctx.store());
    const auto mass = kMass.get(ctx.store());
    std::unordered_map<std::uint64_t, std::int64_t> mass_of;
    mass_of.reserve(idx.size());
    for (std::size_t local = 0; local < idx.size(); ++local) {
      mass_of.emplace(idx[local], mass[local]);
    }
    auto records = kNodes.get(ctx.store());
    kNodes.erase(ctx.store());
    for (KV& kv : records) {
      kv.value = static_cast<std::uint64_t>(mass_of.at(kv.value));
    }
    kEmdIn.set(ctx.store(), records);
  };
}

Step make_emd_weight(StepParams params) {
  Deserializer d(params);
  const auto dim = static_cast<std::size_t>(d.read<std::uint64_t>());
  const auto num_buckets = d.read<std::uint32_t>();
  const auto delta = d.read<std::uint64_t>();
  return [dim, num_buckets, delta](MachineContext& ctx) {
    const ScaleLadder ladder = hybrid_scale_ladder(dim, num_buckets, delta);
    double partial = 0.0;
    for (const KV& kv : kEmdImbalance.get(ctx.store())) {
      const std::size_t level = detail::packed_level(kv.key);
      const auto imbalance = static_cast<std::int64_t>(kv.value);
      partial += ladder.edge_weight[level] *
                 static_cast<double>(std::llabs(imbalance));
    }
    kEmdImbalance.erase(ctx.store());
    kEmdPartial.set(ctx.store(), partial);
  };
}

Step make_densest_count_prep(StepParams /*params*/) {
  return [](MachineContext& ctx) {
    auto records = kNodes.get(ctx.store());
    kNodes.erase(ctx.store());
    for (KV& kv : records) kv.value = 1;
    kDbIn.set(ctx.store(), records);
  };
}

Step make_densest_local_best(StepParams params) {
  Deserializer d(params);
  const auto dim = static_cast<std::size_t>(d.read<std::uint64_t>());
  const auto num_buckets = d.read<std::uint32_t>();
  const auto delta = d.read<std::uint64_t>();
  const auto max_diameter_q = d.read<double>();
  return [dim, num_buckets, delta, max_diameter_q](MachineContext& ctx) {
    const ScaleLadder ladder = hybrid_scale_ladder(dim, num_buckets, delta);
    const double sqrt_r = std::sqrt(static_cast<double>(num_buckets));
    BallBest best{0, 0.0};
    for (const KV& kv : kDbCounts.get(ctx.store())) {
      const std::size_t level = detail::packed_level(kv.key);
      const double bound = 2.0 * sqrt_r * ladder.scales[level];
      if (bound > max_diameter_q) continue;
      if (kv.value > best.count) best = BallBest{kv.value, bound};
    }
    kDbCounts.erase(ctx.store());
    kBestCh.send_one(ctx, 0, best);
  };
}

Step make_densest_global_best(StepParams /*params*/) {
  return [](MachineContext& ctx) {
    if (ctx.id() != 0) return;
    BallBest best{1, 0.0};  // a singleton always qualifies
    for (const BallBest& candidate : kBestCh.receive_raw(ctx)) {
      if (candidate.count > best.count) best = candidate;
    }
    kBestKey.set(ctx.store(), best);
  };
}

Step make_mst_route_child_reps(StepParams /*params*/) {
  return [](MachineContext& ctx) {
    const std::size_t m = ctx.num_machines();
    const Channel<KV> reps_ch{kMstLinks.name};
    std::unordered_map<std::uint64_t, std::uint64_t> rep;
    for (const KV& kv : kMstRep.get(ctx.store())) {
      rep.emplace(kv.key, kv.value);
    }
    std::vector<std::vector<KV>> out(m);
    for (const KV& link : kMstLinks.get(ctx.store())) {
      const std::uint64_t child_rep = rep.at(link.key);
      out[mix64(link.value) % m].push_back(KV{link.value, child_rep});
    }
    kMstLinks.erase(ctx.store());
    for (MachineId dst = 0; dst < m; ++dst) {
      if (!out[dst].empty()) reps_ch.send(ctx, dst, out[dst]);
    }
  };
}

Step make_mst_emit_edges(StepParams /*params*/) {
  return [](MachineContext& ctx) {
    const Channel<KV> reps_ch{kMstLinks.name};
    std::unordered_map<std::uint64_t, std::uint64_t> rep;
    for (const KV& kv : kMstRep.get(ctx.store())) {
      rep.emplace(kv.key, kv.value);
    }
    kMstRep.erase(ctx.store());
    std::vector<KV> edges;
    for (const KV& record : reps_ch.receive(ctx)) {
      // record = {parent node, child rep}.
      const auto it = rep.find(record.key);
      // The root (level 0) never appears under kNodes — its
      // representative is the global min index, 0.
      const std::uint64_t parent_rep = it != rep.end() ? it->second : 0;
      if (parent_rep != record.value) {
        edges.push_back(KV{std::min(parent_rep, record.value),
                           std::max(parent_rep, record.value)});
      }
    }
    std::sort(edges.begin(), edges.end(), mpc::kv_less);
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    kMstEdges.set(ctx.store(), edges);
  };
}

const RegisterStep kRegEmdLabel{"emd/label", make_emd_label};
const RegisterStep kRegEmdLabelWeighted{"emd/label-weighted",
                                        make_emd_label_weighted};
const RegisterStep kRegEmdWeight{"emd/weight", make_emd_weight};
const RegisterStep kRegDensestCountPrep{"densest/count-prep",
                                        make_densest_count_prep};
const RegisterStep kRegDensestLocalBest{"densest/local-best",
                                        make_densest_local_best};
const RegisterStep kRegDensestGlobalBest{"densest/global-best",
                                         make_densest_global_best};
const RegisterStep kRegMstRouteChildReps{"mst/route-child-reps",
                                         make_mst_route_child_reps};
const RegisterStep kRegMstEmitEdges{"mst/emit-edges", make_mst_emit_edges};

/// Everything the shared pipeline prologue produces.
struct Prep {
  std::size_t dim = 0;
  std::uint64_t delta = 0;
  double scale_to_input = 1.0;
  PartitionParams params;
  ScaleLadder ladder;
  int retries = 0;
  std::size_t rounds_before = 0;
};

/// Runs stages 1–4 (FJLT, quantize, grids, path records) with retries and
/// leaves keys::kNodes (+ optional keys::kLinks) distributed.
Result<Prep> prepare_paths(Cluster& cluster, const PointSet& points,
                           const MpcEmbedOptions& options, bool emit_links) {
  if (points.size() < 2) {
    return Status(StatusCode::kInvalidArgument,
                  "mpc apps: need at least two points");
  }
  Prep prep;
  prep.rounds_before = cluster.stats().rounds();
  const std::size_t n = points.size();

  PointSet working = points;
  if (options.use_fjlt) {
    const FjltConfig config = FjltConfig::make(
        n, points.dim(), options.fjlt_xi, mix64(options.seed));
    if (config.output_dim < points.dim()) {
      working = mpc_fjlt(cluster, points, config);
    }
  }
  prep.dim = working.dim();

  prep.delta =
      options.delta > 0
          ? options.delta
          : recommended_delta(working, options.quantize_eps, 1ull << 20);
  if (prep.delta < 2) {
    return Status(StatusCode::kInvalidArgument,
                  "mpc apps: delta must be >= 2");
  }

  detail::scatter_points(cluster, working);
  detail::mpc_quantize(cluster, prep.dim, prep.delta,
                       options.broadcast_fanout);
  prep.scale_to_input = QuantFrame::of(working, prep.delta).cell;
  prep.params = resolve_partition_params(
      hybrid_options_for(options, PartitionMethod::kHybrid, n, prep.dim,
                         prep.delta),
      n, prep.dim);
  prep.ladder =
      hybrid_scale_ladder(prep.dim, prep.params.num_buckets, prep.delta);

  for (prep.retries = 0;; ++prep.retries) {
    prep.params.seed =
        attempt_seed(options.seed, static_cast<std::uint64_t>(prep.retries));
    const std::uint64_t failures = detail::run_path_records_attempt(
        cluster, prep.dim, prep.params, options.broadcast_fanout,
        emit_links);
    if (failures == 0) break;
    if (prep.retries >= options.max_retries) {
      return Status(StatusCode::kCoverageFailure,
                    "mpc apps: ball partitioning left " +
                        std::to_string(failures) +
                        " (point, level, bucket) events uncovered after " +
                        std::to_string(prep.retries + 1) + " attempts");
    }
  }
  return prep;
}

/// Clears all per-run keys from every machine.
void cleanup(Cluster& cluster, std::initializer_list<std::string> keys) {
  for (MachineId id = 0; id < cluster.num_machines(); ++id) {
    for (const std::string& key : keys) cluster.store(id).erase(key);
  }
}

/// Scatters a signed per-point value with the same block layout as
/// detail::scatter_points, so each machine holds the values of exactly its
/// own points (keyed by global index in "emb/idx").
void scatter_point_values(Cluster& cluster, const Key<std::int64_t>& key,
                          const std::vector<std::int64_t>& values) {
  // Host-side write: suppressed while fast-forwarding a restored run, like
  // every other scatter (the apps recover by restart, so this only matters
  // if a caller resumes a cluster mid-pipeline by hand).
  if (cluster.fast_forwarding()) return;
  const std::size_t m = cluster.num_machines();
  const std::size_t block = ceil_div(values.size(), m);
  for (MachineId id = 0; id < m; ++id) {
    const std::size_t begin = std::min(values.size(), id * block);
    const std::size_t end = std::min(values.size(), begin + block);
    key.set(cluster.store(id),
            std::vector<std::int64_t>(values.begin() + begin,
                                      values.begin() + end));
  }
}

/// Shared tail of both EMD variants: reduce per-cluster imbalances, weight
/// by level, converge-cast, read out, clean up. The caller must have left
/// signed per-record values under "emd/in".
MpcEmdResult finish_emd(Cluster& cluster, const Prep& prep) {
  mpc::reduce_kv_sum(cluster, kEmdIn.name, kEmdImbalance.name);

  Serializer weight;
  weight.write(static_cast<std::uint64_t>(prep.dim));
  weight.write(prep.params.num_buckets);
  weight.write(prep.delta);
  cluster.run_round(StepSpec("emd/weight", std::move(weight)));

  mpc::sum_double(cluster, kEmdPartial.name, kEmdTotal.name, 0);

  MpcEmdResult result;
  result.emd = kEmdTotal.get(cluster.store(0)) * prep.scale_to_input;
  result.retries_used = prep.retries;
  result.rounds_used = cluster.stats().rounds() - prep.rounds_before;
  cleanup(cluster, {kIdx.name, kPts.name, kFail.name, kFailTotal.name,
                    kMass.name, kEmdPartial.name, kEmdTotal.name});
  return result;
}

}  // namespace

Result<MpcEmdResult> mpc_tree_emd(Cluster& cluster, const PointSet& a,
                                  const PointSet& b,
                                  const MpcEmbedOptions& options) {
  if (a.size() != b.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "mpc_tree_emd: sides must have equal size");
  }
  if (a.dim() != b.dim()) {
    return Status(StatusCode::kInvalidArgument,
                  "mpc_tree_emd: dimension mismatch");
  }
  PointSet all = a;
  for (std::size_t i = 0; i < b.size(); ++i) all.push_back(b[i]);

  auto prep = prepare_paths(cluster, all, options, /*emit_links=*/false);
  if (!prep.ok()) return prep.status();

  // Side-label the path records: +1 for points of a, -1 for points of b
  // (two's-complement u64 so the KV sum reduction computes signed sums).
  Serializer label;
  label.write(static_cast<std::uint64_t>(a.size()));
  cluster.run_round(StepSpec("emd/label", std::move(label)));

  return finish_emd(cluster, *prep);
}

Result<MpcEmdResult> mpc_tree_emd_weighted(
    Cluster& cluster, const PointSet& a, const PointSet& b,
    const std::vector<std::int64_t>& mass_a,
    const std::vector<std::int64_t>& mass_b,
    const MpcEmbedOptions& options) {
  if (mass_a.size() != a.size() || mass_b.size() != b.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "mpc_tree_emd_weighted: mass vector size mismatch");
  }
  if (a.dim() != b.dim()) {
    return Status(StatusCode::kInvalidArgument,
                  "mpc_tree_emd_weighted: dimension mismatch");
  }
  std::int64_t total = 0;
  std::vector<std::int64_t> signed_mass;
  signed_mass.reserve(mass_a.size() + mass_b.size());
  for (const std::int64_t m : mass_a) {
    if (m < 0) {
      return Status(StatusCode::kInvalidArgument,
                    "mpc_tree_emd_weighted: negative mass");
    }
    total += m;
    signed_mass.push_back(m);
  }
  for (const std::int64_t m : mass_b) {
    if (m < 0) {
      return Status(StatusCode::kInvalidArgument,
                    "mpc_tree_emd_weighted: negative mass");
    }
    total -= m;
    signed_mass.push_back(-m);
  }
  if (total != 0) {
    return Status(StatusCode::kInvalidArgument,
                  "mpc_tree_emd_weighted: total masses differ");
  }

  PointSet all = a;
  for (std::size_t i = 0; i < b.size(); ++i) all.push_back(b[i]);

  auto prep = prepare_paths(cluster, all, options, /*emit_links=*/false);
  if (!prep.ok()) return prep.status();

  // Distribute the masses with the points' block layout (they are part of
  // the distributed input), then label each record with its point's mass.
  scatter_point_values(cluster, kMass, signed_mass);
  cluster.run_round(StepSpec("emd/label-weighted"));

  return finish_emd(cluster, *prep);
}

Result<MpcDensestBallResult> mpc_densest_ball(
    Cluster& cluster, const PointSet& points, double max_diameter,
    const MpcEmbedOptions& options) {
  if (max_diameter < 0.0) {
    return Status(StatusCode::kInvalidArgument,
                  "mpc_densest_ball: negative diameter");
  }
  auto prep = prepare_paths(cluster, points, options, /*emit_links=*/false);
  if (!prep.ok()) return prep.status();
  const double max_diameter_q = max_diameter / prep->scale_to_input;

  // Per-cluster point counts.
  cluster.run_round(StepSpec("densest/count-prep"));
  mpc::reduce_kv_sum(cluster, kDbIn.name, kDbCounts.name);

  // Local best among qualifying levels, converge-cast to rank 0.
  Serializer local_best;
  local_best.write(static_cast<std::uint64_t>(prep->dim));
  local_best.write(prep->params.num_buckets);
  local_best.write(prep->delta);
  local_best.write(max_diameter_q);
  cluster.run_round(StepSpec("densest/local-best", std::move(local_best)));
  cluster.run_round(StepSpec("densest/global-best"));

  MpcDensestBallResult result;
  {
    const BallBest best = kBestKey.get(cluster.store(0));
    result.count = best.count;
    result.diameter = best.bound * prep->scale_to_input;
  }
  // The root cluster (level 0, all n points) is not in the path records;
  // it qualifies whenever its diameter bound fits.
  const double sqrt_r =
      std::sqrt(static_cast<double>(prep->params.num_buckets));
  const double root_bound = 2.0 * sqrt_r * prep->ladder.scales[0];
  if (root_bound <= max_diameter_q && points.size() > result.count) {
    result.count = points.size();
    result.diameter = root_bound * prep->scale_to_input;
  }
  result.retries_used = prep->retries;
  result.rounds_used = cluster.stats().rounds() - prep->rounds_before;
  cleanup(cluster, {kIdx.name, kPts.name, kFail.name, kFailTotal.name,
                    kBestKey.name});
  return result;
}

Result<MpcMstResult> mpc_tree_mst(Cluster& cluster, const PointSet& points,
                                  const MpcEmbedOptions& options) {
  auto prep = prepare_paths(cluster, points, options, /*emit_links=*/true);
  if (!prep.ok()) return prep.status();

  // Representative (min point index) per cluster; child->parent links
  // land on the same machines (same key hashing).
  mpc::reduce_kv_min(cluster, kNodes.name, kMstRep.name);
  mpc::dedup_kv(cluster, kLinks.name, kMstLinks.name);

  // Route each link's child-representative to the parent's machine.
  cluster.run_round(StepSpec("mst/route-child-reps"));

  // Pair child reps with the parent's rep; emit connecting edges.
  cluster.run_round(StepSpec("mst/emit-edges"));

  mpc::dedup_kv(cluster, kMstEdges.name, kMstEdgesDedup.name);

  // Output readout: the distributed edge list, lengths evaluated against
  // the original points.
  MpcMstResult result;
  const auto edges = mpc::gather_vector<KV>(cluster, kMstEdgesDedup.name);
  result.edges.reserve(edges.size());
  for (const KV& edge : edges) {
    const double length = l2_distance(points[edge.key], points[edge.value]);
    result.edges.push_back(MstEdge{static_cast<std::size_t>(edge.key),
                                   static_cast<std::size_t>(edge.value),
                                   length});
    result.total_length += length;
  }
  result.retries_used = prep->retries;
  result.rounds_used = cluster.stats().rounds() - prep->rounds_before;
  cleanup(cluster, {kIdx.name, kPts.name, kFail.name, kFailTotal.name,
                    kMstEdgesDedup.name});
  return result;
}

}  // namespace mpte
