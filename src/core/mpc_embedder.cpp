#include "core/mpc_embedder.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "common/rng.hpp"
#include "core/mpc_stages.hpp"
#include "geometry/quantize.hpp"
#include "mpc/primitives.hpp"
#include "obs/trace.hpp"
#include "transform/mpc_fjlt.hpp"
#include "tree/embedding_builder.hpp"

namespace mpte {

using mpc::Cluster;
using mpc::KV;
using mpc::MachineId;

namespace {

constexpr std::uint32_t kNoteMagic = 0x65746f6e;  // "note"

/// Host-side decisions recorded in the cluster's driver note (and thus in
/// every snapshot): the quantization geometry chosen after the FJLT stage
/// and the Monte Carlo attempt in progress. A resumed run fast-forwards
/// the rounds that produced these values, so it reads them from here
/// instead of recomputing them from stores it is skipping over.
struct ResumeNote {
  std::uint8_t has_geometry = 0;
  std::uint64_t delta = 0;
  double scale_to_input = 1.0;
  std::uint32_t attempt = 0;

  mpc::Buffer to_buffer() const {
    Serializer s(32);
    s.write(kNoteMagic);
    s.write(has_geometry);
    s.write(delta);
    s.write(scale_to_input);
    s.write(attempt);
    return mpc::Buffer(s.take());
  }

  static std::optional<ResumeNote> from_buffer(const mpc::Buffer& buffer) {
    if (buffer.empty()) return std::nullopt;
    try {
      Deserializer d(buffer.span());
      if (d.read<std::uint32_t>() != kNoteMagic) return std::nullopt;
      ResumeNote note;
      note.has_geometry = d.read<std::uint8_t>();
      note.delta = d.read<std::uint64_t>();
      note.scale_to_input = d.read<double>();
      note.attempt = d.read<std::uint32_t>();
      return note;
    } catch (const MpteError&) {
      return std::nullopt;
    }
  }
};

}  // namespace

Result<MpcEmbedding> mpc_embed(Cluster& cluster, const PointSet& points,
                               const MpcEmbedOptions& options) {
  if (points.size() < 2) {
    return Status(StatusCode::kInvalidArgument,
                  "mpc_embed: need at least two points");
  }
  const std::size_t rounds_before = cluster.stats().rounds();
  const std::size_t n = points.size();
  const obs::Span pipeline_span("emb", "mpc_embed", "points", n);

  // When the cluster was just restored from a snapshot it is
  // fast-forwarding: rounds up to the snapshot point are skipped, and
  // host-side reads in that prefix would observe snapshot-time state
  // rather than the values the original run saw. The driver note captured
  // with the snapshot disambiguates (see ResumeNote above). Each use
  // below re-checks fast_forwarding() at its own program point, so a
  // stale note from before the snapshot's pipeline is never consulted.
  const std::optional<ResumeNote> restored =
      cluster.fast_forwarding()
          ? ResumeNote::from_buffer(cluster.driver_note())
          : std::nullopt;

  // Stage 1: MPC FJLT.
  PointSet working = points;
  bool fjlt_applied = false;
  if (options.use_fjlt) {
    const FjltConfig config = FjltConfig::make(
        n, points.dim(), options.fjlt_xi, mix64(options.seed));
    if (config.output_dim < points.dim()) {
      working = mpc_fjlt(cluster, points, config);
      fjlt_applied = true;
    }
  }
  const std::size_t dim = working.dim();

  std::uint64_t delta;
  double scale_to_input;
  if (cluster.fast_forwarding() && restored && restored->has_geometry) {
    // The snapshot lies beyond the FJLT gather, so `working` is a
    // fast-forward placeholder; take the geometry the original run chose.
    delta = restored->delta;
    scale_to_input = restored->scale_to_input;
  } else {
    // Delta is the paper's input promise; derive it host-side if absent.
    delta = options.delta > 0
                ? options.delta
                : recommended_delta(working, options.quantize_eps, 1ull << 20);
    // scale_to_input mirrors the snap cell (same frame, host-side).
    scale_to_input = QuantFrame::of(working, delta).cell;
  }
  if (delta < 2) {
    return Status(StatusCode::kInvalidArgument,
                  "mpc_embed: delta must be >= 2");
  }

  // Record the geometry before the rounds it feeds: every snapshot taken
  // from here on carries it.
  ResumeNote note;
  note.has_geometry = 1;
  note.delta = delta;
  note.scale_to_input = scale_to_input;
  cluster.set_driver_note(note.to_buffer());

  // Stage 2: distributed quantization.
  detail::scatter_points(cluster, working);
  detail::mpc_quantize(cluster, dim, delta, options.broadcast_fanout);

  PartitionParams params = resolve_partition_params(
      hybrid_options_for(options, PartitionMethod::kHybrid, n, dim, delta), n,
      dim);
  const ScaleLadder ladder =
      hybrid_scale_ladder(dim, params.num_buckets, delta);

  // Stages 3–4 with Monte Carlo retries.
  int attempt = 0;
  for (;; ++attempt) {
    note.attempt = static_cast<std::uint32_t>(attempt);
    cluster.set_driver_note(note.to_buffer());
    params.seed =
        attempt_seed(options.seed, static_cast<std::uint64_t>(attempt));
    std::uint64_t failures = detail::run_partition_attempt(
        cluster, dim, params, options.broadcast_fanout);
    // While fast-forwarding, the fail-total read above observed the
    // snapshot round's state, not this attempt's own converge-cast. The
    // noted attempt disambiguates: every attempt before the one in
    // progress at the snapshot had failed (or there would have been no
    // later attempt), and the in-progress attempt's own total is exactly
    // what is resident at the snapshot point.
    if (cluster.fast_forwarding() && restored &&
        attempt < static_cast<int>(restored->attempt)) {
      failures = 1;
    }
    if (failures == 0) break;
    if (attempt >= options.max_retries) {
      return Status(StatusCode::kCoverageFailure,
                    "mpc_embed: ball partitioning left " +
                        std::to_string(failures) +
                        " (point, level, bucket) events uncovered after " +
                        std::to_string(attempt + 1) + " attempts");
    }
  }

  // Stage 5: the tree is the deduplicated union of paths.
  const mpc::Key<KV> dedup_key{detail::keys::kEdges.name + "/dedup"};
  {
    const obs::Span span("emb", "dedup-edges");
    mpc::dedup_kv(cluster, detail::keys::kEdges.name, dedup_key.name);
  }

  // Host-side assembly (output readout): BFS from the root id over the
  // gathered edge set, then the shared pruning pass.
  const obs::Span assemble_span("emb", "assemble");
  const auto edges = mpc::gather_vector<KV>(cluster, dedup_key.name);
  const auto leaves = mpc::gather_vector<KV>(cluster, detail::keys::kLeaf.name);

  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> children;
  children.reserve(edges.size());
  for (const KV& edge : edges) {
    children[edge.value].push_back(edge.key);
  }

  RawTree raw;
  raw.edge_weight = ladder.edge_weight;
  std::unordered_map<std::uint64_t, std::uint32_t> index_of;
  const std::uint64_t root_id = hybrid_root_id(params.seed);
  raw.nodes.push_back(RawTree::RawNode{root_id, -1, 0});
  index_of.emplace(root_id, 0);
  // The frontier expands level by level; node order stays topological.
  for (std::size_t head = 0; head < raw.nodes.size(); ++head) {
    const auto it = children.find(raw.nodes[head].key);
    if (it == children.end()) continue;
    // Deterministic child order (dedup_kv sorts per machine, but the
    // gather concatenates machines).
    std::vector<std::uint64_t> kids = it->second;
    std::sort(kids.begin(), kids.end());
    for (const std::uint64_t kid : kids) {
      const auto index = static_cast<std::uint32_t>(raw.nodes.size());
      raw.nodes.push_back(RawTree::RawNode{
          kid, static_cast<std::int32_t>(head), raw.nodes[head].level + 1});
      index_of.emplace(kid, index);
    }
  }

  raw.bottom_of_point.assign(n, 0);
  for (const KV& leaf : leaves) {
    raw.bottom_of_point[leaf.key] = index_of.at(leaf.value);
  }

  // Gather the quantized points for inspection/distortion measurement.
  PointSet embedded(n, dim);
  for (MachineId id = 0; id < cluster.num_machines(); ++id) {
    auto& store = cluster.store(id);
    const auto idx = detail::keys::kIdx.get(store);
    const auto data = detail::keys::kPts.get(store);
    for (std::size_t local = 0; local < idx.size(); ++local) {
      auto dst = embedded[idx[local]];
      for (std::size_t j = 0; j < dim; ++j) dst[j] = data[local * dim + j];
    }
    detail::keys::kIdx.erase(store);
    detail::keys::kPts.erase(store);
    dedup_key.erase(store);
    detail::keys::kLeaf.erase(store);
    detail::keys::kFail.erase(store);
  }
  detail::keys::kFailTotal.erase(cluster.store(0));

  MpcEmbedding embedding{
      {assemble_pruned(raw), std::move(embedded), scale_to_input, delta,
       params.num_buckets, params.num_grids, dim, fjlt_applied, attempt,
       /*point_ids=*/{}},
      cluster.stats().rounds() - rounds_before,
  };
  return embedding;
}

}  // namespace mpte
