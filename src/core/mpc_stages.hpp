// Reusable stages of the MPC embedding pipeline (Algorithm 2).
//
// mpc_embed() composes these; the Corollary 1 applications
// (apps/mpc_apps.*) reuse the same stages and then consume the
// *distributed* root-to-leaf paths directly — one extra shuffle instead of
// assembling the tree centrally. Keeping the stages in one place
// guarantees every consumer computes the identical hierarchy for a given
// seed. Stage 4 runs partition/'s hybrid_columns over each machine's
// block, salted by emb/idx, so it equals build_hybrid_hierarchy's result
// by construction.
//
// The cluster-resident state these stages leave behind is exposed as the
// typed keys in mpte::detail::keys below; the full data-layout contract
// (who writes what, when, in which format) is documented in
// docs/mpc-model.md ("The emb/* data layout").
#pragma once

#include <cstdint>

#include "geometry/point_set.hpp"
#include "mpc/channel.hpp"
#include "mpc/cluster.hpp"
#include "mpc/primitives.hpp"
#include "partition/hybrid_partition.hpp"

namespace mpte::detail {

/// Typed handles to the cluster-resident state of the embedding pipeline.
/// See docs/mpc-model.md for the layout contract.
namespace keys {
inline const mpc::Key<std::uint64_t> kIdx{"emb/idx"};
inline const mpc::Key<double> kPts{"emb/pts"};
inline const mpc::Key<mpc::KV> kEdges{"emb/edges"};
inline const mpc::Key<mpc::KV> kLeaf{"emb/leaf"};
inline const mpc::Key<mpc::KV> kNodes{"emb/nodes"};
inline const mpc::Key<mpc::KV> kLinks{"emb/links"};
inline const mpc::ValueKey<std::uint64_t> kFail{"emb/fail"};
inline const mpc::ValueKey<std::uint64_t> kFailTotal{"emb/fail/total"};
inline const mpc::ValueKey<PartitionParams> kGrids{"emb/grids"};
/// Bounding-box blob of mpc_quantize: double cell size + length-prefixed
/// lo vector (mixed types — kept as a raw Serializer blob, not a Key<T>).
inline constexpr const char* kBox = "emb/box";
}  // namespace keys

/// Host-side input loading: scatters (index, coordinates) blocks of
/// `points` across machines under keys::kIdx / keys::kPts.
void scatter_points(mpc::Cluster& cluster, const PointSet& points);

/// Stage 2: distributed quantization to [1, delta]^dim — bounding box by
/// converge-cast, broadcast, local snap. Rewrites keys::kPts in place with
/// integer coordinates (identical arithmetic to quantize_to_grid).
void mpc_quantize(mpc::Cluster& cluster, std::size_t dim,
                  std::uint64_t delta, std::size_t fanout);

/// Stages 3+4 for one seed attempt: broadcast `params`, then every machine
/// runs the column rule over its points locally, leaving
/// keys::kEdges (KV child-id -> parent-id, per level) and keys::kLeaf
/// (KV point-index -> bottom cluster id). Returns the number of uncovered
/// (point, level, bucket) events under the kFail policy (0 = success);
/// under the singleton policy always returns 0.
std::uint64_t run_partition_attempt(mpc::Cluster& cluster, std::size_t dim,
                                    const PartitionParams& params,
                                    std::size_t fanout);

/// Node id of the hierarchy cluster a point occupies at `level`, packed
/// with the level in the top byte — the key format the distributed
/// applications reduce on. Levels are < 2^8 (<= ~70 for any representable
/// delta), ids keep 56 mixed bits.
std::uint64_t pack_level_node(std::size_t level, std::uint64_t cluster_id);

/// Inverse of pack_level_node's level field.
std::size_t packed_level(std::uint64_t key);

/// Like run_partition_attempt, but emits per-(point, level) records
/// keys::kNodes: KV{pack_level_node(level, id), point-index}, the input to
/// path-based reductions (EMD imbalance, subtree counts, representatives).
/// With emit_links it additionally stores keys::kLinks:
/// KV{packed child, packed parent} (needed by the distributed MST).
/// Also leaves keys::kFail like run_partition_attempt; same return.
std::uint64_t run_path_records_attempt(mpc::Cluster& cluster,
                                       std::size_t dim,
                                       const PartitionParams& params,
                                       std::size_t fanout,
                                       bool emit_links = false);

}  // namespace mpte::detail
