#include "core/mpc_stages.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "common/math_util.hpp"
#include "geometry/quantize.hpp"
#include "mpc/step.hpp"
#include "obs/trace.hpp"

namespace mpte::detail {

using mpc::StepParams;
using mpc::Cluster;
using mpc::KV;
using mpc::MachineContext;
using mpc::MachineId;
using mpc::RegisterStep;
using mpc::Step;
using mpc::StepSpec;

void scatter_points(Cluster& cluster, const PointSet& points) {
  // Host-side write: suppressed while fast-forwarding a restored run (the
  // restored stores already reflect it — see mpc::Cluster::resume_from).
  if (cluster.fast_forwarding()) return;
  const obs::Span span("emb", "scatter", "points", points.size());
  const std::size_t m = cluster.num_machines();
  const std::size_t n = points.size();
  const std::size_t block = ceil_div(n, m);
  for (MachineId id = 0; id < m; ++id) {
    const std::size_t begin = std::min(n, id * block);
    const std::size_t end = std::min(n, begin + block);
    std::vector<std::uint64_t> idx;
    std::vector<double> data;
    idx.reserve(end - begin);
    data.reserve((end - begin) * points.dim());
    for (std::size_t i = begin; i < end; ++i) {
      idx.push_back(i);
      const auto p = points[i];
      data.insert(data.end(), p.begin(), p.end());
    }
    keys::kIdx.set(cluster.store(id), idx);
    keys::kPts.set(cluster.store(id), data);
  }
}

std::uint64_t pack_level_node(std::size_t level, std::uint64_t cluster_id) {
  return (static_cast<std::uint64_t>(level) << 56) | (cluster_id >> 8);
}

std::size_t packed_level(std::uint64_t key) {
  return static_cast<std::size_t>(key >> 56);
}

namespace {

Step make_quantize_extremes(StepParams params) {
  Deserializer d(params);
  const auto dim = static_cast<std::size_t>(d.read<std::uint64_t>());
  return [dim](MachineContext& ctx) {
    const auto data = keys::kPts.get(ctx.store());
    std::vector<double> lo(dim, std::numeric_limits<double>::infinity());
    std::vector<double> hi(dim, -std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i * dim < data.size(); ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        lo[j] = std::min(lo[j], data[i * dim + j]);
        hi[j] = std::max(hi[j], data[i * dim + j]);
      }
    }
    // One message carrying both extreme vectors (mixed content, so a
    // raw Serializer rather than a Channel batch).
    Serializer s(2 * wire_size<double>(dim));
    s.write_vector(lo);
    s.write_vector(hi);
    ctx.send(0, std::move(s), keys::kBox);
  };
}

Step make_quantize_combine(StepParams params) {
  Deserializer pd(params);
  const auto dim = static_cast<std::size_t>(pd.read<std::uint64_t>());
  const auto delta = pd.read<std::uint64_t>();
  return [dim, delta](MachineContext& ctx) {
    if (ctx.id() != 0) return;
    std::vector<double> lo(dim, std::numeric_limits<double>::infinity());
    std::vector<double> hi(dim, -std::numeric_limits<double>::infinity());
    for (const auto& msg : ctx.inbox()) {
      Deserializer d(msg.payload);
      const auto part_lo = d.read_vector<double>();
      const auto part_hi = d.read_vector<double>();
      for (std::size_t j = 0; j < dim; ++j) {
        lo[j] = std::min(lo[j], part_lo[j]);
        hi[j] = std::max(hi[j], part_hi[j]);
      }
    }
    double width = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      width = std::max(width, hi[j] - lo[j]);
    }
    const double cell = QuantFrame::cell_for(width, delta);
    Serializer s(sizeof(double) + wire_size<double>(dim));
    s.write(cell);
    s.write_vector(lo);
    ctx.store().set_blob(keys::kBox, s.take());
  };
}

Step make_quantize_snap(StepParams params) {
  Deserializer pd(params);
  const auto dim = static_cast<std::size_t>(pd.read<std::uint64_t>());
  const auto delta = pd.read<std::uint64_t>();
  return [dim, delta](MachineContext& ctx) {
    Deserializer d(ctx.store().blob(keys::kBox));
    const auto cell = d.read<double>();
    const QuantFrame frame{d.read_vector<double>(), cell, delta};
    ctx.store().erase(keys::kBox);
    auto data = keys::kPts.get(ctx.store());
    for (std::size_t e = 0; e < data.size(); ++e) {
      data[e] = frame.snap(data[e], e % dim);
    }
    keys::kPts.set(ctx.store(), data);
  };
}

Step make_grids_build(StepParams params) {
  Deserializer d(params);
  const auto p = d.read<PartitionParams>();
  return [p](MachineContext& ctx) {
    if (ctx.id() != 0) return;
    keys::kGrids.set(ctx.store(), p);
  };
}

/// Common body of the two stage-4 variants: consumes keys::kGrids, runs the
/// column rule over this machine's block salted by `idx` (the global dense
/// index), and stores keys::kFail (uncovered events; 0 under kSingleton).
Hierarchy local_columns(MachineContext& ctx, std::size_t dim,
                      std::span<const std::uint64_t> idx) {
  const auto p = keys::kGrids.get(ctx.store());
  keys::kGrids.erase(ctx.store());
  Hierarchy columns = hybrid_columns(keys::kPts.get(ctx.store()), dim, p, idx);
  const std::uint64_t failures =
      p.uncovered() == UncoveredPolicy::kFail ? columns.uncovered_events : 0;
  keys::kFail.set(ctx.store(), failures);
  return columns;
}

Step make_paths_compute(StepParams params) {
  Deserializer pd(params);
  const auto dim = static_cast<std::size_t>(pd.read<std::uint64_t>());
  return [dim](MachineContext& ctx) {
    const auto idx = keys::kIdx.get(ctx.store());
    const auto ids = local_columns(ctx, dim, idx).cluster_of_point;
    std::vector<KV> edges;
    std::vector<KV> leaves;
    for (std::size_t i = 0; i < idx.size(); ++i) {
      for (std::size_t level = 1; level < ids.size(); ++level) {
        edges.push_back(KV{ids[level][i], ids[level - 1][i]});
      }
      leaves.push_back(KV{idx[i], ids.back()[i]});
    }
    keys::kEdges.set(ctx.store(), edges);
    keys::kLeaf.set(ctx.store(), leaves);
  };
}

Step make_paths_records(StepParams params) {
  Deserializer pd(params);
  const auto dim = static_cast<std::size_t>(pd.read<std::uint64_t>());
  const bool emit_links = pd.read<std::uint8_t>() != 0;
  return [dim, emit_links](MachineContext& ctx) {
    const auto idx = keys::kIdx.get(ctx.store());
    const auto ids = local_columns(ctx, dim, idx).cluster_of_point;
    std::vector<KV> records;
    std::vector<KV> links;
    for (std::size_t i = 0; i < idx.size(); ++i) {
      for (std::size_t level = 1; level < ids.size(); ++level) {
        const std::uint64_t node = pack_level_node(level, ids[level][i]);
        records.push_back(KV{node, idx[i]});
        if (emit_links) {
          links.push_back(
              KV{node, pack_level_node(level - 1, ids[level - 1][i])});
        }
      }
    }
    keys::kNodes.set(ctx.store(), records);
    if (emit_links) keys::kLinks.set(ctx.store(), links);
  };
}

const RegisterStep kRegQuantizeExtremes{"quantize/extremes",
                                        make_quantize_extremes};
const RegisterStep kRegQuantizeCombine{"quantize/combine",
                                       make_quantize_combine};
const RegisterStep kRegQuantizeSnap{"quantize/snap", make_quantize_snap};
const RegisterStep kRegGridsBuild{"grids/build", make_grids_build};
const RegisterStep kRegPathsCompute{"paths/compute", make_paths_compute};
const RegisterStep kRegPathsRecords{"paths/records", make_paths_records};

/// Broadcast of the partition parameters (stage 3).
void broadcast_params(Cluster& cluster, const PartitionParams& params,
                      std::size_t fanout) {
  Serializer build;
  build.write(params);
  cluster.run_round(StepSpec("grids/build", std::move(build)));
  mpc::broadcast_blob(cluster, 0, keys::kGrids.name, fanout);
}

/// Converge-cast of the per-machine failure counters; returns the total.
std::uint64_t total_failures(Cluster& cluster) {
  mpc::sum_u64(cluster, keys::kFail.name, keys::kFailTotal.name, 0);
  return keys::kFailTotal.in(cluster.store(0))
             ? keys::kFailTotal.get(cluster.store(0))
             : 0;
}

}  // namespace

void mpc_quantize(Cluster& cluster, std::size_t dim, std::uint64_t delta,
                  std::size_t fanout) {
  const obs::Span span("emb", "quantize", "delta", delta);
  Serializer extremes;
  extremes.write(static_cast<std::uint64_t>(dim));
  cluster.run_round(StepSpec("quantize/extremes", std::move(extremes)));

  Serializer combine;
  combine.write(static_cast<std::uint64_t>(dim));
  combine.write(delta);
  cluster.run_round(StepSpec("quantize/combine", std::move(combine)));

  mpc::broadcast_blob(cluster, 0, keys::kBox, fanout);

  Serializer snap;
  snap.write(static_cast<std::uint64_t>(dim));
  snap.write(delta);
  cluster.run_round(StepSpec("quantize/snap", std::move(snap)));
}

std::uint64_t run_partition_attempt(Cluster& cluster, std::size_t dim,
                                    const PartitionParams& params,
                                    std::size_t fanout) {
  const obs::Span span("emb", "partition-attempt");
  broadcast_params(cluster, params, fanout);

  Serializer compute;
  compute.write(static_cast<std::uint64_t>(dim));
  cluster.run_round(StepSpec("paths/compute", std::move(compute)));

  return total_failures(cluster);
}

std::uint64_t run_path_records_attempt(Cluster& cluster, std::size_t dim,
                                       const PartitionParams& params,
                                       std::size_t fanout,
                                       bool emit_links) {
  const obs::Span span("emb", "path-records-attempt");
  broadcast_params(cluster, params, fanout);

  Serializer records;
  records.write(static_cast<std::uint64_t>(dim));
  records.write(static_cast<std::uint8_t>(emit_links ? 1 : 0));
  cluster.run_round(StepSpec("paths/records", std::move(records)));

  return total_failures(cluster);
}

}  // namespace mpte::detail
