// embed_highdim and mpc_embed_proc: one operation = one full embedding.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "core/embedder.hpp"
#include "core/mpc_embedder.hpp"
#include "geometry/generators.hpp"
#include "geometry/quantize.hpp"
#include "layers.hpp"
#include "mpc/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "partition/hybrid_partition.hpp"
#include "transform/fjlt.hpp"
#include "tree/embedding_builder.hpp"
#include "tree/hst_io.hpp"
#include "tree/lca_index.hpp"
#include "workloads.hpp"

namespace perfbench {

using mpte::EmbedOptions;
using mpte::PointSet;

namespace {

/// Distortion is measured over the trees of the first ops, whose seeds do
/// not depend on timing, so distortion_mean repeats exactly per seed. The
/// timed loop always completes at least this many ops.
constexpr std::uint64_t kDistortionOps = 4;

/// Warm-up ops draw seeds from a range the timed ops never reach.
constexpr std::uint64_t kWarmupSeedBase = 1ull << 40;

}  // namespace

EmbedLayers recompose_embed(
    const PointSet& points, const EmbedOptions& options,
    const mpte::Hst& reference,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
    Report& report) {
  BenchSpan whole("embed/recomposed");
  EmbedLayers layers;

  PointSet working = points;
  {
    BenchSpan span("transform/fjlt");
    const auto start = Clock::now();
    if (options.use_fjlt) {
      const mpte::FjltConfig config =
          mpte::FjltConfig::make(points.size(), points.dim(),
                                 options.fjlt_xi, mpte::mix64(options.seed));
      if (config.output_dim < points.dim()) {
        working = mpte::Fjlt(config).transform(points);
      }
    }
    layers.fjlt_s = seconds_since(start);
    layers.out_dim = working.dim();
  }

  std::uint64_t delta = options.delta;
  {
    BenchSpan span("geometry/recommended_delta");
    const auto start = Clock::now();
    if (delta == 0) {
      delta = mpte::recommended_delta(working, options.quantize_eps, 1ull << 20);
    }
    layers.delta_s = seconds_since(start);
  }

  mpte::Quantized quantized;
  {
    BenchSpan span("geometry/quantize");
    const auto start = Clock::now();
    quantized = mpte::quantize_to_grid(working, delta);
    layers.quantize_s = seconds_since(start);
  }

  mpte::Result<mpte::Hierarchy> hierarchy =
      mpte::Status(mpte::StatusCode::kInternal, "no attempt ran");
  {
    BenchSpan span("partition/hierarchy");
    const auto start = Clock::now();
    const std::size_t dim = quantized.points.dim();
    for (int attempt = 0; attempt <= options.max_retries; ++attempt) {
      mpte::HybridOptions hybrid;
      hybrid.num_buckets =
          options.num_buckets > 0
              ? options.num_buckets
              : mpte::auto_num_buckets(points.size(), dim,
                                       options.max_bucket_dim);
      hybrid.delta = delta;
      hybrid.seed = mpte::hash_combine(mpte::mix64(options.seed),
                                       static_cast<std::uint64_t>(attempt));
      hybrid.num_grids = options.num_grids;
      hybrid.fail_prob = options.fail_prob;
      hybrid.uncovered = options.uncovered;
      hierarchy = mpte::build_hybrid_hierarchy(quantized.points, hybrid);
      layers.retries = static_cast<std::size_t>(attempt);
      if (hierarchy.ok() ||
          hierarchy.status().code() != mpte::StatusCode::kCoverageFailure) {
        break;
      }
    }
    layers.hierarchy_s = seconds_since(start);
  }
  if (!hierarchy.ok()) {
    report.check(false, "recomposed partition failed: " +
                            hierarchy.status().to_string());
    return layers;
  }
  layers.levels = hierarchy->levels();
  layers.grids = hierarchy->num_grids;

  mpte::Hst tree = [&] {
    BenchSpan span("tree/build_hst");
    const auto start = Clock::now();
    mpte::Hst built = mpte::build_hst(*hierarchy);
    layers.assemble_s = seconds_since(start);
    return built;
  }();
  layers.nodes = tree.num_nodes();
  report.check(mpte::hst_to_bytes(tree) == mpte::hst_to_bytes(reference),
               "recomposed embed tree differs from embed() (seed " +
                   std::to_string(options.seed) + ")");

  {
    BenchSpan span("tree/lca_index");
    const auto start = Clock::now();
    const mpte::LcaIndex index(tree);
    layers.lca_build_s = seconds_since(start);
    const auto query_start = Clock::now();
    double sink = 0.0;
    for (const auto& [p, q] : pairs) sink += index.distance(p, q);
    layers.lca_distance_ns = seconds_since(query_start) * 1e9 /
                             static_cast<double>(std::max<std::size_t>(
                                 1, pairs.size()));
    report.check(std::isfinite(sink), "LcaIndex distances not finite");
  }
  return layers;
}

void report_embed_layers(Report& report, const std::vector<EmbedLayers>& runs) {
  if (runs.empty()) return;
  const auto median_of = [&runs](auto field) {
    Samples samples;
    for (const EmbedLayers& run : runs) {
      samples.add(static_cast<double>(field(run)));
    }
    return samples.median();
  };
  report.metric("transform.fjlt_s",
                median_of([](const EmbedLayers& l) { return l.fjlt_s; }), "s");
  report.metric("transform.out_dim",
                median_of([](const EmbedLayers& l) { return l.out_dim; }),
                "count");
  report.metric("geometry.delta_s",
                median_of([](const EmbedLayers& l) { return l.delta_s; }), "s");
  report.metric("geometry.quantize_s",
                median_of([](const EmbedLayers& l) { return l.quantize_s; }),
                "s");
  report.metric("partition.hierarchy_s",
                median_of([](const EmbedLayers& l) { return l.hierarchy_s; }),
                "s");
  report.metric("partition.retries",
                median_of([](const EmbedLayers& l) { return l.retries; }),
                "count");
  report.metric("partition.levels",
                median_of([](const EmbedLayers& l) { return l.levels; }),
                "count");
  report.metric("partition.grids",
                median_of([](const EmbedLayers& l) { return l.grids; }),
                "count");
  report.metric("tree.assemble_s",
                median_of([](const EmbedLayers& l) { return l.assemble_s; }),
                "s");
  report.metric("tree.nodes",
                median_of([](const EmbedLayers& l) { return l.nodes; }),
                "count");
  report.metric("tree.lca_build_ms",
                median_of([](const EmbedLayers& l) { return l.lca_build_s; }) *
                    1e3,
                "ms");
  report.metric(
      "tree.lca_distance_ns",
      median_of([](const EmbedLayers& l) { return l.lca_distance_ns; }), "ns");
}

// ---------------------------------------------------------------------------
// embed_highdim: one embed() with default options (auto delta, hybrid,
// FJLT on) over 4096 clustered points in R^1024 per op.

Report run_embed_highdim(const Args& args) {
  Report report;
  const PointSet points =
      mpte::generate_gaussian_clusters(4096, 1024, 32, 100.0, 3.0, args.seed);
  const auto pairs = sample_pairs(points.size(), kDistortionPairs, args.seed);
  const auto options_for = [&args](std::uint64_t op) {
    EmbedOptions options;
    options.seed = args.seed + op;
    return options;
  };
  const double xi = EmbedOptions{}.fjlt_xi;

  Samples setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    BenchSpan span("setup");
    const auto start = Clock::now();
    const auto warm = mpte::embed(points, options_for(kWarmupSeedBase + r));
    setup.add(seconds_since(start));
    ++report.attempted;
    if (!warm.ok()) ++report.failed_ops;
  }
  const double setup_rss_mb = peak_rss_mb();

  Samples untraced, traced, cpu, distortion, embed_other, unattributed;
  std::vector<EmbedLayers> layers;
  const auto start = Clock::now();
  TraceSwitch trace(args, start);
  for (std::uint64_t op = 0;
       op < kDistortionOps || seconds_since(start) < args.seconds; ++op) {
    const bool traced_op = trace.poll();
    const EmbedOptions options = options_for(op);
    BenchSpan span("op/embed", op + 1);
    const double cpu_start = process_cpu_seconds();
    const auto op_start = Clock::now();
    auto embedding = mpte::embed(points, options);
    const double op_s = seconds_since(op_start);
    const double op_cpu = process_cpu_seconds() - cpu_start;
    ++report.attempted;
    if (!embedding.ok()) {
      ++report.failed_ops;
      continue;
    }
    (traced_op ? traced : untraced).add(op_s);
    if (!traced_op) cpu.add(op_cpu);
    if (op < kDistortionOps) {
      const DistortionSample sample = measure_tree(
          embedding->tree, embedding->scale_to_input, embedding->dim_used,
          embedding->fjlt_applied ? xi : 0.0, points, pairs);
      distortion.add(sample.mean_ratio);
      report.check(sample.domination_violations == 0,
                   "embed_highdim: " +
                       std::to_string(sample.domination_violations) +
                       " pairs violate domination (seed " +
                       std::to_string(options.seed) + ")");
    }
    if (traced_op) {
      layers.push_back(
          recompose_embed(points, options, embedding->tree, pairs, report));
      // embed() time its recomposed layers do not account for; the two
      // run back to back, so host noise mostly cancels in the difference.
      const double other_s = op_s - layers.back().embed_layers_s();
      embed_other.add(other_s);
      unattributed.add(other_s / op_s);
    }
  }

  if (!args.trace) {
    report_end_to_end(report, setup, setup_rss_mb, untraced, cpu.median(),
                      distortion.mean());
    return report;
  }
  init_layer_metrics(report);
  report_embed_layers(report, layers);
  report.metric("core.embed_other_s", embed_other.median(), "s");
  report.metric("unattributed_share", unattributed.median(), "ratio");
  report_trace_overhead(report, untraced, traced);
  return report;
}

// ---------------------------------------------------------------------------
// mpc_embed_proc: a fresh 4-rank multi-process cluster (persistent
// workers, shared-memory transport) plus mpc_embed per op, over 16384
// points uniform in [0,50]^6, FJLT off, Delta = 4096 supplied.

namespace {

constexpr std::uint64_t kMpcDelta = 4096;

mpte::MpcEmbedOptions mpc_options(std::uint64_t seed) {
  mpte::MpcEmbedOptions options;
  options.use_fjlt = false;
  options.delta = kMpcDelta;
  options.seed = seed;
  return options;
}

/// Per-op layer numbers of one traced MPC op.
struct MpcOpLayers {
  double wall_s = 0.0;
  double setup_teardown_s = 0.0;
  double rounds = 0.0;
  double bytes = 0.0;
  double peak_local = 0.0;
  double compute_s = 0.0;
  double audit_s = 0.0;
  double deliver_s = 0.0;
  double paths_s = 0.0;
  double step_frames = 0.0;
  double wire_bytes = 0.0;
  double shm_bytes = 0.0;
  double ring_full_waits = 0.0;
  double fallback_frames = 0.0;
  double workers_spawned = 0.0;
  double barrier_s = 0.0;
};

}  // namespace

Report run_mpc_embed_proc(const Args& args) {
  Report report;
  const PointSet points = mpte::generate_uniform_cube(16384, 6, 50.0, args.seed);
  const auto pairs = sample_pairs(points.size(), kDistortionPairs, args.seed);
  mpte::mpc::ClusterConfig config;
  config.num_machines = 4;
  config.local_memory_bytes = std::max<std::size_t>(
      1 << 22, 4 * points.size() * points.dim() * sizeof(double));
  config.backend = mpte::mpc::Backend::kMultiProcess;

  // One op: cluster construction, the pipeline, and teardown (joining the
  // worker processes) — what a caller of mpc_embed pays per build.
  const auto run_op = [&](std::uint64_t seed, bool traced_op,
                          MpcOpLayers* layers)
      -> mpte::Result<mpte::MpcEmbedding> {
    const auto op_start = Clock::now();
    double outside_s = 0.0;
    mpte::Result<mpte::MpcEmbedding> result =
        mpte::Status(mpte::StatusCode::kInternal, "not run");
    {
      const auto ctor_start = Clock::now();
      auto cluster = std::make_unique<mpte::mpc::Cluster>(config);
      outside_s += seconds_since(ctor_start);
      mpte::obs::ProfilingHooks hooks;
      if (traced_op) cluster->set_hooks(&hooks);
      {
        BenchSpan span("mpc/mpc_embed");
        result = mpte::mpc_embed(*cluster, points, mpc_options(seed));
      }
      if (traced_op) {
        const auto& stats = cluster->stats();
        layers->rounds = static_cast<double>(
            result.ok() ? result->rounds_used : stats.rounds());
        for (const auto& record : stats.records()) {
          layers->bytes += static_cast<double>(record.total_message_bytes);
        }
        layers->peak_local = static_cast<double>(stats.peak_local_bytes());
        layers->compute_s = hooks.totals().compute_seconds;
        layers->audit_s = hooks.totals().audit_seconds;
        layers->deliver_s = hooks.totals().deliver_seconds;
        for (const auto& [label, totals] : hooks.by_label()) {
          if (label.rfind("paths/", 0) == 0) {
            layers->paths_s += totals.total_seconds();
          }
        }
        if (const auto* executor = cluster->round_executor()) {
          mpte::obs::Registry registry;
          executor->export_metrics(registry);
          const auto c = [&registry](const char* name) {
            return static_cast<double>(registry.counter_value(name));
          };
          layers->step_frames = c("mpte_ipc_step_frames_sent_total");
          layers->wire_bytes = c("mpte_ipc_step_wire_bytes_total") +
                               c("mpte_ipc_result_wire_bytes_total");
          layers->shm_bytes = c("mpte_ipc_shm_bytes_total");
          layers->ring_full_waits = c("mpte_ipc_ring_full_waits_total");
          layers->fallback_frames = c("mpte_ipc_fallback_frames_total");
          layers->workers_spawned = c("mpte_ipc_workers_forked_total");
          layers->barrier_s = registry.gauge_value("mpte_ipc_barrier_seconds");
        }
      }
      BenchSpan span("mpc/teardown");
      const auto teardown_start = Clock::now();
      cluster.reset();
      outside_s += seconds_since(teardown_start);
    }
    layers->wall_s = seconds_since(op_start);
    layers->setup_teardown_s = outside_s;
    return result;
  };

  Samples setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    BenchSpan span("setup");
    const auto start = Clock::now();
    MpcOpLayers unused;
    const auto warm = run_op(kWarmupSeedBase + r, false, &unused);
    setup.add(seconds_since(start));
    ++report.attempted;
    if (!warm.ok()) ++report.failed_ops;
  }
  const double setup_rss_mb = peak_rss_mb();

  Samples untraced, traced, cpu, distortion;
  std::vector<MpcOpLayers> layers;
  const auto start = Clock::now();
  TraceSwitch trace(args, start);
  for (std::uint64_t op = 0;
       op < kDistortionOps || seconds_since(start) < args.seconds; ++op) {
    const bool traced_op = trace.poll();
    const std::uint64_t seed = args.seed + op;
    MpcOpLayers op_layers;
    const double cpu_start = process_cpu_seconds();
    const auto op_start = Clock::now();
    mpte::Result<mpte::MpcEmbedding> embedding = [&] {
      BenchSpan span("op/mpc_embed", op + 1);
      return run_op(seed, traced_op, &op_layers);
    }();
    const double op_s = seconds_since(op_start);
    // Includes the worker processes, reaped by the cluster's teardown.
    const double op_cpu = process_cpu_seconds() - cpu_start;
    ++report.attempted;
    if (!embedding.ok()) {
      ++report.failed_ops;
      continue;
    }
    (traced_op ? traced : untraced).add(op_s);
    if (!traced_op) cpu.add(op_cpu);
    if (traced_op) layers.push_back(op_layers);
    if (op == 0) {
      // The MPC pipeline must build the sequential pipeline's tree.
      EmbedOptions sequential;
      sequential.use_fjlt = false;
      sequential.delta = kMpcDelta;
      sequential.seed = seed;
      const auto reference = mpte::embed(points, sequential);
      bool same = reference.ok() &&
                  reference->scale_to_input == embedding->scale_to_input;
      for (const auto& [p, q] : pairs) {
        if (!same) break;
        same = reference->tree.distance(p, q) == embedding->tree.distance(p, q);
      }
      report.check(same, "mpc_embed tree differs from sequential embed() "
                         "on sampled pairs (seed " + std::to_string(seed) + ")");
    }
    if (op < kDistortionOps) {
      const DistortionSample sample =
          measure_tree(embedding->tree, embedding->scale_to_input,
                       embedding->dim_used, 0.0, points, pairs);
      distortion.add(sample.mean_ratio);
      report.check(sample.domination_violations == 0,
                   "mpc_embed_proc: " +
                       std::to_string(sample.domination_violations) +
                       " pairs violate domination (seed " +
                       std::to_string(seed) + ")");
    }
  }

  if (!args.trace) {
    report_end_to_end(report, setup, setup_rss_mb, untraced, cpu.median(),
                      distortion.mean());
    return report;
  }
  init_layer_metrics(report);
  const auto median_of = [&layers](double MpcOpLayers::*field) {
    Samples samples;
    for (const MpcOpLayers& l : layers) samples.add(l.*field);
    return samples.median();
  };
  report.metric("mpc.rounds", median_of(&MpcOpLayers::rounds), "count");
  report.metric("mpc.bytes", median_of(&MpcOpLayers::bytes), "B");
  report.metric("mpc.peak_local_bytes", median_of(&MpcOpLayers::peak_local),
                "B");
  report.metric("mpc.compute_s", median_of(&MpcOpLayers::compute_s), "s");
  report.metric("mpc.audit_s", median_of(&MpcOpLayers::audit_s), "s");
  report.metric("mpc.deliver_s", median_of(&MpcOpLayers::deliver_s), "s");
  report.metric("mpc.paths_s", median_of(&MpcOpLayers::paths_s), "s");
  report.metric("ipc.step_frames", median_of(&MpcOpLayers::step_frames),
                "count");
  report.metric("ipc.wire_bytes", median_of(&MpcOpLayers::wire_bytes), "B");
  report.metric("ipc.shm_bytes", median_of(&MpcOpLayers::shm_bytes), "B");
  report.metric("ipc.ring_full_waits",
                median_of(&MpcOpLayers::ring_full_waits), "count");
  report.metric("ipc.fallback_frames",
                median_of(&MpcOpLayers::fallback_frames), "count");
  report.metric("ipc.workers_spawned",
                median_of(&MpcOpLayers::workers_spawned), "count");
  report.metric("ipc.barrier_s", median_of(&MpcOpLayers::barrier_s), "s");

  // Program spans: the dedup shuffle and the host-side scatter / assembly
  // (averaged over the traced ops).
  const double ops = static_cast<double>(std::max<std::size_t>(1, layers.size()));
  const double dedup_s = program_span_seconds("emb", "dedup-edges").first / ops;
  const double assemble_s = program_span_seconds("emb", "assemble").first / ops;
  const double scatter_s = program_span_seconds("emb", "scatter").first / ops;
  report.metric("mpc.dedup_s", dedup_s, "s");
  Samples host, unattributed;
  for (const MpcOpLayers& l : layers) {
    const double rounds_s = l.compute_s + l.audit_s + l.deliver_s;
    host.add(l.wall_s - rounds_s);
    const double rest =
        l.wall_s - rounds_s - l.setup_teardown_s - assemble_s - scatter_s;
    unattributed.add(l.wall_s > 0.0 ? rest / l.wall_s : 0.0);
  }
  report.metric("core.mpc_host_s", host.median(), "s");
  report.metric("unattributed_share", unattributed.median(), "ratio");
  report.details["mpc.assemble_s"] = assemble_s;
  report.details["mpc.scatter_s"] = scatter_s;
  report_trace_overhead(report, untraced, traced);
  return report;
}

}  // namespace perfbench
