// mpte_cli — command-line front end to the library.
//
//   mpte_cli generate <n> <dim> <kind> <out.csv> [seed]
//       kind: uniform | clusters | blobs | subspace
//   mpte_cli embed <in.csv> <out.tree> [method] [seed]
//       [--checkpoint-dir D] [--every K] [--crash-at R]
//       [--trace-out FILE] [--metrics-out FILE]
//       method: hybrid (default) | grid | ball | mpc
//       Writes the tree plus its input-unit scale; prints pipeline stats.
//       `mpc` runs the distributed pipeline on a simulated cluster and
//       also prints the per-channel communication breakdown (top 5).
//       --checkpoint-dir (mpc only) snapshots the cluster every K rounds
//       (default 1) into D, plus a manifest describing the run; --crash-at
//       injects a deterministic rank crash at round R and exits 3, leaving
//       D resumable. --trace-out records a span trace of the run as
//       Chrome-trace JSON (open in Perfetto); --metrics-out writes the
//       run's metrics registry as Prometheus text (docs/observability.md).
//       Neither flag changes the embedding — output is byte-identical
//       with or without them.
//   mpte_cli resume <checkpoint-dir> [--trace-out FILE] [--metrics-out FILE]
//       Restores the newest snapshot written by `embed ... mpc
//       --checkpoint-dir` and finishes the run it describes: the output
//       tree is byte-identical to the uninterrupted run's.
//   mpte_cli stats <tree>
//   mpte_cli query <tree> <i> <j>
//   mpte_cli distortion <tree> <in.csv>
//   mpte_cli serve <tree...> --port <p> [--batch N] [--wait-us N]
//       [--queue N] [--cache-bytes N] [--threads N]
//       [--trace-out FILE] [--metrics-out FILE]
//       Long-lived query service over the newline protocol
//       (docs/serving.md); multiple tree files form an ensemble. Runs
//       until a client sends `shutdown`, then prints final stats.
//   mpte_cli serve --dynamic <in.csv> --port <p> [--trees T] [--seed S]
//       [--method hybrid|grid|ball] [--updates FILE] [...serve flags]
//       Dynamic mode: builds a DynamicEnsemble over the CSV points and
//       serves it with live upsert/remove support (each drained batch of
//       updates publishes one new ensemble epoch). --updates replays a
//       file of wire-format upsert/remove lines through the service
//       before accepting connections.
//   mpte_cli dyncheck <in.csv> [--updates FILE] [--trees T] [--seed S]
//       [--method hybrid|grid|ball]
//       Correctness check for the dynamic layer: applies the updates to a
//       DynamicEnsemble, publishes, rebuilds a static ensemble over the
//       same final point set, and compares per-member tree fingerprints.
//       Exit 0 on MATCH, 2 on MISMATCH.
//   mpte_cli bench-client --port <p> [--host H] [--clients C]
//       [--queries Q] [--pipeline K] [--kind dist|knn|range|mix]
//       [--updates K] [--shutdown]
//       Load generator: C connections issue Q total queries, pipelined
//       K per write; reports achieved qps and the server's stats line.
//       --updates K runs a concurrent upsert+remove burst (dynamic
//       servers only) while the queries flow, verifying that published
//       epochs advance monotonically. --shutdown stops the server
//       afterwards.
//
// Exit codes: 0 success, 1 usage (incl. unknown subcommands and flags the
// subcommand does not read), 2 runtime failure (including the Theorem-1
// coverage-failure report and bench-client runs that saw any error
// response), 3 injected crash (`embed ... --crash-at`), leaving a
// resumable checkpoint directory.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ckpt/manager.hpp"
#include "ckpt/recovery.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/embedder.hpp"
#include "core/embedding_io.hpp"
#include "core/ensemble.hpp"
#include "core/mpc_embedder.hpp"
#include "dyn/dynamic_ensemble.hpp"
#include "geometry/csv_io.hpp"
#include "geometry/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "tree/distortion.hpp"
#include "tree/embedding_builder.hpp"
#include "tree/hst_io.hpp"

namespace {

using namespace mpte;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  mpte_cli generate <n> <dim> "
               "<uniform|clusters|blobs|subspace> <out.csv> [seed]\n"
               "  mpte_cli embed <in.csv> <out.tree> [hybrid|grid|ball|mpc] "
               "[seed]\n"
               "            [--checkpoint-dir D] [--every K] [--crash-at R] "
               "(mpc only)\n"
               "            [--backend inproc|proc] [--ranks M] (mpc only)\n"
               "            [--trace-out FILE] [--metrics-out FILE]\n"
               "  mpte_cli resume <checkpoint-dir> [--trace-out FILE] "
               "[--metrics-out FILE]\n"
               "  mpte_cli stats <tree>\n"
               "  mpte_cli query <tree> <i> <j>\n"
               "  mpte_cli distortion <tree> <in.csv>\n"
               "  mpte_cli serve <tree...> --port <p> [--batch N] "
               "[--wait-us N] [--queue N]\n"
               "            [--cache-bytes N] [--threads N] "
               "[--trace-out FILE] [--metrics-out FILE]\n"
               "  mpte_cli serve --dynamic <in.csv> --port <p> [--trees T] "
               "[--seed S]\n"
               "            [--method hybrid|grid|ball] [--updates FILE] "
               "[...serve flags]\n"
               "  mpte_cli dyncheck <in.csv> [--updates FILE] [--trees T] "
               "[--seed S]\n"
               "            [--method hybrid|grid|ball]\n"
               "  mpte_cli bench-client --port <p> [--host H] "
               "[--clients C] [--queries Q]\n"
               "            [--pipeline K] [--kind dist|knn|range|mix] "
               "[--updates K] [--shutdown]\n");
  return 1;
}

/// Parses "--flag value" and "--flag=value" forms after `from`; returns
/// false (usage error) on a missing value. Positional arguments (no
/// leading --) are collected into `positional`.
bool parse_flags(int argc, char** argv, int from,
                 std::vector<std::string>* positional,
                 std::vector<std::pair<std::string, std::string>>* flags) {
  for (int i = from; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional->push_back(arg);
      continue;
    }
    if (const std::size_t eq = arg.find('=');
        eq != std::string::npos && eq > 2) {
      flags->emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    if (arg == "--shutdown") {  // the only value-less flag
      flags->emplace_back(arg, "1");
      continue;
    }
    if (i + 1 >= argc) return false;
    flags->emplace_back(arg, argv[++i]);
  }
  return true;
}

/// True if every parsed flag is one `command` reads; otherwise names the
/// first stray one, so a misspelled or retired flag fails loudly (usage,
/// exit 1) instead of being silently ignored.
bool known_flags(
    const char* command,
    const std::vector<std::pair<std::string, std::string>>& flags,
    std::initializer_list<std::string_view> known) {
  for (const auto& [flag, value] : flags) {
    if (std::find(known.begin(), known.end(), flag) == known.end()) {
      std::fprintf(stderr, "%s: unexpected flag '%s'\n", command,
                   flag.c_str());
      return false;
    }
  }
  return true;
}

/// For the subcommands that read no flags at all.
bool no_flags(const char* command, int argc, char** argv) {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;
  return parse_flags(argc, argv, 2, &positional, &flags) &&
         known_flags(command, flags, {});
}

std::string flag_value(
    const std::vector<std::pair<std::string, std::string>>& flags,
    const std::string& name, const std::string& fallback) {
  for (const auto& [flag, value] : flags) {
    if (flag == name) return value;
  }
  return fallback;
}

/// --trace-out / --metrics-out destinations shared by embed/serve/resume.
struct ObsOutputs {
  std::string trace_path;
  std::string metrics_path;
};

ObsOutputs obs_outputs(
    const std::vector<std::pair<std::string, std::string>>& flags) {
  return {flag_value(flags, "--trace-out", ""),
          flag_value(flags, "--metrics-out", "")};
}

/// Starts span recording if a trace artifact was requested. Tracing is
/// observation only: the traced run's output is byte-identical to an
/// untraced one (the tracer never perturbs algorithm state).
void arm_tracer(const ObsOutputs& outputs) {
  if (!outputs.trace_path.empty()) obs::Tracer::global().enable();
}

Status write_text_file(const std::string& path, const std::string& text) {
  return write_file_atomic(
      path, std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()));
}

/// Writes the requested trace/metrics artifacts; `fill` populates the
/// metrics registry (RoundStats::export_metrics for cluster runs,
/// EmbeddingService::export_metrics for serve, ...). Returns 0 or 2.
template <typename Fill>
int write_obs_artifacts(const ObsOutputs& outputs, Fill&& fill) {
  if (!outputs.trace_path.empty()) {
    auto& tracer = obs::Tracer::global();
    const Status wrote =
        write_text_file(outputs.trace_path, tracer.chrome_trace_json());
    if (!wrote.ok()) {
      std::fprintf(stderr, "trace-out: %s\n", wrote.to_string().c_str());
      return 2;
    }
    std::printf("trace: %zu spans -> %s\n", tracer.size(),
                outputs.trace_path.c_str());
  }
  if (!outputs.metrics_path.empty()) {
    obs::Registry registry;
    fill(&registry);
    const Status wrote =
        write_text_file(outputs.metrics_path, registry.prometheus_text());
    if (!wrote.ok()) {
      std::fprintf(stderr, "metrics-out: %s\n", wrote.to_string().c_str());
      return 2;
    }
    std::printf("metrics: -> %s\n", outputs.metrics_path.c_str());
  }
  return 0;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 6 || !no_flags("generate", argc, argv)) return usage();
  const auto n = static_cast<std::size_t>(std::atoll(argv[2]));
  const auto dim = static_cast<std::size_t>(std::atoll(argv[3]));
  const std::string kind = argv[4];
  const std::string path = argv[5];
  const std::uint64_t seed =
      argc > 6 ? static_cast<std::uint64_t>(std::atoll(argv[6])) : 1;

  PointSet points;
  if (kind == "uniform") {
    points = generate_uniform_cube(n, dim, 100.0, seed);
  } else if (kind == "clusters") {
    points = generate_gaussian_clusters(n, dim, 8, 100.0, 1.0, seed);
  } else if (kind == "blobs") {
    points = generate_two_blobs(n, dim, 100.0, 1.0, seed);
  } else if (kind == "subspace") {
    points = generate_subspace(n, dim, std::max<std::size_t>(2, dim / 8),
                               100.0, 0.1, seed);
  } else {
    return usage();
  }
  write_csv_points_file(points, path);
  std::printf("wrote %zu x %zu points to %s\n", points.size(), points.dim(),
              path.c_str());
  return 0;
}

/// The cluster geometry used by `embed ... mpc` and reproduced by
/// `resume`: machine memory is sized so the run fits the model comfortably
/// (this is a demo of the pipeline, not a scalability experiment —
/// bench_mpc_* cover that).
mpc::ClusterConfig mpc_cli_config(std::size_t input_bytes,
                                  mpc::Backend backend, std::size_t ranks) {
  mpc::ClusterConfig config;
  config.num_machines = std::max<std::size_t>(1, ranks);
  config.local_memory_bytes = std::max<std::size_t>(1 << 22, 4 * input_bytes);
  config.backend = backend;
  return config;
}

const char* backend_name(mpc::Backend backend) {
  return backend == mpc::Backend::kMultiProcess ? "proc" : "inproc";
}

/// Parses --backend; empty Result on an unknown name (usage error).
Result<mpc::Backend> parse_backend(const std::string& name) {
  if (name == "inproc") return mpc::Backend::kInProcess;
  if (name == "proc") return mpc::Backend::kMultiProcess;
  return Status(StatusCode::kInvalidArgument,
                "unknown --backend '" + name + "' (want inproc|proc)");
}

/// Stable fingerprint of the tree file's payload, printed by both the
/// embed and resume paths so runs are easy to compare.
std::uint64_t embedding_fingerprint(const Embedding& embedding) {
  return fnv1a64(embedding_to_bytes(embedding, /*include_points=*/false));
}

/// The run description `resume` needs: one key=value line each.
struct CkptManifest {
  std::string input;
  std::string output;
  std::uint64_t seed = 1;
  std::size_t every = 1;
  /// Cluster geometry + substrate, recorded so resume rebuilds the same
  /// cluster (the fingerprint depends on the rank count).
  mpc::Backend backend = mpc::Backend::kInProcess;
  std::size_t ranks = 8;
  /// Comma-joined round labels committed before a crash. Written when an
  /// embed run dies so resume can check that the re-driven pipeline
  /// replays the same program; empty until then.
  std::string program;
};

Status write_manifest(const std::string& dir, const CkptManifest& manifest) {
  std::ostringstream out;
  out << "input=" << manifest.input << "\n"
      << "output=" << manifest.output << "\n"
      << "seed=" << manifest.seed << "\n"
      << "every=" << manifest.every << "\n"
      << "backend=" << backend_name(manifest.backend) << "\n"
      << "ranks=" << manifest.ranks << "\n";
  if (!manifest.program.empty()) {
    out << "program=" << manifest.program << "\n";
  }
  const std::string text = out.str();
  return write_file_atomic(
      dir + "/manifest.txt",
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Result<CkptManifest> read_manifest(const std::string& dir) {
  std::ifstream in(dir + "/manifest.txt");
  if (!in) {
    return Status(StatusCode::kUnavailable,
                  "resume: cannot open " + dir + "/manifest.txt");
  }
  CkptManifest manifest;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "input") manifest.input = value;
    if (key == "output") manifest.output = value;
    if (key == "seed") {
      manifest.seed = static_cast<std::uint64_t>(std::atoll(value.c_str()));
    }
    if (key == "every") {
      manifest.every = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::atoll(value.c_str())));
    }
    if (key == "backend") {
      const auto backend = parse_backend(value);
      if (backend.ok()) manifest.backend = *backend;
    }
    if (key == "ranks") {
      manifest.ranks = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::atoll(value.c_str())));
    }
    // Legacy "workers=" and "transport=" lines (any value) are ignored:
    // every worker mode and frame carrier wrote byte-identical
    // snapshots, so they never change the resume.
    if (key == "program") manifest.program = value;
  }
  if (manifest.input.empty() || manifest.output.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "resume: manifest missing input/output paths");
  }
  return manifest;
}

/// Shared tail of embed-mpc and resume: persist and describe the result.
int report_mpc_embedding(const mpc::Cluster& cluster,
                         const mpc::ClusterConfig& config,
                         const PointSet& points,
                         const MpcEmbedding& result,
                         const std::string& out_path) {
  save_embedding(result, out_path, /*include_points=*/false);

  const HstShape shape = hst_shape(result.tree);
  std::printf("embedded %zu points (R^%zu -> dim %zu, fjlt=%s, delta=%llu, "
              "r=%u, U=%zu)\n",
              points.size(), points.dim(), result.dim_used,
              result.fjlt_applied ? "yes" : "no",
              static_cast<unsigned long long>(result.delta_used),
              result.buckets_used, result.grids_used);
  std::printf("tree: %zu nodes, depth %zu -> %s\n", shape.nodes, shape.depth,
              out_path.c_str());
  std::printf("cluster: %zu machines, %zu B local memory, %zu rounds, "
              "%s backend\n",
              config.num_machines, config.local_memory_bytes,
              result.rounds_used, backend_name(config.backend));
  std::printf("fingerprint: %llu\n",
              static_cast<unsigned long long>(
                  embedding_fingerprint(result)));

  const auto totals = cluster.stats().channel_totals();
  std::size_t all_bytes = 0;
  for (const auto& [channel, bytes] : totals) all_bytes += bytes;
  std::printf("communication: %zu B over %zu channels; top %zu:\n", all_bytes,
              totals.size(), std::min<std::size_t>(5, totals.size()));
  for (std::size_t i = 0; i < totals.size() && i < 5; ++i) {
    std::printf("  %-24s %12zu B\n", totals[i].first.c_str(),
                totals[i].second);
  }
  const auto& resilience = cluster.stats().resilience();
  if (resilience.any()) {
    std::printf("resilience: checkpoints=%zu (%zu B) recoveries=%zu "
                "replayed=%zu\n",
                resilience.checkpoints_written, resilience.checkpoint_bytes,
                resilience.recoveries, resilience.rounds_replayed);
  }
  return 0;
}

/// `embed ... mpc`: the distributed pipeline on a simulated cluster,
/// optionally checkpointed (and deterministically crashed) via mpte::ckpt.
int cmd_embed_mpc(const PointSet& points, const std::string& in_path,
                  const std::string& out_path, std::uint64_t seed,
                  const std::string& checkpoint_dir, std::size_t every,
                  long long crash_at, mpc::Backend backend,
                  std::size_t ranks, const ObsOutputs& outputs) {
  arm_tracer(outputs);
  const std::size_t input_bytes =
      points.size() * std::max<std::size_t>(points.dim(), 1) * sizeof(double);
  mpc::ClusterConfig config = mpc_cli_config(input_bytes, backend, ranks);
  if (!checkpoint_dir.empty()) {
    config.checkpoint.mode = mpc::CheckpointPolicy::Mode::kEveryK;
    config.checkpoint.directory = checkpoint_dir;
    config.checkpoint.every_k = every;
  }
  mpc::Cluster cluster(config);

  ckpt::FaultPlan plan;
  if (crash_at >= 0) {
    plan.add_crash(static_cast<std::size_t>(crash_at), /*rank=*/1);
  }
  ckpt::Coordinator coordinator = ckpt::Coordinator::for_cluster(cluster,
                                                                 plan);
  if (!checkpoint_dir.empty() || crash_at >= 0) {
    cluster.set_hooks(&coordinator);
  }
  if (!checkpoint_dir.empty()) {
    // Written before the run so a killed process leaves a resumable dir.
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir, ec);
    CkptManifest manifest{in_path, out_path, seed, every,
                          backend, ranks,    /*program=*/""};
    const Status wrote = write_manifest(checkpoint_dir, manifest);
    if (!wrote.ok()) {
      std::fprintf(stderr, "mpc embed: %s\n", wrote.to_string().c_str());
      return 2;
    }
  }

  MpcEmbedOptions options;
  options.seed = seed;
  try {
    const auto result = mpc_embed(cluster, points, options);
    if (!result.ok()) {
      std::fprintf(stderr, "mpc embed failed: %s\n",
                   result.status().to_string().c_str());
      return 2;
    }
    const int rc =
        report_mpc_embedding(cluster, config, points, *result, out_path);
    if (rc != 0) return rc;
    return write_obs_artifacts(outputs, [&](obs::Registry* registry) {
      cluster.stats().export_metrics(registry);
      // ipc counters exist only after a multi-process round ran.
      if (const auto* executor = cluster.round_executor()) {
        executor->export_metrics(*registry);
      }
    });
  } catch (const mpc::RankCrashed& crash) {
    if (!checkpoint_dir.empty()) {
      // Record the program (the committed round-label sequence) so resume
      // can validate that the restored snapshot replays the same steps.
      std::string program;
      for (const auto& record : cluster.stats().records()) {
        if (!program.empty()) program += ',';
        program += record.label;
      }
      CkptManifest manifest{in_path, out_path, seed,   every,
                            backend, ranks,    program};
      const Status wrote = write_manifest(checkpoint_dir, manifest);
      if (!wrote.ok()) {
        std::fprintf(stderr, "mpc embed: %s\n", wrote.to_string().c_str());
      }
    }
    std::fprintf(stderr,
                 "mpc embed: %s; checkpoints in %s (finish with: mpte_cli "
                 "resume %s)\n",
                 crash.what(),
                 checkpoint_dir.empty() ? "(none)" : checkpoint_dir.c_str(),
                 checkpoint_dir.c_str());
    return 3;
  }
}

/// `resume <dir>`: restore the newest snapshot and finish the manifest's
/// run. The re-driven pipeline fast-forwards the committed rounds, so the
/// output tree is byte-identical to an uninterrupted run's.
int cmd_resume(int argc, char** argv) {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;
  if (!parse_flags(argc, argv, 2, &positional, &flags) ||
      !known_flags("resume", flags, {"--trace-out", "--metrics-out"})) {
    return usage();
  }
  if (positional.empty()) return usage();
  const ObsOutputs outputs = obs_outputs(flags);
  arm_tracer(outputs);
  const std::string dir = positional[0];
  const auto manifest = read_manifest(dir);
  if (!manifest.ok()) {
    std::fprintf(stderr, "%s\n", manifest.status().to_string().c_str());
    return 2;
  }
  const PointSet points = read_csv_points_file(manifest->input);
  const std::size_t input_bytes =
      points.size() * std::max<std::size_t>(points.dim(), 1) * sizeof(double);
  mpc::ClusterConfig config =
      mpc_cli_config(input_bytes, manifest->backend, manifest->ranks);
  config.checkpoint.mode = mpc::CheckpointPolicy::Mode::kEveryK;
  config.checkpoint.directory = dir;
  config.checkpoint.every_k = manifest->every;
  mpc::Cluster cluster(config);

  ckpt::Coordinator coordinator = ckpt::Coordinator::for_cluster(cluster);
  cluster.set_hooks(&coordinator);
  coordinator.restore_latest(cluster);
  std::printf("restored %zu committed rounds from %s\n",
              cluster.stats().rounds(), dir.c_str());

  // If the crashed run recorded its program, check the restored snapshot
  // replays a prefix of it: a label mismatch means the checkpoint came
  // from a different pipeline (or build) and the resumed tree would
  // silently diverge from the original run's.
  if (!manifest->program.empty()) {
    std::vector<std::string> program;
    std::size_t start = 0;
    while (start <= manifest->program.size()) {
      const std::size_t comma = manifest->program.find(',', start);
      program.push_back(manifest->program.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    const auto& records = cluster.stats().records();
    if (records.size() > program.size()) {
      std::fprintf(stderr,
                   "resume: snapshot has %zu rounds but manifest program "
                   "lists %zu\n",
                   records.size(), program.size());
      return 2;
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i].label != program[i]) {
        std::fprintf(stderr,
                     "resume: round %zu label '%s' != manifest program "
                     "step '%s'\n",
                     i, records[i].label.c_str(), program[i].c_str());
        return 2;
      }
    }
  }

  MpcEmbedOptions options;
  options.seed = manifest->seed;
  const auto result = ckpt::run_with_recovery(
      cluster, coordinator,
      [&] { return mpc_embed(cluster, points, options); });
  if (!result.ok()) {
    std::fprintf(stderr, "resume failed: %s\n",
                 result.status().to_string().c_str());
    return 2;
  }
  const int rc = report_mpc_embedding(cluster, config, points, *result,
                                      manifest->output);
  if (rc != 0) return rc;
  return write_obs_artifacts(outputs, [&](obs::Registry* registry) {
    cluster.stats().export_metrics(registry);
    if (const auto* executor = cluster.round_executor()) {
      executor->export_metrics(*registry);
    }
  });
}

int cmd_embed(int argc, char** argv) {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;
  if (!parse_flags(argc, argv, 2, &positional, &flags)) return usage();
  if (positional.size() < 2) return usage();
  // The cluster and checkpoint flags only mean something for mpc.
  const bool known =
      positional.size() > 2 && positional[2] == "mpc"
          ? known_flags("embed", flags,
                        {"--checkpoint-dir", "--every", "--crash-at",
                         "--backend", "--ranks", "--trace-out",
                         "--metrics-out"})
          : known_flags("embed", flags, {"--trace-out", "--metrics-out"});
  if (!known) return usage();
  const PointSet points = read_csv_points_file(positional[0]);
  const std::uint64_t seed =
      positional.size() > 3
          ? static_cast<std::uint64_t>(std::atoll(positional[3].c_str()))
          : 1;
  const ObsOutputs outputs = obs_outputs(flags);
  EmbedOptions options;
  if (positional.size() > 2) {
    const std::string method = positional[2];
    if (method == "mpc") {
      const auto every = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::atoll(flag_value(flags, "--every", "1").c_str())));
      const long long crash_at =
          std::atoll(flag_value(flags, "--crash-at", "-1").c_str());
      const auto backend =
          parse_backend(flag_value(flags, "--backend", "inproc"));
      if (!backend.ok()) {
        std::fprintf(stderr, "%s\n", backend.status().to_string().c_str());
        return usage();
      }
      const auto ranks = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::atoll(flag_value(flags, "--ranks", "8").c_str())));
      return cmd_embed_mpc(points, positional[0], positional[1], seed,
                           flag_value(flags, "--checkpoint-dir", ""), every,
                           crash_at, *backend, ranks, outputs);
    } else if (method == "grid") {
      options.method = PartitionMethod::kGrid;
    } else if (method == "ball") {
      options.method = PartitionMethod::kBall;
    } else if (method == "hybrid") {
      options.method = PartitionMethod::kHybrid;
    } else {
      return usage();
    }
  }
  options.seed = seed;

  arm_tracer(outputs);
  const auto result = embed(points, options);
  if (!result.ok()) {
    std::fprintf(stderr, "embed failed: %s\n",
                 result.status().to_string().c_str());
    return 2;
  }
  save_embedding(*result, positional[1], /*include_points=*/false);
  const HstShape shape = hst_shape(result->tree);
  std::printf("embedded %zu points (R^%zu -> dim %zu, fjlt=%s, delta=%llu, "
              "r=%u, U=%zu)\n",
              points.size(), points.dim(), result->dim_used,
              result->fjlt_applied ? "yes" : "no",
              static_cast<unsigned long long>(result->delta_used),
              result->buckets_used, result->grids_used);
  std::printf("tree: %zu nodes, depth %zu -> %s\n", shape.nodes, shape.depth,
              positional[1].c_str());
  return write_obs_artifacts(outputs, [&](obs::Registry* registry) {
    registry->gauge("mpte_embed_points", "Points embedded.")
        .set(static_cast<double>(points.size()));
    registry->gauge("mpte_embed_tree_nodes", "Nodes in the output HST.")
        .set(static_cast<double>(shape.nodes));
    registry->gauge("mpte_embed_tree_depth", "Depth of the output HST.")
        .set(static_cast<double>(shape.depth));
  });
}

int cmd_stats(int argc, char** argv) {
  if (argc < 3 || !no_flags("stats", argc, argv)) return usage();
  const Embedding embedding = load_embedding(argv[2]);
  const Hst& tree = embedding.tree;
  const double scale = embedding.scale_to_input;
  const HstShape shape = hst_shape(tree);
  std::printf("points:        %zu\n", tree.num_points());
  std::printf("nodes:         %zu (%zu internal, %zu leaves)\n", shape.nodes,
              shape.internal_nodes, shape.leaves);
  std::printf("depth:         %zu\n", shape.depth);
  std::printf("max branching: %zu\n", shape.max_branching);
  std::printf("unit scale:    %.17g\n", scale);
  const Status valid = tree.validate();
  std::printf("validate:      %s\n", valid.ok() ? "ok" : valid.to_string().c_str());
  return valid.ok() ? 0 : 2;
}

int cmd_query(int argc, char** argv) {
  if (argc < 5 || !no_flags("query", argc, argv)) return usage();
  const Embedding embedding = load_embedding(argv[2]);
  const Hst& tree = embedding.tree;
  const double scale = embedding.scale_to_input;
  const auto i = static_cast<std::size_t>(std::atoll(argv[3]));
  const auto j = static_cast<std::size_t>(std::atoll(argv[4]));
  if (i >= tree.num_points() || j >= tree.num_points()) {
    std::fprintf(stderr, "point index out of range (n=%zu)\n",
                 tree.num_points());
    return 2;
  }
  std::printf("dist_T(%zu, %zu) = %.17g\n", i, j,
              tree.distance(i, j) * scale);
  return 0;
}

int cmd_distortion(int argc, char** argv) {
  if (argc < 4 || !no_flags("distortion", argc, argv)) return usage();
  const Embedding embedding = load_embedding(argv[2]);
  const Hst& tree = embedding.tree;
  const double scale = embedding.scale_to_input;
  const PointSet points = read_csv_points_file(argv[3]);
  if (points.size() != tree.num_points()) {
    std::fprintf(stderr, "csv has %zu points but tree embeds %zu\n",
                 points.size(), tree.num_points());
    return 2;
  }
  // Ratios against the original input distances, in input units.
  const auto pairs = sample_pairs(points.size(), 20000, 1);
  double min_ratio = 1e300, max_ratio = 0.0, sum = 0.0;
  std::size_t counted = 0;
  for (const auto& [i, j] : pairs) {
    const double true_dist = l2_distance(points[i], points[j]);
    if (true_dist == 0.0) continue;
    const double ratio = tree.distance(i, j) * scale / true_dist;
    min_ratio = std::min(min_ratio, ratio);
    max_ratio = std::max(max_ratio, ratio);
    sum += ratio;
    ++counted;
  }
  std::printf("pairs: %zu\nmin ratio:  %.4f\nmean ratio: %.4f\n"
              "max ratio:  %.4f\n",
              counted, min_ratio, sum / static_cast<double>(counted),
              max_ratio);
  return 0;
}

/// Shared by `serve --dynamic` and `dyncheck`: builds a DynamicEnsemble
/// over a CSV point set from the --trees/--seed/--method flags.
Result<std::unique_ptr<dyn::DynamicEnsemble>> build_dynamic_ensemble(
    const std::string& csv_path,
    const std::vector<std::pair<std::string, std::string>>& flags) {
  dyn::DynamicEnsemble::Options options;
  options.trees = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::atoll(flag_value(flags, "--trees", "4").c_str())));
  options.member.seed = static_cast<std::uint64_t>(
      std::atoll(flag_value(flags, "--seed", "1").c_str()));
  const std::string method = flag_value(flags, "--method", "hybrid");
  if (method == "grid") {
    options.member.method = PartitionMethod::kGrid;
  } else if (method == "ball") {
    options.member.method = PartitionMethod::kBall;
  } else if (method == "hybrid") {
    options.member.method = PartitionMethod::kHybrid;
  } else {
    return Status(StatusCode::kInvalidArgument,
                  "unknown --method '" + method + "' (want hybrid|grid|ball)");
  }
  const PointSet points = read_csv_points_file(csv_path);
  return dyn::DynamicEnsemble::create(points, options);
}

/// Parses an updates file (one wire-format `upsert ...` / `remove <id>`
/// line per line; blank lines and '#' comments skipped) into requests.
Result<std::vector<serve::Request>> read_updates_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status(StatusCode::kUnavailable,
                  "cannot open updates file '" + path + "'");
  }
  std::vector<serve::Request> updates;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    auto parsed = serve::parse_request(line);
    if (!parsed.ok()) {
      return Status(parsed.status().code(),
                    path + ":" + std::to_string(line_no) + ": " +
                        parsed.status().message());
    }
    if (!serve::is_update(parsed->kind)) {
      return Status(StatusCode::kInvalidArgument,
                    path + ":" + std::to_string(line_no) +
                        ": only upsert/remove lines are allowed");
    }
    updates.push_back(std::move(*parsed));
  }
  return updates;
}

int cmd_serve(int argc, char** argv) {
  std::vector<std::string> trees;
  std::vector<std::pair<std::string, std::string>> flags;
  if (!parse_flags(argc, argv, 2, &trees, &flags)) return usage();
  const std::string dynamic_csv = flag_value(flags, "--dynamic", "");
  if (flag_value(flags, "--port", "").empty()) return usage();
  // Exactly one of: positional tree files (static) or --dynamic (live).
  if (trees.empty() == dynamic_csv.empty()) return usage();
  // The ensemble-building and replay flags only mean something live.
  const bool known =
      dynamic_csv.empty()
          ? known_flags("serve", flags,
                        {"--port", "--batch", "--wait-us", "--queue",
                         "--cache-bytes", "--threads", "--trace-out",
                         "--metrics-out"})
          : known_flags("serve", flags,
                        {"--port", "--batch", "--wait-us", "--queue",
                         "--cache-bytes", "--threads", "--trace-out",
                         "--metrics-out", "--dynamic", "--trees", "--seed",
                         "--method", "--updates"});
  if (!known) return usage();
  const std::string updates_path = flag_value(flags, "--updates", "");

  const ObsOutputs outputs = obs_outputs(flags);
  arm_tracer(outputs);

  serve::ServiceOptions options;
  options.max_batch = static_cast<std::size_t>(
      std::atoll(flag_value(flags, "--batch", "64").c_str()));
  options.max_wait = std::chrono::microseconds(
      std::atoll(flag_value(flags, "--wait-us", "200").c_str()));
  options.max_queue = static_cast<std::size_t>(
      std::atoll(flag_value(flags, "--queue", "4096").c_str()));
  options.cache_bytes = static_cast<std::size_t>(
      std::atoll(flag_value(flags, "--cache-bytes", "1048576").c_str()));
  options.eval_threads = static_cast<std::size_t>(
      std::atoll(flag_value(flags, "--threads", "0").c_str()));

  // EmbeddingService is neither copyable nor movable (it owns the batcher
  // thread), so construct in place once the mode is known.
  std::optional<serve::EmbeddingService> service;
  if (dynamic_csv.empty()) {
    std::vector<Embedding> members;
    members.reserve(trees.size());
    for (const std::string& path : trees) {
      members.push_back(load_embedding(path));
    }
    auto ensemble = EmbeddingEnsemble::from_members(std::move(members));
    if (!ensemble.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   ensemble.status().to_string().c_str());
      return 2;
    }
    service.emplace(std::move(ensemble).value(), options);
  } else {
    auto dynamic = build_dynamic_ensemble(dynamic_csv, flags);
    if (!dynamic.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   dynamic.status().to_string().c_str());
      return 2;
    }
    service.emplace(std::move(*dynamic), options);
  }

  if (!updates_path.empty()) {
    auto updates = read_updates_file(updates_path);
    if (!updates.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   updates.status().to_string().c_str());
      return 2;
    }
    // Chunked so a large replay file cannot trip admission control.
    std::size_t replay_ok = 0, replay_err = 0;
    for (std::size_t at = 0; at < updates->size(); at += 512) {
      const std::size_t end = std::min(updates->size(), at + 512);
      std::vector<serve::Request> chunk(updates->begin() + at,
                                        updates->begin() + end);
      auto futures = service->submit_batch(chunk);
      for (auto& future : futures) {
        if (future.get().ok()) {
          ++replay_ok;
        } else {
          ++replay_err;
        }
      }
    }
    std::printf("replayed %zu update(s) from %s (%zu ok, %zu err) -> "
                "epoch %llu\n",
                updates->size(), updates_path.c_str(), replay_ok, replay_err,
                static_cast<unsigned long long>(service->epoch()));
    if (replay_err != 0) return 2;
  }

  serve::ServerOptions server_options;
  server_options.port = static_cast<std::uint16_t>(
      std::atoi(flag_value(flags, "--port", "0").c_str()));
  serve::SocketServer server(*service, server_options);
  const auto port = server.start();
  if (!port.ok()) {
    std::fprintf(stderr, "serve: %s\n", port.status().to_string().c_str());
    return 2;
  }
  std::printf("serving %zu points, %zu tree(s) on 127.0.0.1:%u "
              "(%s epoch=%llu batch=%zu wait=%lldus queue=%zu cache=%zuB)\n",
              service->num_points(), service->ensemble().size(),
              static_cast<unsigned>(*port),
              service->is_dynamic() ? "dynamic" : "static",
              static_cast<unsigned long long>(service->epoch()),
              options.max_batch,
              static_cast<long long>(options.max_wait.count()),
              options.max_queue, options.cache_bytes);
  std::fflush(stdout);
  server.wait();
  server.stop();
  const serve::ServiceStats stats = service->stats();
  std::printf("shutdown: completed=%llu rejected=%llu qps=%.1f "
              "hit_rate=%.3f p50_ms=%.3f p99_ms=%.3f epoch=%llu\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.rejected_queue_full +
                                              stats.rejected_deadline),
              stats.qps, stats.cache_hit_rate, stats.p50_ms, stats.p99_ms,
              static_cast<unsigned long long>(service->epoch()));
  return write_obs_artifacts(outputs, [&](obs::Registry* registry) {
    service->export_metrics(registry);
  });
}

/// `dyncheck` — the dynamic layer's end-to-end oracle, runnable from the
/// shell (CI's live-update smoke drives it): apply updates dynamically,
/// then prove the result byte-identical to a from-scratch static build
/// over the same final set by comparing per-member tree fingerprints.
int cmd_dyncheck(int argc, char** argv) {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;
  if (!parse_flags(argc, argv, 2, &positional, &flags) ||
      !known_flags("dyncheck", flags,
                   {"--updates", "--trees", "--seed", "--method"})) {
    return usage();
  }
  if (positional.size() != 1) return usage();

  const PointSet initial = read_csv_points_file(positional[0]);
  auto dynamic = build_dynamic_ensemble(positional[0], flags);
  if (!dynamic.ok()) {
    std::fprintf(stderr, "dyncheck: %s\n",
                 dynamic.status().to_string().c_str());
    return 2;
  }
  dyn::DynamicEnsemble& ensemble = **dynamic;

  // Mirror of the live set in input units: the static rebuild needs the
  // final points, and DynamicEmbedder records only snapped coordinates.
  std::map<std::uint64_t, std::vector<double>> inputs;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    const auto point = initial[i];
    inputs.emplace(static_cast<std::uint64_t>(i),
                   std::vector<double>(point.begin(), point.end()));
  }

  std::size_t applied = 0;
  const std::string updates_path = flag_value(flags, "--updates", "");
  if (!updates_path.empty()) {
    auto updates = read_updates_file(updates_path);
    if (!updates.ok()) {
      std::fprintf(stderr, "dyncheck: %s\n",
                   updates.status().to_string().c_str());
      return 2;
    }
    for (const serve::Request& update : *updates) {
      if (update.kind == serve::RequestKind::kUpsert) {
        const auto id = ensemble.insert(update.coords);
        if (!id.ok()) {
          std::fprintf(stderr, "dyncheck: upsert: %s\n",
                       id.status().to_string().c_str());
          return 2;
        }
        inputs[*id] = update.coords;
      } else {
        const Status erased = ensemble.erase(update.id);
        if (!erased.ok()) {
          std::fprintf(stderr, "dyncheck: remove %llu: %s\n",
                       static_cast<unsigned long long>(update.id),
                       erased.to_string().c_str());
          return 2;
        }
        inputs.erase(update.id);
      }
      ++applied;
    }
  }

  const auto published = ensemble.publish();
  if (!published.ok()) {
    std::fprintf(stderr, "dyncheck: publish: %s\n",
                 published.status().to_string().c_str());
    return 2;
  }
  const dyn::EnsembleEpoch& epoch = **published;

  // The static oracle: rebuild from scratch over the final set (ascending
  // stable-id order == the dense order materialize() uses) with the same
  // root seed; EmbeddingEnsemble::build re-derives the member seeds.
  PointSet final_points;
  for (const std::uint64_t id : epoch.point_ids) {
    final_points.push_back(inputs.at(id));
  }
  EmbedOptions static_options =
      ensemble.member(0).static_equivalent_options();
  static_options.seed = static_cast<std::uint64_t>(
      std::atoll(flag_value(flags, "--seed", "1").c_str()));
  auto rebuilt = EmbeddingEnsemble::build(final_points, static_options,
                                          ensemble.num_members());
  if (!rebuilt.ok()) {
    std::fprintf(stderr, "dyncheck: static rebuild: %s\n",
                 rebuilt.status().to_string().c_str());
    return 2;
  }

  std::printf("points: %zu -> %zu (%zu update(s) applied, epoch %llu)\n",
              initial.size(), epoch.num_points(), applied,
              static_cast<unsigned long long>(epoch.version));
  std::size_t matched = 0;
  for (std::size_t t = 0; t < ensemble.num_members(); ++t) {
    const std::uint64_t dynamic_fp =
        fnv1a64(hst_to_bytes(epoch.ensemble->member(t).tree));
    const std::uint64_t static_fp =
        fnv1a64(hst_to_bytes(rebuilt->member(t).tree));
    const bool match = dynamic_fp == static_fp;
    matched += match ? 1 : 0;
    std::printf("member %zu: dynamic=%016llx static=%016llx %s\n", t,
                static_cast<unsigned long long>(dynamic_fp),
                static_cast<unsigned long long>(static_fp),
                match ? "MATCH" : "MISMATCH");
  }
  const bool all = matched == ensemble.num_members();
  std::printf("dyncheck: %s (%zu/%zu members byte-identical)\n",
              all ? "MATCH" : "MISMATCH", matched, ensemble.num_members());
  return all ? 0 : 2;
}

int cmd_bench_client(int argc, char** argv) {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;
  if (!parse_flags(argc, argv, 2, &positional, &flags) ||
      !known_flags("bench-client", flags,
                   {"--port", "--host", "--clients", "--queries",
                    "--pipeline", "--kind", "--updates", "--shutdown"})) {
    return usage();
  }
  const std::string port_text = flag_value(flags, "--port", "");
  if (!positional.empty() || port_text.empty()) return usage();

  const auto port = static_cast<std::uint16_t>(std::atoi(port_text.c_str()));
  const std::string host = flag_value(flags, "--host", "127.0.0.1");
  const auto clients = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::atoll(flag_value(flags, "--clients", "4").c_str())));
  const auto total_queries = std::max<std::size_t>(
      clients, static_cast<std::size_t>(
                   std::atoll(flag_value(flags, "--queries", "1000").c_str())));
  const auto pipeline = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::atoll(flag_value(flags, "--pipeline", "32").c_str())));
  const std::string kind = flag_value(flags, "--kind", "dist");
  const auto updates = static_cast<std::size_t>(
      std::atoll(flag_value(flags, "--updates", "0").c_str()));
  const bool shutdown = flag_value(flags, "--shutdown", "") == "1";

  // Transient connect failures (server still binding, accept backlog
  // full under C concurrent dials) surface as kUnavailable; retry with
  // capped exponential backoff. Anything else — and exhaustion — is
  // terminal: kAborted, no retry.
  const auto connect_with_backoff = [&](serve::LineClient& client) {
    auto delay = std::chrono::milliseconds(10);
    constexpr auto kMaxDelay = std::chrono::milliseconds(500);
    constexpr int kAttempts = 8;
    Status last = Status::Ok();
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      last = client.connect(host, port);
      if (last.ok() || last.code() != StatusCode::kUnavailable) return last;
      std::this_thread::sleep_for(delay);
      delay = std::min(delay * 2, kMaxDelay);
    }
    return Status(StatusCode::kAborted,
                  "connect retries exhausted: " + last.to_string());
  };

  // One probe connection discovers the served shape. The epoch and dim
  // fields only matter for --updates (upserts need one coordinate per
  // dim; epochs must advance across published update batches).
  std::size_t points = 0, trees_served = 0, dim = 0;
  unsigned long long epoch_start = 0;
  {
    serve::LineClient probe;
    const Status connected = connect_with_backoff(probe);
    if (!connected.ok()) {
      std::fprintf(stderr, "bench-client: %s\n",
                   connected.to_string().c_str());
      return 2;
    }
    const auto info = probe.roundtrip("info");
    if (!info.ok() ||
        std::sscanf(info->c_str(),
                    "ok info points=%zu trees=%zu epoch=%llu dim=%zu",
                    &points, &trees_served, &epoch_start, &dim) != 4 ||
        points < 2) {
      std::fprintf(stderr, "bench-client: bad info reply\n");
      return 2;
    }
  }

  // Deterministic per-client query streams: query i of client c is a pure
  // function of (c, i), mixing "dist" with knn/range when --kind=mix.
  const auto query_line = [&](std::size_t client, std::size_t i) {
    const std::uint64_t h = mix64(hash_combine(client + 1, i));
    const std::size_t p = h % points;
    const std::size_t q = (p + 1 + (h >> 32) % (points - 1)) % points;
    std::string which = kind;
    if (kind == "mix") {
      which = (h % 8 < 6) ? "dist" : (h % 8 == 6 ? "knn" : "range");
    }
    if (which == "knn") return "knn " + std::to_string(p) + " 4";
    if (which == "range") return "range " + std::to_string(p) + " 100.0";
    return "dist " + std::to_string(p) + " " + std::to_string(q);
  };

  // The update burst runs on its own connection *concurrently* with the
  // query workers — the point is that queries keep getting answered while
  // epochs roll over. Each round trips one upsert then removes the id it
  // was assigned, so the served point count is unchanged afterwards;
  // every reply's epoch must be >= the last one seen (batches publish
  // monotonically increasing versions).
  std::uint64_t update_ok = 0, update_err = 0;
  unsigned long long epoch_last = epoch_start;
  const auto run_updates = [&] {
    serve::LineClient client;
    if (!connect_with_backoff(client).ok()) {
      update_err = 2 * updates;
      return;
    }
    for (std::size_t k = 0; k < updates; ++k) {
      std::string line = "upsert";
      for (std::size_t j = 0; j < dim; ++j) {
        const std::uint64_t h = mix64(hash_combine(k + 1, j));
        line += " " + std::to_string(static_cast<double>(h % 1000) / 10.0);
      }
      unsigned long long id = 0, epoch = 0;
      const auto upserted = client.roundtrip(line);
      if (!upserted.ok() ||
          std::sscanf(upserted->c_str(), "ok upsert id=%llu epoch=%llu",
                      &id, &epoch) != 2 ||
          epoch < epoch_last) {
        update_err += 2;
        continue;
      }
      epoch_last = epoch;
      ++update_ok;
      const auto removed =
          client.roundtrip("remove " + std::to_string(id));
      unsigned long long removed_id = 0;
      if (!removed.ok() ||
          std::sscanf(removed->c_str(), "ok remove id=%llu epoch=%llu",
                      &removed_id, &epoch) != 2 ||
          removed_id != id || epoch < epoch_last) {
        ++update_err;
        continue;
      }
      epoch_last = epoch;
      ++update_ok;
    }
  };

  std::vector<std::uint64_t> ok_counts(clients, 0);
  std::vector<std::uint64_t> err_counts(clients, 0);
  const std::size_t per_client = total_queries / clients;
  Timer timer;
  std::thread updater;
  if (updates > 0) updater = std::thread(run_updates);
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      serve::LineClient client;
      if (!connect_with_backoff(client).ok()) {
        err_counts[c] = per_client;
        return;
      }
      std::size_t done = 0;
      while (done < per_client) {
        const std::size_t window = std::min(pipeline, per_client - done);
        std::string lines;
        for (std::size_t i = 0; i < window; ++i) {
          lines += query_line(c, done + i) + "\n";
        }
        // One write, `window` reads: the server batches the whole window.
        if (!client.send_line(lines.substr(0, lines.size() - 1)).ok()) {
          err_counts[c] += window;
          done += window;
          continue;
        }
        for (std::size_t i = 0; i < window; ++i) {
          const auto reply = client.read_line();
          if (reply.ok() && serve::is_ok_line(*reply)) {
            ++ok_counts[c];
          } else {
            ++err_counts[c];
          }
        }
        done += window;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  if (updater.joinable()) updater.join();
  const double elapsed = timer.seconds();

  std::uint64_t ok_total = 0, err_total = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    ok_total += ok_counts[c];
    err_total += err_counts[c];
  }
  const double qps = elapsed > 0.0
                         ? static_cast<double>(ok_total) / elapsed
                         : 0.0;
  std::printf("clients:  %zu\n", clients);
  std::printf("queries:  %llu ok, %llu err\n",
              static_cast<unsigned long long>(ok_total),
              static_cast<unsigned long long>(err_total));
  err_total += update_err;  // update failures also fail the run (exit 2)
  if (updates > 0) {
    std::printf("updates:  %llu ok, %llu err, epoch %llu -> %llu\n",
                static_cast<unsigned long long>(update_ok),
                static_cast<unsigned long long>(update_err), epoch_start,
                epoch_last);
  }
  std::printf("elapsed:  %.3f s\n", elapsed);
  std::printf("qps:      %.1f\n", qps);

  serve::LineClient control;
  if (control.connect(host, port).ok()) {
    const auto stats = control.roundtrip("stats");
    if (stats.ok()) std::printf("server:   %s\n", stats->c_str());
    if (shutdown) {
      const auto reply = control.roundtrip("shutdown");
      std::printf("shutdown: %s\n",
                  reply.ok() ? reply->c_str() : "(no reply)");
    }
  }
  return err_total == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    const std::string command = argv[1];
    if (command == "generate") return cmd_generate(argc, argv);
    if (command == "embed") return cmd_embed(argc, argv);
    if (command == "resume") return cmd_resume(argc, argv);
    if (command == "stats") return cmd_stats(argc, argv);
    if (command == "query") return cmd_query(argc, argv);
    if (command == "distortion") return cmd_distortion(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "dyncheck") return cmd_dyncheck(argc, argv);
    if (command == "bench-client") return cmd_bench_client(argc, argv);
    // Unknown subcommands are a usage error (exit 1), never a crash.
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
