// Frame-carrier cost of the multi-process backend vs the in-process
// simulator.
//
// One benchmark round is a representative comms-heavy step: every machine
// rewrites one store blob and sends a fixed payload to every peer
// (all-to-all), so a round moves M*M*payload message bytes plus M store
// deltas. The in-process rows price the simulator's refcounted delivery;
// the proc rows price the kStep protocol (resident workers, dirty-key
// patches, serialize, shared-memory ring hop, barrier; see
// docs/ipc-transport.md), at M in {4, 8, 16}. Every row runs the same
// registered named step so the comparison isolates the substrate, not
// the step body.
//
// Each (substrate, M) runs kTrials trials on a fresh cluster: one
// first round, timed separately because it spawns the worker pool and
// ships the initial store resync, then kRoundsPerTrial steady-state
// rounds whose mean is the trial's ms/round. Rows report the median and
// quartiles over trials, because a single run on a shared host varies by
// tens of percent.
//
// Artifacts, following the BENCH_simd convention:
//   BENCH_ipc.json          rows of {backend, machines, trials, round_ms
//                           (median), round_ms_p25, round_ms_p75,
//                           rounds_per_s, mb_per_s (both at the median),
//                           first_round_ms (median)}
//   BENCH_ipc.metrics.prom  the same numbers as Prometheus gauges
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/serialize.hpp"
#include "common/timer.hpp"
#include "mpc/cluster.hpp"
#include "mpc/step.hpp"
#include "obs/metrics.hpp"

namespace mpte::bench {
namespace {

constexpr std::size_t kPayloadBytes = 4096;
constexpr int kTrials = 5;
constexpr int kRoundsPerTrial = 200;

/// The all-to-all round as a registered step: workers resolve it by name;
/// inproc rows run the identical factory product.
mpc::Step make_all_to_all(mpc::StepParams params) {
  Deserializer d(params);
  const auto payload_bytes = d.read<std::uint64_t>();
  const auto round = d.read<std::uint64_t>();
  return [payload_bytes, round](mpc::MachineContext& ctx) {
    ctx.store().set_blob("state",
                         std::vector<std::uint8_t>(
                             payload_bytes, static_cast<std::uint8_t>(round)));
    const std::vector<std::uint8_t> payload(payload_bytes, 0x5a);
    for (mpc::MachineId to = 0; to < ctx.num_machines(); ++to) {
      ctx.send(to, payload, "bench/all-to-all");
    }
  };
}

const mpc::RegisterStep kRegAllToAll{"bench/all-to-all", make_all_to_all};

mpc::StepSpec all_to_all_spec(std::uint64_t round) {
  Serializer s;
  s.write(static_cast<std::uint64_t>(kPayloadBytes));
  s.write(round);
  return mpc::StepSpec("bench/all-to-all", std::move(s));
}

/// Linear-interpolated quantile of an ascending sample.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/// Process-wide accumulator behind the BENCH_ipc artifacts (the
/// SimdBenchRecorder pattern: rewrite after every trial). Trials are
/// grouped by (backend, machines).
class IpcBenchRecorder {
 public:
  static IpcBenchRecorder& global() {
    static IpcBenchRecorder recorder;
    return recorder;
  }

  void add_trial(const std::string& backend, std::size_t machines,
                 double first_round_ms, double round_ms) {
    Trials& trials = trials_[{backend, machines}];
    trials.first_round_ms.push_back(first_round_ms);
    trials.round_ms.push_back(round_ms);
  }

  void write_artifacts() const {
    std::ostringstream json;
    json << "{\n  \"trials_per_row\": " << kTrials
         << ",\n  \"rounds_per_trial\": " << kRoundsPerTrial
         << ",\n  \"rows\": [";
    obs::Registry registry;
    const char* separator = "\n";
    for (const auto& [key, trials] : trials_) {
      const auto& [backend, machines] = key;
      std::vector<double> sorted = trials.round_ms;
      std::sort(sorted.begin(), sorted.end());
      std::vector<double> first = trials.first_round_ms;
      std::sort(first.begin(), first.end());
      const double first_round_ms = quantile(first, 0.5);
      const double p25 = quantile(sorted, 0.25);
      const double median = quantile(sorted, 0.5);
      const double p75 = quantile(sorted, 0.75);
      const double bytes_per_round =
          static_cast<double>(machines * machines * kPayloadBytes);
      const double rounds_per_s = median > 0.0 ? 1000.0 / median : 0.0;
      const double mb_per_s =
          median > 0.0 ? bytes_per_round / (median * 1e3) : 0.0;
      json << separator << "    {\"backend\": \"" << backend
           << "\", \"machines\": " << machines
           << ", \"trials\": " << sorted.size()
           << ", \"round_ms\": " << median
           << ", \"round_ms_p25\": " << p25
           << ", \"round_ms_p75\": " << p75
           << ", \"rounds_per_s\": " << rounds_per_s
           << ", \"mb_per_s\": " << mb_per_s
           << ", \"first_round_ms\": " << first_round_ms << "}";
      separator = ",\n";

      const obs::Labels labels = {{"backend", backend},
                                  {"machines", std::to_string(machines)}};
      for (const auto& [q, value] :
           {std::pair{"0.25", p25}, {"0.5", median}, {"0.75", p75}}) {
        obs::Labels quantile_labels = labels;
        quantile_labels.emplace("quantile", q);
        registry
            .gauge("mpte_ipc_bench_round_ms",
                   "Wall-clock milliseconds per all-to-all round, "
                   "quantiles over trials",
                   quantile_labels)
            .set(value);
      }
      registry
          .gauge("mpte_ipc_bench_rounds_per_s",
                 "All-to-all rounds committed per second (median trial)",
                 labels)
          .set(rounds_per_s);
      registry
          .gauge("mpte_ipc_bench_first_round_ms",
                 "Milliseconds for a fresh cluster's first round, incl. "
                 "worker spawn and store resync (median trial)",
                 labels)
          .set(first_round_ms);
      registry
          .gauge("mpte_ipc_bench_mb_per_s",
                 "Message megabytes delivered per second (median trial)",
                 labels)
          .set(mb_per_s);
    }
    json << "\n  ]\n}\n";
    const std::string prom = registry.prometheus_text();
    const auto bytes = [](const std::string& text) {
      return std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
    };
    (void)write_file_atomic("BENCH_ipc.json", bytes(json.str()));
    (void)write_file_atomic("BENCH_ipc.metrics.prom", bytes(prom));
  }

 private:
  struct Trials {
    std::vector<double> first_round_ms;
    std::vector<double> round_ms;
  };
  std::map<std::pair<std::string, std::size_t>, Trials> trials_;
};

/// The benchmark's substrate axis. Mode 0 is the in-process baseline;
/// 1 is the multi-process backend on its shared-memory rings.
struct ProcMode {
  const char* name;
  mpc::Backend backend;
};

constexpr ProcMode kModes[] = {
    {"inproc", mpc::Backend::kInProcess},
    {"proc-persistent-shm", mpc::Backend::kMultiProcess},
};

void BM_AllToAllRound(benchmark::State& state) {
  const auto machines = static_cast<std::size_t>(state.range(0));
  const ProcMode& mode = kModes[state.range(1)];

  mpc::ClusterConfig config;
  config.num_machines = machines;
  config.local_memory_bytes = 1 << 22;
  config.backend = mode.backend;
  mpc::Cluster cluster(config);

  // The first round pays the one-time pool spawn + initial resync; it is
  // reported on its own, not folded into the steady-state mean.
  std::uint64_t round = 0;
  const Timer first_timer;
  cluster.run_round(all_to_all_spec(round++), "bench");
  const double first_round_ms = first_timer.milliseconds();

  const double bytes_per_round =
      static_cast<double>(machines * machines * kPayloadBytes);
  double total_ms = 0.0;
  for (auto _ : state) {
    const Timer timer;
    cluster.run_round(all_to_all_spec(round++), "bench");
    total_ms += timer.milliseconds();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      bytes_per_round * static_cast<double>(state.iterations())));

  const double round_ms =
      total_ms / static_cast<double>(std::max<benchmark::IterationCount>(
                     1, state.iterations()));
  state.counters["round_ms"] = round_ms;
  IpcBenchRecorder::global().add_trial(mode.name, machines, first_round_ms,
                                       round_ms);
  IpcBenchRecorder::global().write_artifacts();
}

BENCHMARK(BM_AllToAllRound)
    ->ArgNames({"machines", "mode"})
    ->ArgsProduct({{4, 8, 16}, {0, 1}})
    ->Iterations(kRoundsPerTrial)
    ->Repetitions(kTrials)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mpte::bench
