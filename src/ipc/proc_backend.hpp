// The multi-process round executor behind ClusterConfig::backend =
// Backend::kMultiProcess.
//
// The pool forks each rank **once**, lazily on the first round. A worker
// keeps its LocalStore resident across rounds; each round the coordinator
// ships a kStep frame — the StepSpec (name + serialized params, rebuilt
// worker-side via the StepRegistry), a store patch covering what changed
// coordinator-side since the last kStep (host writes; or a full resync
// after (re)spawn), and the rank's delivered inbox — and the worker
// answers with one kResult frame: the rank's store delta (LocalStore
// dirty keys) plus its outbox.
//
// The coordinator applies all M frames to its authoritative state and
// then falls through to the same audit/delivery/stats code the
// in-process backend uses, which is why RoundStats, channel byte totals,
// and the golden fingerprints are byte-identical between backends.
//
// Frames travel one ShmChannel per worker (shm_ring.hpp): shared-memory
// rings + blob arenas, with the worker's socketpair carrying only frames
// too large for its ring. Decoded frames are identical on either path,
// so ring sizes never affect results either; see docs/ipc-transport.md.
//
// Failure semantics: a worker that dies (EOF/EPIPE, observed exit),
// misses the round deadline, or sends garbage surfaces as WorkerLost —
// a RankCrashed subclass, so ckpt::run_with_recovery restores the latest
// snapshot (or restarts) exactly as for a simulated rank crash. The
// coordinator's state is untouched on failure: deltas are applied only
// after every frame arrived intact. A failure also tears the whole pool
// down; the next round respawns it and resyncs every worker's store from
// the coordinator's authoritative copy (counted in workers_respawned /
// store_resyncs). A step exception — including a step name the workers
// cannot resolve — rethrows the lowest rank's message as MpteError, as
// in-process, and tears the pool down the same way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ipc/process_pool.hpp"
#include "mpc/cluster.hpp"

namespace mpte::obs {
class Registry;
}  // namespace mpte::obs

namespace mpte::ipc {

/// Thrown by the multi-process backend when a worker process is lost
/// mid-round. Caught by recovery drivers via the RankCrashed base.
class WorkerLost : public mpc::RankCrashed {
 public:
  enum class Cause : std::uint8_t {
    kDied = 0,      ///< EOF/EPIPE, or waitpid observed the exit
    kDeadline = 1,  ///< missed the round barrier deadline
    kProtocol = 2,  ///< sent bytes that do not parse as a valid frame
  };

  WorkerLost(mpc::MachineId rank, std::size_t round, Cause cause,
             const std::string& detail);

  Cause cause() const { return cause_; }

 private:
  Cause cause_;
};

/// Transport counters, exported as mpte_ipc_* metrics. Wall-clock buckets
/// are coordinator-side: barrier covers provision-to-last-frame, apply
/// covers result decoding + delta application.
struct IpcStats {
  std::uint64_t rounds = 0;
  std::uint64_t workers_forked = 0;
  std::uint64_t workers_lost = 0;
  std::uint64_t frames_received = 0;
  /// Worker -> coordinator result-frame envelope bytes.
  std::uint64_t result_wire_bytes = 0;
  /// Store-delta payload bytes carried inside result frames.
  std::uint64_t store_delta_bytes = 0;
  /// Outbox fragment payload bytes carried inside result frames.
  std::uint64_t fragment_bytes = 0;
  /// kStep frames shipped to workers.
  std::uint64_t step_frames_sent = 0;
  /// Coordinator -> worker kStep envelope bytes.
  std::uint64_t step_wire_bytes = 0;
  /// Store-patch payload bytes carried inside kStep frames.
  std::uint64_t store_patch_bytes = 0;
  /// Workers forked *again* after the initial pool (pool teardown after a
  /// WorkerLost or an invalidation, then respawn on the next round).
  std::uint64_t workers_respawned = 0;
  /// Full store resyncs shipped to (re)spawned workers.
  std::uint64_t store_resyncs = 0;
  // --- shared-memory channel counters. Drained from the shared ring
  // headers once per round and at pool teardown, so worker-side
  // activity is included. ---
  /// Frame writes that wrapped past the end of a ring buffer.
  std::uint64_t ring_wraps = 0;
  /// Blocking episodes where a producer found its ring full.
  std::uint64_t ring_full_waits = 0;
  /// Bytes moved through shared-memory rings and blob arenas.
  std::uint64_t shm_bytes = 0;
  /// Frames that exceeded ring capacity and fell back to the socketpair.
  std::uint64_t fallback_frames = 0;
  /// Rounds executed per step name (exported with a step="..." label).
  std::map<std::string, std::uint64_t> step_rounds;
  double barrier_seconds = 0.0;
  double apply_seconds = 0.0;
};

class ProcBackend final : public mpc::RoundExecutor {
 public:
  ProcBackend() = default;
  /// Gracefully shuts a live pool down (kShutdown frame, then
  /// join; the pool destructor SIGKILLs stragglers — no path leaks a
  /// child).
  ~ProcBackend() override;

  void run_steps(const mpc::ClusterConfig& config,
                 std::vector<mpc::Machine>& machines,
                 std::vector<mpc::Outbox>& outboxes,
                 const mpc::StepSpec& spec, std::size_t round) override;

  void export_metrics(obs::Registry& registry) const override;

  /// Coordinator machines were rewritten out of band (resume_from /
  /// reset_to_start): resident worker stores are stale. Tears the pool
  /// down; the next round respawns and resyncs.
  void invalidate_workers() override;

  const IpcStats& stats() const { return stats_; }

 private:
  /// Kills + reaps the pool and marks every rank unsynced.
  void teardown_pool();

  IpcStats stats_;
  /// IpcOptions::kill_at_round fires once per executor (like a FaultPlan
  /// event), so a recovered run passes the previously-killed round.
  bool kill_fired_ = false;
  /// The worker pool; engaged from the first round until a
  /// failure/invalidation tears it down (then re-engaged on demand).
  std::optional<ProcessPool> pool_;
  /// synced_[rank]: the worker's resident store matches the
  /// coordinator's view as of the last kStep it was sent. False forces a
  /// full-store resync in the next kStep.
  std::vector<bool> synced_;
  /// Whether a pool was ever spawned (distinguishes the first
  /// spawn from respawns in workers_respawned).
  bool ever_spawned_ = false;
};

}  // namespace mpte::ipc
