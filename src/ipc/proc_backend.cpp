#include "ipc/proc_backend.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <exception>
#include <utility>

#include "common/parallel.hpp"
#include "ipc/frames.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "mpc/step.hpp"

namespace mpte::ipc {

namespace {

const char* cause_name(WorkerLost::Cause cause) {
  switch (cause) {
    case WorkerLost::Cause::kDied:
      return "died";
    case WorkerLost::Cause::kDeadline:
      return "deadline";
    case WorkerLost::Cause::kProtocol:
      return "protocol";
  }
  return "unknown";
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The rank's post-step result: its store delta (dirty keys, sorted) plus
/// its captured outbox.
ResultFrame build_result(mpc::MachineId rank, std::size_t round,
                         const mpc::Machine& machine, mpc::Outbox& outbox) {
  ResultFrame frame;
  frame.rank = rank;
  frame.round = round;
  const mpc::LocalStore& store = machine.store;
  for (const std::string& key : store.dirty_keys()) {
    StoreDelta delta;
    delta.key = key;
    delta.present = store.contains(key);
    if (delta.present) delta.blob = store.blob(key);
    frame.store_delta.push_back(std::move(delta));
  }
  frame.fragments = std::move(outbox.fragments);
  frame.channel_bytes = std::move(outbox.channel_bytes);
  return frame;
}

/// Rank-side loop of one worker. The Machine (store + inbox)
/// lives here across rounds; each kStep patches it, runs the registered
/// step, and answers with the dirty-key result delta. The next kStep is
/// the implicit commit; a closed channel (coordinator teardown or exit)
/// or kShutdown ends the loop. A step exception answers kError and keeps looping —
/// the coordinator decides whether the pool lives on.
[[noreturn]] void worker_main(std::size_t m, mpc::MachineId rank,
                              ShmChannel& channel) {
  par::set_default_threads(1);
  mpc::Machine machine;
  mpc::Outbox outbox;
  outbox.fragments.resize(m);
  for (;;) {
    auto frame = channel.recv_frame(-1);
    if (!frame.ok()) _exit(0);  // coordinator closed our channel: clean end
    if (frame->kind == FrameKind::kShutdown) _exit(0);
    if (frame->kind != FrameKind::kStep) _exit(4);
    StepFrame& step = frame->step;
    if (step.inject_kill) _exit(9);  // IpcOptions kill: vanish mid-round
    try {
      if (step.reset_store) machine.store.clear();
      for (StoreDelta& delta : step.store_patch) {
        if (delta.present) {
          machine.store.set_blob(delta.key, std::move(delta.blob));
        } else {
          machine.store.erase(delta.key);
        }
      }
      machine.inbox = std::move(step.inbox);
      // Per-round deltas: only keys this step touches go back up.
      machine.store.clear_dirty();
      for (auto& cell : outbox.fragments) cell.clear();
      outbox.channel_bytes.clear();
      const mpc::Step body = mpc::StepRegistry::global().instantiate(
          step.step_name, step.step_params.span());
      mpc::execute_rank_step(rank, m, machine, outbox, body);
      ResultFrame result = build_result(rank, step.round, machine, outbox);
      const mpc::Buffer encoded =
          encode_result(result, channel.encode_arena());
      if (!channel.send_frame(encoded).ok()) _exit(2);
      outbox.fragments.assign(m, {});  // moved out by build_result
    } catch (const std::exception& e) {
      ErrorFrame error;
      error.rank = rank;
      error.round = step.round;
      error.message = e.what();
      if (!channel.send_frame(encode_error(error)).ok()) _exit(1);
      // Our resident store may hold a half-executed step now; the
      // coordinator tears the pool down on kError, so the next read fails.
    } catch (...) {
      _exit(3);
    }
  }
}

/// Folds every rank's ring/arena counter deltas into the stats. The
/// counters live in the shared channel headers, so this captures
/// worker-side activity too — and stays valid after the children died,
/// as long as the pool (and with it the mapping) is alive.
void drain_pool_counters(ProcessPool& pool, IpcStats& stats) {
  for (mpc::MachineId rank = 0; rank < pool.size(); ++rank) {
    const RingCounters delta = pool.channel(rank).drain_counters();
    stats.ring_wraps += delta.wraps;
    stats.ring_full_waits += delta.full_waits;
    stats.shm_bytes += delta.shm_bytes;
    stats.fallback_frames += delta.fallback_frames;
  }
}

/// Human-readable waitpid status for WorkerLost details.
std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "stopped (waitpid status " + std::to_string(status) + ")";
}

}  // namespace

WorkerLost::WorkerLost(mpc::MachineId rank, std::size_t round, Cause cause,
                       const std::string& detail)
    : RankCrashed(rank, round,
                  "worker " + std::to_string(rank) + " lost in round " +
                      std::to_string(round) + " (" + cause_name(cause) +
                      "): " + detail),
      cause_(cause) {}

ProcBackend::~ProcBackend() {
  if (!pool_) return;
  // Graceful end-of-life: ask every live worker to _exit(0), then join.
  // Workers blocked on their ring exit on the kShutdown; join_all
  // SIGKILLs stragglers.
  const mpc::Buffer shutdown = encode_shutdown();
  for (mpc::MachineId rank = 0; rank < pool_->size(); ++rank) {
    (void)pool_->channel(rank).send_frame(shutdown);
  }
  (void)pool_->join_all(1000);
  drain_pool_counters(*pool_, stats_);
  pool_.reset();
}

void ProcBackend::teardown_pool() {
  if (pool_) {
    pool_->kill_all();
    drain_pool_counters(*pool_, stats_);
    pool_.reset();
  }
  synced_.assign(synced_.size(), false);
}

void ProcBackend::invalidate_workers() { teardown_pool(); }

void ProcBackend::run_steps(const mpc::ClusterConfig& config,
                            std::vector<mpc::Machine>& machines,
                            std::vector<mpc::Outbox>& outboxes,
                            const mpc::StepSpec& spec, std::size_t round) {
  const std::size_t m = machines.size();
  const obs::Span span("ipc", "round/steps/" + spec.name, "round", round);

  if (!pool_) {
    auto spawned = ProcessPool::spawn(
        m,
        ShmChannel::Config{config.ipc.shm_ring_bytes,
                           config.ipc.shm_arena_bytes},
        [m](mpc::MachineId rank, ShmChannel& channel) {
          worker_main(m, rank, channel);
        });
    if (!spawned.ok()) {
      throw MpteError("ipc: " + spawned.status().to_string());
    }
    pool_.emplace(std::move(*spawned));
    stats_.workers_forked += m;
    if (ever_spawned_) stats_.workers_respawned += m;
    ever_spawned_ = true;
    synced_.assign(m, false);
  }
  ++stats_.rounds;
  ++stats_.step_rounds[spec.name];

  const bool inject_kill =
      !kill_fired_ && config.ipc.kill_at_round >= 0 &&
      static_cast<std::uint64_t>(config.ipc.kill_at_round) == round;
  if (inject_kill) kill_fired_ = true;

  const Clock::time_point barrier_start = Clock::now();
  const Clock::time_point deadline =
      barrier_start + std::chrono::milliseconds(config.ipc.round_deadline_ms);

  // Ship one kStep per rank: the spec, the store patch (full resync for
  // an unsynced worker; dirty keys — host writes since the last kStep —
  // otherwise), and the delivered inbox. Inbox Buffers are slab-shared
  // with the coordinator's machines; only the wire serialization copies.
  const mpc::Buffer params_wire(spec.params);
  for (mpc::MachineId rank = 0; rank < m; ++rank) {
    StepFrame step;
    step.rank = rank;
    step.round = round;
    step.step_name = spec.name;
    step.step_params = params_wire;
    step.inject_kill = inject_kill && rank == config.ipc.kill_rank;
    mpc::LocalStore& store = machines[rank].store;
    if (!synced_[rank]) {
      step.reset_store = true;
      ++stats_.store_resyncs;
      for (const auto& [key, blob] : store.entries()) {
        step.store_patch.push_back(StoreDelta{key, true, blob});
      }
    } else {
      for (const std::string& key : store.dirty_keys()) {
        StoreDelta delta;
        delta.key = key;
        delta.present = store.contains(key);
        if (delta.present) delta.blob = store.blob(key);
        step.store_patch.push_back(std::move(delta));
      }
    }
    for (const auto& delta : step.store_patch) {
      stats_.store_patch_bytes += delta.blob.size();
    }
    step.inbox = machines[rank].inbox;
    const mpc::Buffer encoded =
        encode_step(step, pool_->channel(rank).encode_arena());
    if (!pool_->channel(rank).send_frame(encoded).ok()) {
      ++stats_.workers_lost;
      std::string detail = "step frame write failed";
      if (pool_->try_reap(rank)) {
        detail += "; worker " + describe_exit(pool_->exit_status(rank));
      }
      teardown_pool();
      throw WorkerLost(rank, round, WorkerLost::Cause::kDied, detail);
    }
    ++stats_.step_frames_sent;
    stats_.step_wire_bytes += encoded.size();
    // The worker now holds everything the coordinator does for this rank.
    // (If the round fails below, teardown_pool marks it unsynced again.)
    store.clear_dirty();
    synced_[rank] = true;
  }

  // Barrier: one result (or error) frame per rank, bounded by the round
  // deadline. Any failure kills and reaps the whole pool (no zombies) and
  // surfaces as a typed WorkerLost *before* any coordinator state was
  // mutated, so a checkpointed run can retry the round; the next round
  // respawns the pool and resyncs every store.
  std::vector<Frame> frames;
  frames.reserve(m);
  {
    const obs::Span barrier_span("ipc", "round/barrier", "round", round);
    for (mpc::MachineId rank = 0; rank < m; ++rank) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now());
      auto frame = pool_->channel(rank).recv_frame(
          static_cast<int>(std::max<std::int64_t>(0, remaining.count())));
      if (!frame.ok()) {
        ++stats_.workers_lost;
        WorkerLost::Cause cause = WorkerLost::Cause::kDied;
        if (frame.status().code() == StatusCode::kDeadlineExceeded) {
          cause = WorkerLost::Cause::kDeadline;
        } else if (frame.status().code() == StatusCode::kInvalidArgument) {
          cause = WorkerLost::Cause::kProtocol;
        }
        std::string detail = frame.status().message();
        if (pool_->try_reap(rank)) {
          detail += "; worker " + describe_exit(pool_->exit_status(rank));
        }
        teardown_pool();
        throw WorkerLost(rank, round, cause, detail);
      }
      ++stats_.frames_received;
      stats_.result_wire_bytes += frame->wire_bytes;
      frames.push_back(std::move(*frame));
    }
  }
  stats_.barrier_seconds += seconds_since(barrier_start);

  // Validate before mutating anything. A step exception propagates like
  // the in-process backend's: the lowest rank's error wins (serial
  // order). On kError the worker's resident store may hold a
  // half-executed step, so the pool goes down with the round; the
  // coordinator's own state is untouched either way.
  for (mpc::MachineId rank = 0; rank < m; ++rank) {
    const Frame& frame = frames[rank];
    if (frame.kind == FrameKind::kError) {
      teardown_pool();
      throw MpteError(frames[rank].error.message);
    }
    if (frame.kind != FrameKind::kResult || frame.result.rank != rank ||
        frame.result.round != round ||
        frame.result.fragments.size() != m) {
      ++stats_.workers_lost;
      teardown_pool();
      throw WorkerLost(rank, round, WorkerLost::Cause::kProtocol,
                       "result frame does not match (rank, round, M)");
    }
  }

  // Apply, then clear the applied keys' dirty marks: the worker computed
  // these values itself, so its resident store already agrees — the next
  // patch need not echo them back.
  const Clock::time_point apply_start = Clock::now();
  {
    const obs::Span apply_span("ipc", "round/apply", "round", round);
    for (mpc::MachineId rank = 0; rank < m; ++rank) {
      ResultFrame& result = frames[rank].result;
      for (StoreDelta& delta : result.store_delta) {
        stats_.store_delta_bytes += delta.blob.size();
        if (delta.present) {
          machines[rank].store.set_blob(delta.key, std::move(delta.blob));
        } else {
          machines[rank].store.erase(delta.key);
        }
      }
      for (const auto& cell : result.fragments) {
        for (const auto& fragment : cell) {
          stats_.fragment_bytes += fragment.size();
        }
      }
      outboxes[rank].fragments = std::move(result.fragments);
      outboxes[rank].channel_bytes = std::move(result.channel_bytes);
      machines[rank].store.clear_dirty();
    }
  }
  stats_.apply_seconds += seconds_since(apply_start);
  drain_pool_counters(*pool_, stats_);
  // No commit frame: each worker is already blocked reading its next
  // kStep, which is the implicit commit of this one.
}

void ProcBackend::export_metrics(obs::Registry& registry) const {
  const auto c = [&](const std::string& name, const std::string& help,
                     std::uint64_t value) {
    registry.counter(name, help).set(value);
  };
  c("mpte_ipc_rounds_total", "Rounds executed by the multi-process backend.",
    stats_.rounds);
  c("mpte_ipc_workers_forked_total", "Worker processes forked.",
    stats_.workers_forked);
  c("mpte_ipc_workers_lost_total",
    "Workers lost mid-round (died, deadline, or protocol).",
    stats_.workers_lost);
  c("mpte_ipc_frames_received_total", "Result frames received.",
    stats_.frames_received);
  c("mpte_ipc_result_wire_bytes_total",
    "Worker-to-coordinator result frame bytes on the wire.",
    stats_.result_wire_bytes);
  c("mpte_ipc_store_delta_bytes_total",
    "Store-delta payload bytes shipped inside result frames.",
    stats_.store_delta_bytes);
  c("mpte_ipc_fragment_bytes_total",
    "Outbox fragment payload bytes shipped inside result frames.",
    stats_.fragment_bytes);
  c("mpte_ipc_step_frames_sent_total",
    "kStep frames shipped to persistent workers.", stats_.step_frames_sent);
  c("mpte_ipc_step_wire_bytes_total",
    "Coordinator-to-worker kStep frame bytes on the wire.",
    stats_.step_wire_bytes);
  c("mpte_ipc_store_patch_bytes_total",
    "Store-patch payload bytes shipped inside kStep frames.",
    stats_.store_patch_bytes);
  c("mpte_ipc_workers_respawned_total",
    "Persistent workers forked again after a pool teardown.",
    stats_.workers_respawned);
  c("mpte_ipc_store_resyncs_total",
    "Full store resyncs shipped to (re)spawned persistent workers.",
    stats_.store_resyncs);
  c("mpte_ipc_ring_wraps_total",
    "Shared-memory ring writes that wrapped past the buffer end.",
    stats_.ring_wraps);
  c("mpte_ipc_ring_full_waits_total",
    "Producer blocking episodes on a full shared-memory ring.",
    stats_.ring_full_waits);
  c("mpte_ipc_shm_bytes_total",
    "Bytes moved through shared-memory rings and blob arenas.",
    stats_.shm_bytes);
  c("mpte_ipc_fallback_frames_total",
    "Frames that exceeded ring capacity and fell back to the socketpair.",
    stats_.fallback_frames);
  for (const auto& [step, rounds] : stats_.step_rounds) {
    registry
        .counter("mpte_ipc_step_rounds_total",
                 "Rounds executed per registered step name.",
                 {{"step", step}})
        .set(rounds);
  }
  registry
      .gauge("mpte_ipc_barrier_seconds",
             "Cumulative provision-to-last-frame barrier time.")
      .set(stats_.barrier_seconds);
  registry
      .gauge("mpte_ipc_apply_seconds",
             "Cumulative time applying store deltas and outboxes.")
      .set(stats_.apply_seconds);
}

}  // namespace mpte::ipc

namespace mpte::mpc {

std::unique_ptr<RoundExecutor> make_multiprocess_executor() {
  return std::make_unique<ipc::ProcBackend>();
}

}  // namespace mpte::mpc
