// Worker pool for the multi-process MPC backend.
//
// spawn() creates one ShmChannel + socketpair + forked child per rank.
// Frames travel the channel's pre-fork shared-memory rings (see
// shm_ring.hpp); the socketpair carries only frames too large for a ring
// and the liveness probe that turns a dead peer into POLLHUP. The child
// inherits the coordinator's StepRegistry copy-on-write — which is how a
// step name resolves on both ends — runs the supplied entry function,
// and must _exit (never return: running atexit handlers or flushing
// inherited stdio in a forked child would corrupt the parent's world).
//
// The pool owns the parent-side fds, the shared-memory channels, and the
// pids. Its destructor SIGKILLs and reaps anything still running, so no
// code path — including exceptions thrown mid-round — can leak a zombie.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "ipc/shm_ring.hpp"
#include "mpc/machine.hpp"

namespace mpte::ipc {

class ProcessPool {
 public:
  /// Runs rank-side; must not return (call _exit). `channel` is the
  /// worker's end of its duplex channel, already bound to Side::kWorker.
  using WorkerMain =
      std::function<void(mpc::MachineId rank, ShmChannel& channel)>;

  /// Forks `ranks` workers over `channel`-configured channels. On a
  /// failure the already-spawned workers are killed and kUnavailable is
  /// returned.
  static Result<ProcessPool> spawn(std::size_t ranks,
                                   const ShmChannel::Config& channel,
                                   const WorkerMain& worker_main);

  ProcessPool(ProcessPool&& other) noexcept;
  ProcessPool& operator=(ProcessPool&& other) noexcept;
  ProcessPool(const ProcessPool&) = delete;
  ProcessPool& operator=(const ProcessPool&) = delete;
  ~ProcessPool();

  std::size_t size() const { return workers_.size(); }

  /// Coordinator-side endpoint of rank's channel.
  ShmChannel& channel(mpc::MachineId rank) {
    return *workers_[rank].channel;
  }

  /// Coordinator-side fd of rank's socketpair (-1 once closed).
  int fd(mpc::MachineId rank) const { return workers_[rank].fd; }

  /// Non-blocking death check: true once rank's child has been reaped
  /// (here or earlier). Records the exit status.
  bool try_reap(mpc::MachineId rank);

  /// waitpid status of a reaped worker (meaningless before try_reap /
  /// join_all observed the exit).
  int exit_status(mpc::MachineId rank) const {
    return workers_[rank].exit_status;
  }

  /// SIGKILLs and reaps every remaining worker, closing all fds and
  /// waking any ring waiter.
  /// Idempotent; called by the destructor.
  void kill_all();

  /// Waits up to `timeout_ms` for every worker to exit on its own, then
  /// SIGKILLs stragglers. Always reaps everything; returns non-OK when
  /// any worker had to be killed or exited non-zero.
  Status join_all(int timeout_ms);

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    /// unique_ptr: the arena/ring views handed out by the channel must
    /// stay address-stable while workers_ grows.
    std::unique_ptr<ShmChannel> channel;
    bool reaped = false;
    int exit_status = 0;
  };

  ProcessPool() = default;

  std::vector<Worker> workers_;
};

}  // namespace mpte::ipc
