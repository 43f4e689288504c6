// Wire frames for the multi-process MPC backend.
//
// Every coordinator<->worker frame — on the shared-memory ring or, when
// too large for it, the worker's socketpair — is the common/checksum
// envelope applied to a Serializer payload:
//
//   u32 magic "FVMP" | u32 version | u64 payload_size
//   payload (starts with a u32 FrameKind)
//   u64 FNV-1a(payload)
//
// — the exact byte layout snapshots and trees use on disk, so one
// integrity path covers files and sockets. A reader pulls the fixed
// 16-byte prefix, learns the payload size, then receives payload+digest
// (from an fd: in a single Buffer::from_fd allocation) and verifies the
// digest.
//
// Blobs (store deltas/patches, outbox fragments, inbox payloads) are
// tagged: inline (length + bytes) or an (offset, length) reference into
// a shared-memory BlobArena when the frame travels next to one — see
// docs/ipc-transport.md for the full grammar.
//
// Frame kinds: the coordinator sends one kStep per round (the named
// StepSpec, a store patch, and the rank's delivered inbox); the worker
// answers kResult (its store delta + outbox) or kError (its step threw)
// and loops straight back into a blocking read — the *next* kStep is the
// implicit commit, and a kShutdown (or plain EOF when the pool dies)
// ends the worker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "mpc/buffer.hpp"
#include "mpc/machine.hpp"

namespace mpte::ipc {

enum class FrameKind : std::uint32_t {
  /// Worker -> coordinator: the rank's post-step store delta + outbox.
  kResult = 1,
  // 2 is retired (the fork-per-round release frame); it decodes as an
  // unknown kind. Never reuse it.
  /// Worker -> coordinator: the step threw; the payload is the message.
  kError = 3,
  /// Coordinator -> worker: execute one round (named step + store patch
  /// + delivered inbox).
  kStep = 4,
  /// Coordinator -> worker: exit cleanly.
  kShutdown = 5,
};

/// One store mutation observed during a step: `key` now maps to `blob`
/// (present) or was erased (!present).
struct StoreDelta {
  std::string key;
  bool present = false;
  mpc::Buffer blob;
};

/// Everything the coordinator needs from one worker to finish the round.
struct ResultFrame {
  mpc::MachineId rank = 0;
  std::uint64_t round = 0;
  /// Sorted by key (LocalStore::dirty_keys order) — deterministic bytes.
  std::vector<StoreDelta> store_delta;
  /// fragments[dst] = payloads queued to dst, in send order.
  std::vector<std::vector<mpc::Buffer>> fragments;
  std::map<std::string, std::size_t> channel_bytes;
};

struct ErrorFrame {
  mpc::MachineId rank = 0;
  std::uint64_t round = 0;
  std::string message;
};

/// Coordinator -> worker: everything one rank needs to run one round.
/// The worker's store survives between rounds, so `store_patch` carries
/// only what changed coordinator-side since the last kStep this worker
/// saw (host-side writes) — or, with `reset_store`, a full resync after
/// (re)spawn.
struct StepFrame {
  mpc::MachineId rank = 0;
  std::uint64_t round = 0;
  /// Registered step name; resolved in the worker via StepRegistry.
  std::string step_name;
  /// Serialized parameters for the registered factory.
  mpc::Buffer step_params;
  /// Clear the worker's resident store before applying `store_patch`
  /// (the patch is then the coordinator's full authoritative store).
  bool reset_store = false;
  /// Test-only fault injection: _exit before executing the step.
  bool inject_kill = false;
  /// Sorted by key — deterministic bytes.
  std::vector<StoreDelta> store_patch;
  /// The rank's delivered inbox for this round, in source-rank order.
  std::vector<mpc::Message> inbox;
};

/// A decoded frame; `kind` selects which member is meaningful.
struct Frame {
  FrameKind kind = FrameKind::kShutdown;
  std::uint64_t round = 0;
  ResultFrame result;
  ErrorFrame error;
  StepFrame step;
  /// Total envelope bytes this frame occupied on the wire.
  std::size_t wire_bytes = 0;
};

/// A bump region for large blob payloads, used by the shared-memory
/// transport. When an encoder is handed an arena, blobs of at least
/// kArenaBlobMin bytes are memcpy'd into it and the frame carries only
/// (offset, length) — the decoder on the other side reads them straight
/// out of the same shared pages. A blob that does not fit falls back to
/// inline bytes, so the arena never truncates anything.
///
/// The arena has no allocator state beyond `used`: the transport resets
/// it to 0 before each frame encode, which is safe because the frame
/// protocol is strict request/response alternation — by the time a side
/// encodes its next frame, the peer has fully consumed the previous one
/// (the round barrier is the proof; see docs/ipc-transport.md).
struct BlobArena {
  std::uint8_t* base = nullptr;
  std::size_t capacity = 0;
  std::size_t used = 0;

  void reset() { used = 0; }
};

/// Blobs below this size are always inlined — the (offset, length)
/// indirection costs more than the copy for tiny payloads.
inline constexpr std::size_t kArenaBlobMin = 256;

/// Encoders: `arena` is optional; nullptr inlines every blob. Frames
/// with no blob payloads (error, shutdown) have no arena parameter.
mpc::Buffer encode_result(const ResultFrame& frame,
                          BlobArena* arena = nullptr);
mpc::Buffer encode_error(const ErrorFrame& frame);
mpc::Buffer encode_step(const StepFrame& frame, BlobArena* arena = nullptr);
mpc::Buffer encode_shutdown();

/// Writes one encoded frame to `fd`.
Status write_frame(int fd, const mpc::Buffer& encoded);

/// Validates and decodes one complete envelope (header + payload +
/// digest) already in memory — the shared-memory ring path. `arena` must
/// cover the sender's blob arena when the frame may carry arena
/// references; blob bytes are copied out (Buffer::copy_of), so the frame
/// outlives the arena's next reset. kInvalidArgument for a bad header,
/// digest mismatch, malformed payload, or an arena reference that falls
/// outside `arena`.
Result<Frame> decode_envelope(std::span<const std::uint8_t> envelope,
                              std::span<const std::uint8_t> arena = {});

/// Reads and validates one frame. `timeout_ms` bounds the whole read
/// (prefix + payload + digest); < 0 blocks indefinitely. `arena` as in
/// decode_envelope (a frame that fell back to the socketpair may still
/// reference arena blobs — the arena is shared memory regardless of
/// which descriptor carried the frame). Codes: kDeadlineExceeded past
/// the budget, kUnavailable when the peer closed, kInvalidArgument for
/// bytes that are not a well-formed frame.
Result<Frame> read_frame(int fd, int timeout_ms,
                         std::span<const std::uint8_t> arena = {});

}  // namespace mpte::ipc
