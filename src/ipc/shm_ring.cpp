#include "ipc/shm_ring.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <new>
#include <vector>

#include "common/checksum.hpp"

namespace mpte::ipc {

namespace {

using Clock = std::chrono::steady_clock;

/// Spin iterations before parking on the futex. At ~1ns per relax this
/// covers the common case — the peer is mid-round and will advance the
/// cursor within a few microseconds — without burning a core for long.
constexpr int kSpinIterations = 4096;

/// Upper bound of one futex park. Between slices the waiter re-checks
/// the cursor, the closed flag, the deadline, and the peer fd — so a
/// SIGKILLed peer (which can never wake us) is detected within a slice.
constexpr int kFutexSliceMs = 50;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// True once the peer's end of the socketpair is gone (POLLHUP/POLLERR
/// with no events requested — a pure liveness probe, never a read).
bool peer_dead(int fd) {
  if (fd < 0) return false;
  struct pollfd p;
  p.fd = fd;
  p.events = 0;
  p.revents = 0;
  if (::poll(&p, 1, 0) <= 0) return false;
  return (p.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
}

/// Milliseconds for the next futex slice: min(slice, time to deadline).
/// Returns 0 when the deadline has passed (infinite never does).
int next_slice_ms(Clock::time_point deadline, bool infinite) {
  if (infinite) return kFutexSliceMs;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) return 0;
  return static_cast<int>(
      std::min<std::int64_t>(left.count(), kFutexSliceMs));
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

constexpr std::size_t kMinRingBytes = 1u << 10;
constexpr std::uint64_t kChannelMagic = 0x4d505445'52494e47ull;  // "MPTERING"

std::size_t align_up(std::size_t v, std::size_t a) {
  return (v + a - 1) / a * a;
}

}  // namespace

Status ShmRing::write(std::span<const std::uint8_t> bytes, int peer_fd,
                      int timeout_ms) {
  const bool infinite = timeout_ms < 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(infinite ? 0 : timeout_ms);
  const std::size_t mask = capacity_ - 1;
  std::size_t offset = 0;
  bool blocking_counted = false;
  while (offset < bytes.size()) {
    if (closed()) {
      return Status(StatusCode::kUnavailable, "shm ring: closed");
    }
    const std::uint64_t head = header_->head.load(std::memory_order_acquire);
    const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
    const std::size_t free = capacity_ - static_cast<std::size_t>(tail - head);
    if (free == 0) {
      if (!blocking_counted) {
        header_->full_waits.fetch_add(1, std::memory_order_relaxed);
        blocking_counted = true;
      }
      bool moved = false;
      for (int i = 0; i < kSpinIterations; ++i) {
        if (header_->head.load(std::memory_order_acquire) != head ||
            closed()) {
          moved = true;
          break;
        }
        cpu_relax();
      }
      if (moved) continue;
      if (peer_dead(peer_fd)) {
        return Status(StatusCode::kUnavailable, "shm ring: peer closed");
      }
      const int slice = next_slice_ms(deadline, infinite);
      if (slice == 0) {
        return Status(StatusCode::kDeadlineExceeded,
                      "shm ring: write timed out");
      }
      // Dekker-style park: flag (seq_cst) then re-check, against the
      // consumer's cursor-store/flag-load on the other side — one of the
      // two always observes the other, so no wake is ever missed.
      const std::uint32_t seq =
          header_->head_seq.load(std::memory_order_acquire);
      header_->writer_waiting.store(1, std::memory_order_seq_cst);
      if (header_->head.load(std::memory_order_seq_cst) == head &&
          !closed()) {
        futex_wait(header_->head_seq, seq, slice);
      }
      header_->writer_waiting.store(0, std::memory_order_relaxed);
      continue;
    }
    blocking_counted = false;
    const std::size_t at = static_cast<std::size_t>(tail & mask);
    const std::size_t chunk =
        std::min({bytes.size() - offset, free, capacity_ - at});
    std::memcpy(data_ + at, bytes.data() + offset, chunk);
    if (at + chunk == capacity_) {
      header_->wraps.fetch_add(1, std::memory_order_relaxed);
    }
    header_->bytes.fetch_add(chunk, std::memory_order_relaxed);
    header_->tail.store(tail + chunk, std::memory_order_release);
    header_->tail_seq.fetch_add(1, std::memory_order_seq_cst);
    if (header_->reader_waiting.load(std::memory_order_seq_cst) != 0) {
      futex_wake_all(header_->tail_seq);
    }
    offset += chunk;
  }
  return Status::Ok();
}

Status ShmRing::read(std::span<std::uint8_t> out, int peer_fd,
                     int timeout_ms) {
  const bool infinite = timeout_ms < 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(infinite ? 0 : timeout_ms);
  const std::size_t mask = capacity_ - 1;
  std::size_t offset = 0;
  while (offset < out.size()) {
    const std::uint64_t head = header_->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = header_->tail.load(std::memory_order_acquire);
    const std::size_t avail = static_cast<std::size_t>(tail - head);
    if (avail == 0) {
      // A closed ring may still be drained; only fail once it is empty.
      if (closed()) {
        return Status(StatusCode::kUnavailable, "shm ring: closed");
      }
      bool moved = false;
      for (int i = 0; i < kSpinIterations; ++i) {
        if (header_->tail.load(std::memory_order_acquire) != tail ||
            closed()) {
          moved = true;
          break;
        }
        cpu_relax();
      }
      if (moved) continue;
      if (peer_dead(peer_fd)) {
        return Status(StatusCode::kUnavailable, "shm ring: peer closed");
      }
      const int slice = next_slice_ms(deadline, infinite);
      if (slice == 0) {
        return Status(StatusCode::kDeadlineExceeded,
                      "shm ring: read timed out");
      }
      const std::uint32_t seq =
          header_->tail_seq.load(std::memory_order_acquire);
      header_->reader_waiting.store(1, std::memory_order_seq_cst);
      if (header_->tail.load(std::memory_order_seq_cst) == tail &&
          !closed()) {
        futex_wait(header_->tail_seq, seq, slice);
      }
      header_->reader_waiting.store(0, std::memory_order_relaxed);
      continue;
    }
    const std::size_t at = static_cast<std::size_t>(head & mask);
    const std::size_t chunk =
        std::min({out.size() - offset, avail, capacity_ - at});
    std::memcpy(out.data() + offset, data_ + at, chunk);
    header_->head.store(head + chunk, std::memory_order_release);
    header_->head_seq.fetch_add(1, std::memory_order_seq_cst);
    if (header_->writer_waiting.load(std::memory_order_seq_cst) != 0) {
      futex_wake_all(header_->head_seq);
    }
    offset += chunk;
  }
  return Status::Ok();
}

void ShmRing::close() {
  header_->closed.store(1, std::memory_order_seq_cst);
  // Bump both futex words so parked waiters fail their expected-value
  // check immediately instead of sleeping out the slice.
  header_->tail_seq.fetch_add(1, std::memory_order_seq_cst);
  header_->head_seq.fetch_add(1, std::memory_order_seq_cst);
  futex_wake_all(header_->tail_seq);
  futex_wake_all(header_->head_seq);
}

struct ShmChannel::Meta {
  std::uint64_t magic = kChannelMagic;
  std::uint64_t ring_capacity = 0;
  std::uint64_t arena_capacity = 0;
  /// Blob bytes passed through the arenas (both directions).
  std::atomic<std::uint64_t> arena_bytes{0};
  /// Frames that exceeded ring capacity and took the socketpair.
  std::atomic<std::uint64_t> fallback_frames{0};
};

Result<ShmChannel> ShmChannel::create(const Config& config) {
  const std::size_t ring_capacity =
      round_up_pow2(std::max(config.ring_bytes, kMinRingBytes));
  const std::size_t arena_capacity = config.arena_bytes;

  const std::size_t meta_at = 0;
  const std::size_t header_to_worker_at =
      align_up(meta_at + sizeof(Meta), alignof(RingHeader));
  const std::size_t header_to_coord_at =
      align_up(header_to_worker_at + sizeof(RingHeader), alignof(RingHeader));
  const std::size_t data_to_worker_at =
      align_up(header_to_coord_at + sizeof(RingHeader), 64);
  const std::size_t data_to_coord_at = data_to_worker_at + ring_capacity;
  const std::size_t arena_to_worker_at =
      align_up(data_to_coord_at + ring_capacity, 64);
  const std::size_t arena_to_coord_at = arena_to_worker_at + arena_capacity;
  const std::size_t total = arena_to_coord_at + arena_capacity;

  auto region = ShmRegion::create(total, "mpte-ipc-channel");
  if (!region.ok()) return region.status();

  ShmChannel channel;
  channel.region_ = std::move(*region);
  std::uint8_t* base = channel.region_.data();
  channel.meta_ = new (base + meta_at) Meta();
  channel.meta_->ring_capacity = ring_capacity;
  channel.meta_->arena_capacity = arena_capacity;
  auto* header_to_worker = new (base + header_to_worker_at) RingHeader();
  auto* header_to_coord = new (base + header_to_coord_at) RingHeader();
  channel.to_worker_ =
      ShmRing(header_to_worker, base + data_to_worker_at, ring_capacity);
  channel.to_coordinator_ =
      ShmRing(header_to_coord, base + data_to_coord_at, ring_capacity);
  channel.arena_to_worker_ = base + arena_to_worker_at;
  channel.arena_to_coordinator_ = base + arena_to_coord_at;
  channel.arena_capacity_ = arena_capacity;
  return channel;
}

void ShmChannel::bind(Side side, int fd) {
  side_ = side;
  fd_ = fd;
  send_arena_.base =
      side == Side::kCoordinator ? arena_to_worker_ : arena_to_coordinator_;
  send_arena_.capacity = arena_capacity_;
  send_arena_.used = 0;
}

ShmRing& ShmChannel::send_ring() {
  return side_ == Side::kCoordinator ? to_worker_ : to_coordinator_;
}

ShmRing& ShmChannel::recv_ring() {
  return side_ == Side::kCoordinator ? to_coordinator_ : to_worker_;
}

std::size_t ShmChannel::max_ring_frame() const {
  return static_cast<std::size_t>(meta_->ring_capacity) - sizeof(std::uint64_t);
}

BlobArena* ShmChannel::encode_arena() {
  send_arena_.reset();
  return &send_arena_;
}

Status ShmChannel::send_frame(const mpc::Buffer& encoded, int timeout_ms) {
  // Whatever the last encode staged in the arena rides along with this
  // frame; account it once and forget it (the next encode resets).
  if (send_arena_.used > 0) {
    meta_->arena_bytes.fetch_add(send_arena_.used,
                                 std::memory_order_relaxed);
    send_arena_.used = 0;
  }
  ShmRing& ring = send_ring();
  std::uint64_t marker = encoded.size();
  if (encoded.size() > max_ring_frame()) {
    // Too big for the ring: announce with a 0 marker (keeps per-channel
    // frame order) and ship the envelope over the socketpair.
    meta_->fallback_frames.fetch_add(1, std::memory_order_relaxed);
    marker = 0;
    const Status announced = ring.write(
        std::span(reinterpret_cast<const std::uint8_t*>(&marker),
                  sizeof(marker)),
        fd_, timeout_ms);
    if (!announced.ok()) return announced;
    return write_frame(fd_, encoded);
  }
  const Status announced = ring.write(
      std::span(reinterpret_cast<const std::uint8_t*>(&marker),
                sizeof(marker)),
      fd_, timeout_ms);
  if (!announced.ok()) return announced;
  return ring.write(encoded.span(), fd_, timeout_ms);
}

Result<Frame> ShmChannel::recv_frame(int timeout_ms) {
  ShmRing& ring = recv_ring();
  std::uint64_t marker = 0;
  const Status got_marker = ring.read(
      std::span(reinterpret_cast<std::uint8_t*>(&marker), sizeof(marker)),
      fd_, timeout_ms);
  if (!got_marker.ok()) return got_marker;
  const std::span<const std::uint8_t> arena(
      side_ == Side::kCoordinator ? arena_to_coordinator_ : arena_to_worker_,
      arena_capacity_);
  if (marker == 0) return read_frame(fd_, timeout_ms, arena);
  if (marker < kEnvelopeHeaderBytes + kEnvelopeTrailerBytes ||
      marker > max_ring_frame()) {
    return Status(StatusCode::kInvalidArgument,
                  "shm ring: implausible frame marker " +
                      std::to_string(marker));
  }
  std::vector<std::uint8_t> envelope(static_cast<std::size_t>(marker));
  const Status got_body = ring.read(envelope, fd_, timeout_ms);
  if (!got_body.ok()) return got_body;
  return decode_envelope(envelope, arena);
}

void ShmChannel::close() {
  to_worker_.close();
  to_coordinator_.close();
}

RingCounters ShmChannel::drain_counters() {
  const auto ring_total = [](const ShmRing& ring) {
    const RingHeader* h = ring.header();
    RingCounters c;
    c.wraps = h->wraps.load(std::memory_order_relaxed);
    c.full_waits = h->full_waits.load(std::memory_order_relaxed);
    c.shm_bytes = h->bytes.load(std::memory_order_relaxed);
    return c;
  };
  RingCounters total = ring_total(to_worker_);
  total += ring_total(to_coordinator_);
  total.shm_bytes += meta_->arena_bytes.load(std::memory_order_relaxed);
  total.fallback_frames =
      meta_->fallback_frames.load(std::memory_order_relaxed);

  RingCounters delta;
  delta.wraps = total.wraps - drained_.wraps;
  delta.full_waits = total.full_waits - drained_.full_waits;
  delta.shm_bytes = total.shm_bytes - drained_.shm_bytes;
  delta.fallback_frames = total.fallback_frames - drained_.fallback_frames;
  drained_ = total;
  return delta;
}

}  // namespace mpte::ipc
