#include "ipc/frames.hpp"

#include <array>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/checksum.hpp"
#include "common/net.hpp"
#include "common/serialize.hpp"

namespace mpte::ipc {

namespace {

mpc::Buffer envelope(const Serializer& payload) {
  return mpc::Buffer(wrap_checksummed(payload.bytes()));
}

// Blob tags (see docs/ipc-transport.md "Blob encoding").
constexpr std::uint8_t kBlobInline = 0;  // u64 length + raw bytes follow
constexpr std::uint8_t kBlobArena = 1;   // u64 offset + u64 length in arena

void write_buffer(Serializer& s, const mpc::Buffer& buffer,
                  BlobArena* arena) {
  if (arena != nullptr && buffer.size() >= kArenaBlobMin &&
      arena->used + buffer.size() <= arena->capacity) {
    s.write(kBlobArena);
    s.write(static_cast<std::uint64_t>(arena->used));
    s.write(static_cast<std::uint64_t>(buffer.size()));
    std::memcpy(arena->base + arena->used, buffer.data(), buffer.size());
    arena->used += buffer.size();
    return;
  }
  s.write(kBlobInline);
  s.write_span(buffer.span());
}

mpc::Buffer read_buffer(Deserializer& d,
                        std::span<const std::uint8_t> arena) {
  const auto tag = d.read<std::uint8_t>();
  if (tag == kBlobInline) return mpc::Buffer(d.read_vector<std::uint8_t>());
  if (tag != kBlobArena) {
    throw MpteError("ipc frame: unknown blob tag " + std::to_string(tag));
  }
  const auto offset = d.read<std::uint64_t>();
  const auto length = d.read<std::uint64_t>();
  if (offset > arena.size() || length > arena.size() - offset) {
    throw MpteError("ipc frame: arena blob reference out of bounds");
  }
  // The one worker-side touch: arena bytes are copied out here and
  // nowhere else, so the frame survives the arena's next reset.
  return mpc::Buffer::copy_of(arena.subspan(offset, length));
}

Frame decode(std::span<const std::uint8_t> payload,
             std::span<const std::uint8_t> arena) {
  Deserializer d(payload);
  Frame frame;
  frame.kind = static_cast<FrameKind>(d.read<std::uint32_t>());
  switch (frame.kind) {
    case FrameKind::kError:
      frame.error.rank = d.read<mpc::MachineId>();
      frame.error.round = d.read<std::uint64_t>();
      frame.error.message = d.read_string();
      frame.round = frame.error.round;
      return frame;
    case FrameKind::kResult: {
      auto& result = frame.result;
      result.rank = d.read<mpc::MachineId>();
      result.round = d.read<std::uint64_t>();
      frame.round = result.round;
      const auto num_deltas = d.read<std::uint64_t>();
      result.store_delta.reserve(num_deltas);
      for (std::uint64_t i = 0; i < num_deltas; ++i) {
        StoreDelta delta;
        delta.key = d.read_string();
        delta.present = d.read<std::uint8_t>() != 0;
        if (delta.present) delta.blob = read_buffer(d, arena);
        result.store_delta.push_back(std::move(delta));
      }
      const auto num_dst = d.read<std::uint64_t>();
      result.fragments.resize(num_dst);
      for (std::uint64_t dst = 0; dst < num_dst; ++dst) {
        const auto num_fragments = d.read<std::uint64_t>();
        result.fragments[dst].reserve(num_fragments);
        for (std::uint64_t f = 0; f < num_fragments; ++f) {
          result.fragments[dst].push_back(read_buffer(d, arena));
        }
      }
      const auto num_channels = d.read<std::uint64_t>();
      for (std::uint64_t c = 0; c < num_channels; ++c) {
        std::string channel = d.read_string();
        result.channel_bytes[std::move(channel)] = d.read<std::uint64_t>();
      }
      return frame;
    }
    case FrameKind::kStep: {
      auto& step = frame.step;
      step.rank = d.read<mpc::MachineId>();
      step.round = d.read<std::uint64_t>();
      frame.round = step.round;
      step.step_name = d.read_string();
      step.step_params = read_buffer(d, arena);
      step.reset_store = d.read<std::uint8_t>() != 0;
      step.inject_kill = d.read<std::uint8_t>() != 0;
      const auto num_patch = d.read<std::uint64_t>();
      step.store_patch.reserve(num_patch);
      for (std::uint64_t i = 0; i < num_patch; ++i) {
        StoreDelta delta;
        delta.key = d.read_string();
        delta.present = d.read<std::uint8_t>() != 0;
        if (delta.present) delta.blob = read_buffer(d, arena);
        step.store_patch.push_back(std::move(delta));
      }
      const auto num_messages = d.read<std::uint64_t>();
      step.inbox.reserve(num_messages);
      for (std::uint64_t i = 0; i < num_messages; ++i) {
        mpc::Message message;
        message.from = d.read<mpc::MachineId>();
        message.payload = read_buffer(d, arena);
        step.inbox.push_back(std::move(message));
      }
      return frame;
    }
    case FrameKind::kShutdown:
      return frame;
  }
  throw MpteError("ipc frame: unknown kind " +
                  std::to_string(static_cast<std::uint32_t>(frame.kind)));
}

}  // namespace

mpc::Buffer encode_result(const ResultFrame& frame, BlobArena* arena) {
  Serializer s;
  s.write(static_cast<std::uint32_t>(FrameKind::kResult));
  s.write(frame.rank);
  s.write(frame.round);
  s.write(static_cast<std::uint64_t>(frame.store_delta.size()));
  for (const auto& delta : frame.store_delta) {
    s.write_string(delta.key);
    s.write(static_cast<std::uint8_t>(delta.present ? 1 : 0));
    if (delta.present) write_buffer(s, delta.blob, arena);
  }
  s.write(static_cast<std::uint64_t>(frame.fragments.size()));
  for (const auto& cell : frame.fragments) {
    s.write(static_cast<std::uint64_t>(cell.size()));
    for (const auto& fragment : cell) write_buffer(s, fragment, arena);
  }
  s.write(static_cast<std::uint64_t>(frame.channel_bytes.size()));
  for (const auto& [channel, bytes] : frame.channel_bytes) {
    s.write_string(channel);
    s.write(static_cast<std::uint64_t>(bytes));
  }
  return envelope(s);
}

mpc::Buffer encode_error(const ErrorFrame& frame) {
  Serializer s;
  s.write(static_cast<std::uint32_t>(FrameKind::kError));
  s.write(frame.rank);
  s.write(frame.round);
  s.write_string(frame.message);
  return envelope(s);
}

mpc::Buffer encode_step(const StepFrame& frame, BlobArena* arena) {
  // Payload-size hint: sized up front so the hot path (one kStep per rank
  // per round) reallocates at most once even for large patches.
  std::size_t hint = 64 + frame.step_name.size() + frame.step_params.size();
  for (const auto& delta : frame.store_patch) {
    hint += 32 + delta.key.size() + delta.blob.size();
  }
  for (const auto& message : frame.inbox) {
    hint += 16 + message.payload.size();
  }
  Serializer s(hint);
  s.write(static_cast<std::uint32_t>(FrameKind::kStep));
  s.write(frame.rank);
  s.write(frame.round);
  s.write_string(frame.step_name);
  write_buffer(s, frame.step_params, arena);
  s.write(static_cast<std::uint8_t>(frame.reset_store ? 1 : 0));
  s.write(static_cast<std::uint8_t>(frame.inject_kill ? 1 : 0));
  s.write(static_cast<std::uint64_t>(frame.store_patch.size()));
  for (const auto& delta : frame.store_patch) {
    s.write_string(delta.key);
    s.write(static_cast<std::uint8_t>(delta.present ? 1 : 0));
    if (delta.present) write_buffer(s, delta.blob, arena);
  }
  s.write(static_cast<std::uint64_t>(frame.inbox.size()));
  for (const auto& message : frame.inbox) {
    s.write(message.from);
    write_buffer(s, message.payload, arena);
  }
  return envelope(s);
}

mpc::Buffer encode_shutdown() {
  Serializer s;
  s.write(static_cast<std::uint32_t>(FrameKind::kShutdown));
  return envelope(s);
}

Status write_frame(int fd, const mpc::Buffer& encoded) {
  return encoded.write_fd(fd);
}

Result<Frame> decode_envelope(std::span<const std::uint8_t> envelope,
                              std::span<const std::uint8_t> arena) {
  if (envelope.size() < kEnvelopeHeaderBytes + kEnvelopeTrailerBytes) {
    return Status(StatusCode::kInvalidArgument,
                  "ipc frame: envelope shorter than header + digest");
  }
  const auto payload_size = envelope_payload_size(
      envelope.first(kEnvelopeHeaderBytes), "ipc frame header");
  if (!payload_size.ok()) return payload_size.status();
  if (envelope.size() !=
      kEnvelopeHeaderBytes + *payload_size + kEnvelopeTrailerBytes) {
    return Status(StatusCode::kInvalidArgument,
                  "ipc frame: envelope size does not match header");
  }
  const auto payload = envelope.subspan(kEnvelopeHeaderBytes, *payload_size);
  std::uint64_t stored;
  std::memcpy(&stored, envelope.data() + kEnvelopeHeaderBytes + *payload_size,
              sizeof(stored));
  if (stored != fnv1a64(payload)) {
    return Status(StatusCode::kInvalidArgument,
                  "ipc frame: checksum mismatch");
  }
  try {
    Frame frame = decode(payload, arena);
    frame.wire_bytes = envelope.size();
    return frame;
  } catch (const MpteError& e) {
    return Status(StatusCode::kInvalidArgument, e.what());
  } catch (const std::exception& e) {
    return Status(StatusCode::kInvalidArgument,
                  std::string("ipc frame: ") + e.what());
  }
}

Result<Frame> read_frame(int fd, int timeout_ms,
                         std::span<const std::uint8_t> arena) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms < 0 ? 0
                                                              : timeout_ms);
  const auto remaining_ms = [&]() -> int {
    if (timeout_ms < 0) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    return static_cast<int>(std::max<std::int64_t>(0, left.count()));
  };

  std::array<std::uint8_t, kEnvelopeHeaderBytes> header;
  const Status got_header = net::recv_exact(fd, header, remaining_ms());
  if (!got_header.ok()) return got_header;
  const auto payload_size =
      envelope_payload_size(header, "ipc frame header");
  if (!payload_size.ok()) return payload_size.status();

  // Payload + trailing digest land in one slab — the single allocation
  // per frame that Buffer::from_fd exists for.
  const std::size_t body_size = *payload_size + kEnvelopeTrailerBytes;
  auto body = mpc::Buffer::from_fd(fd, body_size, remaining_ms());
  if (!body.ok()) return body.status();
  const std::span<const std::uint8_t> payload(body->data(), *payload_size);
  std::uint64_t stored;
  std::memcpy(&stored, body->data() + *payload_size, sizeof(stored));
  if (stored != fnv1a64(payload)) {
    return Status(StatusCode::kInvalidArgument,
                  "ipc frame: checksum mismatch");
  }
  try {
    Frame frame = decode(payload, arena);
    frame.wire_bytes = kEnvelopeHeaderBytes + body_size;
    return frame;
  } catch (const MpteError& e) {
    return Status(StatusCode::kInvalidArgument, e.what());
  } catch (const std::exception& e) {
    return Status(StatusCode::kInvalidArgument,
                  std::string("ipc frame: ") + e.what());
  }
}

}  // namespace mpte::ipc
