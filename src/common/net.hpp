// EINTR-safe blocking socket I/O shared by serve (TCP line protocol) and
// ipc (ring-overflow frames over socketpairs).
//
// Every helper retries on EINTR and never raises SIGPIPE (sends use
// MSG_NOSIGNAL), so callers see peer death as a Status instead of a
// signal. Deadlines are whole-operation budgets: recv_exact with
// timeout_ms = 250 means "the complete fill must land within 250 ms",
// not "each chunk".
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace mpte::net {

/// kUnavailable tagged with the current errno text, e.g. "send: Broken
/// pipe". Capture it before any further syscall clobbers errno.
Status socket_error(const std::string& what);

/// Sends the whole span, retrying short writes and EINTR.
Status send_all(int fd, std::span<const std::uint8_t> bytes);
Status send_all(int fd, std::string_view text);

/// One recv of up to buf.size() bytes. Returns 0 on orderly EOF.
Result<std::size_t> recv_some(int fd, std::span<std::uint8_t> buf);

/// Fills `buf` completely. timeout_ms < 0 blocks indefinitely; otherwise
/// the whole fill must complete within the budget (kDeadlineExceeded).
/// EOF or a socket error before the fill completes is kUnavailable.
Status recv_exact(int fd, std::span<std::uint8_t> buf, int timeout_ms = -1);

/// Waits until `fd` is readable (or has been closed by the peer, which
/// also reports readable). false = the timeout expired first.
Result<bool> wait_readable(int fd, int timeout_ms);

/// Completes a connect() that a signal interrupted: per POSIX the attempt
/// proceeds asynchronously, so retrying connect() would yield EALREADY.
/// Waits for writability, then reads the outcome from SO_ERROR.
Status finish_connect(int fd);

}  // namespace mpte::net
