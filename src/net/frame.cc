#include "net/frame.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

namespace sjos {
namespace net {

namespace {

/// Writes the big-endian 32-bit length header for a payload of `len`
/// bytes (at most kFrameAbsoluteMaxPayload, checked).
void EncodeFrameHeader(size_t len, char header[kFrameHeaderBytes]) {
  SJOS_CHECK(len <= kFrameAbsoluteMaxPayload,
             "frame payload exceeds the absolute maximum");
  const uint32_t n = static_cast<uint32_t>(len);
  header[0] = static_cast<char>((n >> 24) & 0xFF);
  header[1] = static_cast<char>((n >> 16) & 0xFF);
  header[2] = static_cast<char>((n >> 8) & 0xFF);
  header[3] = static_cast<char>(n & 0xFF);
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(payload.size(), header);
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(header, kFrameHeaderBytes);
  out.append(payload);
  return out;
}

FrameDecode DecodeFrame(std::string_view buffer, size_t max_payload,
                        std::string_view* payload, size_t* consumed,
                        uint64_t* declared) {
  if (buffer.size() < kFrameHeaderBytes) return FrameDecode::kNeedMore;
  const uint64_t len =
      (static_cast<uint64_t>(static_cast<unsigned char>(buffer[0])) << 24) |
      (static_cast<uint64_t>(static_cast<unsigned char>(buffer[1])) << 16) |
      (static_cast<uint64_t>(static_cast<unsigned char>(buffer[2])) << 8) |
      static_cast<uint64_t>(static_cast<unsigned char>(buffer[3]));
  if (declared != nullptr) *declared = len;
  if (len > max_payload || len > kFrameAbsoluteMaxPayload) {
    return FrameDecode::kOversize;
  }
  if (buffer.size() < kFrameHeaderBytes + len) return FrameDecode::kNeedMore;
  *payload = buffer.substr(kFrameHeaderBytes, static_cast<size_t>(len));
  *consumed = kFrameHeaderBytes + static_cast<size_t>(len);
  return FrameDecode::kOk;
}

namespace {

/// True for errno values meaning "the peer or path went away" — the
/// retryable transport-loss class, as opposed to local programming or
/// resource errors.
bool IsConnectionLostErrno(int err) {
  return err == ECONNRESET || err == EPIPE || err == ETIMEDOUT ||
         err == ECONNABORTED || err == ENETRESET || err == ESHUTDOWN;
}

/// Sends every byte of `iov[0..count)` with sendmsg, advancing through
/// the vector on partial writes.
Status SendAllv(int fd, iovec* iov, size_t count) {
  while (count > 0) {
    msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (IsConnectionLostErrno(errno)) {
        return Status::Unavailable(std::string("send failed: ") +
                                   std::strerror(errno));
      }
      return Status::Internal(std::string("send failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) return Status::Internal("send wrote zero bytes");
    size_t sent = static_cast<size_t>(n);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

/// Reads exactly `len` bytes. *eof_at_start is set (with OK returned,
/// zero bytes read) when the peer closed before the first byte. A close
/// after the first byte is Unavailable carrying `torn_what` ("mid-frame"
/// for a torn header, "mid-payload" for a torn body) so the client layer
/// can tell "peer went away mid-message" (retryable) from a clean EOF.
Status RecvAll(int fd, char* data, size_t len, bool* eof_at_start,
               const char* torn_what) {
  if (eof_at_start != nullptr) *eof_at_start = false;
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO fired: the read stalled. The server's idle/slow-loris
        // reaper keys on this code.
        return Status::DeadlineExceeded(
            std::string("recv timed out (") +
            (got == 0 ? "idle between frames" : torn_what) + ")");
      }
      if (IsConnectionLostErrno(errno)) {
        return Status::Unavailable(std::string("recv failed: ") +
                                   std::strerror(errno));
      }
      return Status::Internal(std::string("recv failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && eof_at_start != nullptr) {
        *eof_at_start = true;
        return Status::OK();
      }
      return Status::Unavailable("connection closed " +
                                 std::string(torn_what) + " (" +
                                 std::to_string(got) + " of " +
                                 std::to_string(len) + " bytes)");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status SendFrame(int fd, std::string_view payload) {
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(payload.size(), header);
  iovec iov[2];
  iov[0].iov_base = header;
  iov[0].iov_len = kFrameHeaderBytes;
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  return SendAllv(fd, iov, payload.empty() ? 1 : 2);
}

Status RecvFrame(int fd, size_t max_payload, std::string* payload,
                 bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  payload->clear();
  char header[kFrameHeaderBytes];
  bool eof = false;
  SJOS_RETURN_IF_ERROR(
      RecvAll(fd, header, kFrameHeaderBytes, &eof, "mid-frame"));
  if (eof) {
    if (clean_eof != nullptr) *clean_eof = true;
    return Status::OK();
  }
  const uint64_t len =
      (static_cast<uint64_t>(static_cast<unsigned char>(header[0])) << 24) |
      (static_cast<uint64_t>(static_cast<unsigned char>(header[1])) << 16) |
      (static_cast<uint64_t>(static_cast<unsigned char>(header[2])) << 8) |
      static_cast<uint64_t>(static_cast<unsigned char>(header[3]));
  if (len > max_payload || len > kFrameAbsoluteMaxPayload) {
    return Status::ResourceExhausted(
        "frame of " + std::to_string(len) + " bytes exceeds the limit of " +
        std::to_string(max_payload));
  }
  payload->resize(static_cast<size_t>(len));
  if (len > 0) {
    SJOS_RETURN_IF_ERROR(RecvAll(fd, payload->data(),
                                 static_cast<size_t>(len), nullptr,
                                 "mid-payload"));
  }
  return Status::OK();
}

}  // namespace net
}  // namespace sjos
