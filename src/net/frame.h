// Wire framing: every message is a 4-byte big-endian payload length
// followed by that many bytes of UTF-8 JSON. The buffer-level encode/
// decode pair is socket-free (the protocol tests drive it directly); the
// fd-level helpers loop over partial reads/writes and keep EINTR and
// peer-close conditions as clean Statuses. A length prefix above the
// configured maximum is unrecoverable for the stream (the bytes that
// follow cannot be resynchronized), so the server answers once and
// closes; everything else leaves the connection usable.

#ifndef SJOS_NET_FRAME_H_
#define SJOS_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace sjos {
namespace net {

inline constexpr size_t kFrameHeaderBytes = 4;

/// Hard ceiling any server/client accepts regardless of configuration —
/// a prefix above this is always treated as a framing attack/corruption.
inline constexpr size_t kFrameAbsoluteMaxPayload = 64u << 20;  // 64 MiB

/// Prefixes `payload` with its big-endian 32-bit length.
std::string EncodeFrame(std::string_view payload);

enum class FrameDecode {
  kOk,        // one full frame extracted
  kNeedMore,  // buffer holds only part of a frame
  kOversize,  // declared length exceeds max_payload — stream unusable
};

/// Tries to extract one frame from the head of `buffer`. On kOk, *payload
/// points into `buffer` and *consumed is the total bytes (header included)
/// to drop from the front. On kOversize, *declared (when non-null) gets
/// the offending length.
FrameDecode DecodeFrame(std::string_view buffer, size_t max_payload,
                        std::string_view* payload, size_t* consumed,
                        uint64_t* declared = nullptr);

/// Writes one frame to `fd`: the header and the payload go out together
/// in one gathered send (sendmsg), straight from `payload` with no framed
/// copy, looping over partial writes. SIGPIPE is suppressed
/// (MSG_NOSIGNAL); a closed peer surfaces as a Status.
Status SendFrame(int fd, std::string_view payload);

/// Reads one frame from `fd`. A connection closed cleanly between frames
/// sets *clean_eof and returns OK with an empty payload; a close mid-frame
/// or any socket error is a Status. A declared length above `max_payload`
/// returns ResourceExhausted without consuming the (unread) payload bytes.
Status RecvFrame(int fd, size_t max_payload, std::string* payload,
                 bool* clean_eof);

}  // namespace net
}  // namespace sjos

#endif  // SJOS_NET_FRAME_H_
