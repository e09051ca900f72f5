// Wire protocol for the real-time admission service (docs/serving.md).
//
// Length-prefixed binary frames over a byte stream:
//
//   u32  payload length L (little-endian, 9 <= L <= kMaxPayload)
//   u8   message type
//   u64  seq — client-chosen request id, echoed in the direct response;
//        job notifications (COMPLETED/EXPIRED) echo the SUBMIT's seq
//   ...  fixed type-specific body (table in docs/serving.md)
//
// All integers are little-endian; doubles are IEEE-754 bit patterns in
// little-endian byte order (bit-exact round-trip — admission stamps written
// by the server survive the wire unchanged). Every message has a fixed body
// size; a frame whose length does not match its type exactly is malformed,
// as is an unknown type or a length outside [kMinPayload, kMaxPayload] —
// malformed input kills the connection, never the server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sjs::serve {

enum class MsgType : std::uint8_t {
  // Client → server.
  kSubmit = 1,   ///< f64 workload, f64 rel_deadline, f64 value
  kCancel = 2,   ///< u64 ticket
  kQuery = 3,    ///< u64 ticket
  kStats = 4,    ///< (empty)
  kDrain = 5,    ///< (empty)
  // Server → client.
  kAccepted = 10,     ///< u64 ticket, f64 release (virtual admission stamp)
  kRejected = 11,     ///< u8 reason (RejectReason)
  kShed = 12,         ///< (empty) — backpressure: over the in-flight limit
  kCompleted = 13,    ///< u64 ticket, f64 value, f64 completion time
  kExpired = 14,      ///< u64 ticket, f64 expiry time
  kCancelled = 15,    ///< u64 ticket
  kCancelFailed = 16, ///< u64 ticket (unknown / already terminal)
  kQueryReply = 17,   ///< u64 ticket, u8 state (JobState), f64 remaining
  kStatsReply = 18,   ///< StatsBody
  kDraining = 19,     ///< (empty) — drain acknowledged / submit refused
  kError = 20,        ///< u8 code (ErrorCode); connection closes after
};

enum class RejectReason : std::uint8_t {
  kInvalid = 1,       ///< non-finite / non-positive workload or deadline
  kInadmissible = 2,  ///< fails Thm. 3(3): d − r < p / c_lo
  kDraining = 3,      ///< server is draining
};

enum class JobState : std::uint8_t {
  kUnknown = 0,
  kQueued = 1,    ///< admitted, not currently on the processor
  kRunning = 2,
  kCompleted = 3,
  kExpired = 4,
};

enum class ErrorCode : std::uint8_t {
  kMalformedFrame = 1,
  kNotARequest = 2,    ///< client sent a server→client message type
  kJournalFailed = 3,  ///< journal append failed; session is draining
};

/// Per-connection server counters carried by kStatsReply.
struct StatsBody {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t expired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t in_flight = 0;
  double virtual_now = 0.0;
  double admitted_value = 0.0;
  double completed_value = 0.0;
};

/// One decoded message. Field use depends on `type` (see MsgType); unused
/// fields are zero. Flat rather than a variant: every body is tiny and the
/// hot path (SUBMIT) stays allocation-free.
struct Message {
  MsgType type = MsgType::kError;
  std::uint64_t seq = 0;
  std::uint64_t ticket = 0;
  double a = 0.0;  ///< workload / release / value / remaining
  double b = 0.0;  ///< rel_deadline / completion or expiry time
  double c = 0.0;  ///< value (SUBMIT); the admitted value on an ACCEPTED
                   ///< inside the server (not encoded on the wire)
  std::uint8_t code = 0;  ///< RejectReason / JobState / ErrorCode
  StatsBody stats;        ///< kStatsReply only
};

/// Payload size bounds. kMaxPayload comfortably fits the largest body
/// (kStatsReply) while rejecting garbage lengths before buffering.
inline constexpr std::size_t kMinPayload = 9;    // type + seq
inline constexpr std::size_t kMaxPayload = 128;
inline constexpr std::size_t kFrameHeader = 4;   // the u32 length prefix
/// Upper bound on one encoded frame — the size for stack reply buffers.
inline constexpr std::size_t kMaxFrame = kFrameHeader + kMaxPayload;

/// Body size (after type+seq) for a message type; SIZE_MAX for unknown.
std::size_t body_size(MsgType type);

/// Serializes one message (length prefix + payload) into `out`, which must
/// hold at least kMaxFrame bytes. Returns the number of bytes written. This
/// is the zero-allocation encoder the serve hot path uses with a stack
/// buffer; the vector overloads below layer on top of it.
std::size_t encode_frame_into(std::uint8_t* out, const Message& m);

/// Serializes one message, appending the length prefix and payload to `out`.
void append_frame(std::vector<std::uint8_t>& out, const Message& m);

/// Convenience: one message as a fresh frame.
std::vector<std::uint8_t> encode_frame(const Message& m);

/// Decodes one payload (without the length prefix). Returns false and sets
/// `error` on malformed input: unknown type, or size != 9 + body_size.
bool decode_payload(const std::uint8_t* data, std::size_t size, Message& out,
                    std::string& error);

/// Incremental frame splitter over a received byte stream. Feed bytes as
/// they arrive; next() yields complete messages. Malformed input is sticky:
/// after kMalformed the decoder refuses further frames (the connection is
/// dead anyway).
///
/// The byte buffer is reserved once, at construction, for kCapacity bytes,
/// and feed() compacts the consumed prefix before it appends whenever the
/// bytes would not fit. A caller that drains next() after every feed leaves
/// at most one partial frame unconsumed, so a feed of up to kMaxRead bytes
/// then always fits and the buffer never grows; a larger single feed still
/// may. The extra kMaxRead of room lets consumed bytes pile up, so a
/// compaction moves at most one partial frame per kMaxRead bytes fed.
class FrameDecoder {
 public:
  enum class Status { kOk, kNeedMore, kMalformed };

  /// The largest recv the serving loop and the test client make.
  static constexpr std::size_t kMaxRead = 4096;
  static constexpr std::size_t kCapacity = 2 * kMaxRead + kMaxFrame;

  FrameDecoder() { buf_.reserve(kCapacity); }

  void feed(const std::uint8_t* data, std::size_t size);
  Status next(Message& out);
  const std::string& error() const { return error_; }

  /// Returns the decoder to its initial state while keeping the byte
  /// buffer's capacity — connection-slot reuse must not re-grow it.
  void reset() {
    buf_.clear();
    pos_ = 0;
    broken_ = false;
    error_.clear();
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;   // consumed prefix of buf_
  bool broken_ = false;
  std::string error_;
};

}  // namespace sjs::serve
