#include "serve/protocol.hpp"

#include <bit>
#include <cstring>

namespace sjs::serve {

namespace {

// The three field visitors visit_body() drives. Writer targets a caller-owned
// buffer of at least kMaxFrame bytes, so encoding never allocates; Reader
// runs only after decode_payload has checked the exact length.
struct Writer {
  std::uint8_t* out;
  void put(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      *out++ = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  void u8(std::uint8_t v) { put(v, 1); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v), 8); }
};

struct Reader {
  const std::uint8_t* in;
  void u8(std::uint8_t& v) { v = *in++; }
  void u64(std::uint64_t& v) {
    v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{*in++} << (8 * i);
  }
  void f64(double& v) {
    std::uint64_t bits = 0;
    u64(bits);
    v = std::bit_cast<double>(bits);
  }
};

struct Sizer {
  std::size_t n = 0;
  void u8(std::uint8_t) { n += 1; }
  void u64(std::uint64_t) { n += 8; }
  void f64(double) { n += 8; }
};

/// The body of every message type (after type and seq), in wire order: the
/// one place the layout is written down, for sizing, encoding and decoding
/// alike. Returns false for an unknown type.
template <typename Io, typename M>
bool visit_body(Io& io, M& m) {
  switch (m.type) {
    case MsgType::kSubmit:
      io.f64(m.a);
      io.f64(m.b);
      io.f64(m.c);
      return true;
    case MsgType::kCancel:
    case MsgType::kQuery:
    case MsgType::kCancelled:
    case MsgType::kCancelFailed:
      io.u64(m.ticket);
      return true;
    case MsgType::kStats:
    case MsgType::kDrain:
    case MsgType::kShed:
    case MsgType::kDraining:
      return true;
    case MsgType::kAccepted:
      io.u64(m.ticket);
      io.f64(m.a);
      return true;
    case MsgType::kRejected:
    case MsgType::kError:
      io.u8(m.code);
      return true;
    case MsgType::kCompleted:
      io.u64(m.ticket);
      io.f64(m.a);
      io.f64(m.b);
      return true;
    case MsgType::kExpired:
      io.u64(m.ticket);
      io.f64(m.b);
      return true;
    case MsgType::kQueryReply:
      io.u64(m.ticket);
      io.u8(m.code);
      io.f64(m.a);
      return true;
    case MsgType::kStatsReply:
      io.u64(m.stats.submitted);
      io.u64(m.stats.accepted);
      io.u64(m.stats.rejected);
      io.u64(m.stats.shed);
      io.u64(m.stats.completed);
      io.u64(m.stats.expired);
      io.u64(m.stats.cancelled);
      io.u64(m.stats.in_flight);
      io.f64(m.stats.virtual_now);
      io.f64(m.stats.admitted_value);
      io.f64(m.stats.completed_value);
      return true;
  }
  return false;
}

}  // namespace

std::size_t body_size(MsgType type) {
  Message m;
  m.type = type;
  Sizer sizer;
  return visit_body(sizer, m) ? sizer.n : static_cast<std::size_t>(-1);
}

std::size_t encode_frame_into(std::uint8_t* out, const Message& m) {
  Writer w{out};
  w.u32(static_cast<std::uint32_t>(kMinPayload + body_size(m.type)));
  w.u8(static_cast<std::uint8_t>(m.type));
  w.u64(m.seq);
  visit_body(w, m);
  return static_cast<std::size_t>(w.out - out);
}

void append_frame(std::vector<std::uint8_t>& out, const Message& m) {
  std::uint8_t buf[kMaxFrame];
  const std::size_t n = encode_frame_into(buf, m);
  // insert() grows to the send-buffer high-water; per-message steady state
  // reuses retained capacity.
  out.insert(out.end(), buf, buf + n);
}

std::vector<std::uint8_t> encode_frame(const Message& m) {
  std::vector<std::uint8_t> out;
  out.reserve(kMaxFrame);
  append_frame(out, m);
  return out;
}

bool decode_payload(const std::uint8_t* data, std::size_t size, Message& out,
                    std::string& error) {
  if (size < kMinPayload) {
    error = "payload shorter than type+seq";
    return false;
  }
  const auto type = static_cast<MsgType>(data[0]);
  const std::size_t body = body_size(type);
  if (body == static_cast<std::size_t>(-1)) {
    error = "unknown message type " + std::to_string(data[0]);
    return false;
  }
  if (size != kMinPayload + body) {
    error = "bad length for type " + std::to_string(data[0]) + ": " +
            std::to_string(size) + " != " +
            std::to_string(kMinPayload + body);
    return false;
  }
  out = Message{};
  out.type = type;
  Reader r{data + 1};
  r.u64(out.seq);
  visit_body(r, out);
  return true;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (broken_) return;
  if (buf_.size() + size > buf_.capacity()) {
    // Reclaim the consumed prefix in place (no allocation) so the new bytes
    // land in the room reserved at construction.
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

FrameDecoder::Status FrameDecoder::next(Message& out) {
  if (broken_) return Status::kMalformed;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeader) return Status::kNeedMore;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(buf_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
  }
  if (len < kMinPayload || len > kMaxPayload) {
    broken_ = true;
    error_ = "frame length " + std::to_string(len) + " outside [" +
             std::to_string(kMinPayload) + ", " + std::to_string(kMaxPayload) +
             "]";
    return Status::kMalformed;
  }
  if (avail < kFrameHeader + len) return Status::kNeedMore;
  if (!decode_payload(buf_.data() + pos_ + kFrameHeader, len, out, error_)) {
    broken_ = true;
    return Status::kMalformed;
  }
  pos_ += kFrameHeader + len;
  return Status::kOk;
}

}  // namespace sjs::serve
