#include "net/wire.hpp"

#include <cstring>

namespace infopipe::net::wire {

namespace {

// Big-endian packers/unpackers; explicit byte shuffles, no host-order
// assumptions, no type punning.
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((std::uint16_t{p[0]} << 8) |
                                    std::uint16_t{p[1]});
}
std::uint32_t get_u32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}
std::uint64_t get_u64(const std::uint8_t* p) {
  return (std::uint64_t{get_u32(p)} << 32) | std::uint64_t{get_u32(p + 4)};
}

void append_header(std::vector<std::uint8_t>& out, FrameType type,
                   std::size_t body_len) {
  put_u16(out, kMagic);
  out.push_back(kVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32(out, static_cast<std::uint32_t>(body_len));
}

}  // namespace

void append_data_frame(std::vector<std::uint8_t>& out, const Item& x) {
  const std::uint8_t* payload = x.bytes_data();
  const std::size_t n = x.bytes_size();
  if (payload == nullptr && n > 0) {
    throw RemoteError("data frame requires a byte payload (marshal first)");
  }
  append_header(out, FrameType::kData, kDataMetaBytes + n);
  put_u64(out, x.seq);
  put_u64(out, static_cast<std::uint64_t>(x.timestamp));
  put_u32(out, static_cast<std::uint32_t>(x.kind));
  if (n > 0) out.insert(out.end(), payload, payload + n);
}

void append_eos_frame(std::vector<std::uint8_t>& out) {
  append_header(out, FrameType::kEos, 0);
}

void append_control_request(std::vector<std::uint8_t>& out,
                            std::uint64_t request_id, ControlOp op,
                            std::string_view text) {
  append_header(out, FrameType::kControlReq, kControlMetaBytes + text.size());
  put_u64(out, request_id);
  out.push_back(static_cast<std::uint8_t>(op));
  out.insert(out.end(), text.begin(), text.end());
}

void append_control_reply(std::vector<std::uint8_t>& out,
                          std::uint64_t request_id, bool ok,
                          std::string_view text) {
  append_header(out, FrameType::kControlRep, kControlMetaBytes + text.size());
  put_u64(out, request_id);
  out.push_back(ok ? 0 : 1);
  out.insert(out.end(), text.begin(), text.end());
}

std::span<std::uint8_t> FrameReader::prepare(std::size_t n) {
  // Drop the consumed prefix before growing: the buffer stays bounded by
  // one partial frame plus one read chunk.
  if (pos_ == end_) {
    pos_ = end_ = 0;
  } else if (pos_ > 0 && buf_.size() - end_ < n) {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  if (buf_.size() - end_ < n) buf_.resize(end_ + n);
  return {buf_.data() + end_, n};
}

void FrameReader::feed(const std::uint8_t* p, std::size_t n) {
  if (n == 0) return;
  std::memcpy(prepare(n).data(), p, n);
  commit(n);
}

std::optional<Frame> FrameReader::next() {
  if (poisoned_) {
    throw RemoteError("frame reader poisoned by earlier malformed input");
  }
  if (buffered() < kHeaderBytes) return std::nullopt;
  const std::uint8_t* h = buf_.data() + pos_;
  if (get_u16(h) != kMagic) {
    poisoned_ = true;
    throw RemoteError("bad frame magic");
  }
  if (h[2] != kVersion) {
    poisoned_ = true;
    throw RemoteError("unsupported wire version " + std::to_string(h[2]));
  }
  const auto type = static_cast<FrameType>(h[3]);
  const std::size_t body = get_u32(h + 4);
  if (body > max_) {
    poisoned_ = true;
    throw RemoteError("oversized frame: " + std::to_string(body) + " > " +
                      std::to_string(max_) + " bytes");
  }
  if (buffered() < kHeaderBytes + body) return std::nullopt;
  const std::uint8_t* b = h + kHeaderBytes;

  Frame f;
  f.type = type;
  switch (type) {
    case FrameType::kData: {
      if (body < kDataMetaBytes) {
        poisoned_ = true;
        throw RemoteError("short data frame body");
      }
      const std::size_t payload = body - kDataMetaBytes;
      f.item = Item::of_bytes(b + kDataMetaBytes, payload);
      f.item.seq = get_u64(b);
      f.item.timestamp = static_cast<rt::Time>(get_u64(b + 8));
      f.item.kind = static_cast<std::int32_t>(get_u32(b + 16));
      break;
    }
    case FrameType::kEos:
      if (body != 0) {
        poisoned_ = true;
        throw RemoteError("EOS frame with a body");
      }
      f.item = Item::eos();
      break;
    case FrameType::kControlReq:
    case FrameType::kControlRep: {
      if (body < kControlMetaBytes) {
        poisoned_ = true;
        throw RemoteError("short control frame body");
      }
      f.request_id = get_u64(b);
      f.op = b[8];
      f.text.assign(reinterpret_cast<const char*>(b + kControlMetaBytes),
                    body - kControlMetaBytes);
      break;
    }
    default:
      poisoned_ = true;
      throw RemoteError("unknown frame type " +
                        std::to_string(static_cast<int>(h[3])));
  }
  pos_ += kHeaderBytes + body;
  return f;
}

}  // namespace infopipe::net::wire
