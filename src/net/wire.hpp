// ip_netreal wire format: length-prefixed, versioned frames with explicit
// endianness.
//
// Everything a real socket carries between two Infopipe processes — data
// items, end-of-stream, and the node control protocol (Typespec queries,
// remote factories) — travels as one frame format, so a single reassembly
// loop on the receiving side serves both planes:
//
//   offset  size  field
//   0       2     magic 0x4950 ("IP"), big-endian
//   2       1     version (kVersion)
//   3       1     frame type (FrameType)
//   4       4     body length N, big-endian
//   8       N     body
//
// All multi-byte integers are big-endian (network byte order) — explicit,
// so a little-endian and a big-endian host interoperate and a hexdump of
// the stream reads left-to-right. Data bodies carry the Item's flow
// metadata followed by the raw payload bytes:
//
//   0   8  seq        4+16  4  kind (int32, two's complement)
//   8   8  timestamp  4+20  .. payload bytes (length = N - 20)
//
// Control bodies carry `request id (8) | op/status (1) | text (N - 9)`,
// where text is the same '\x1F'-joined string the in-process node protocol
// already uses (net/node.cpp) and Typespecs cross in marshalled form
// (net/typespec_wire).
//
// The FrameReader is the untrusted-input boundary: it reassembles frames
// from arbitrary read() chunk boundaries and throws RemoteError — never
// crashes, never over-reads — on bad magic, unknown version or type,
// oversized or short bodies. A byte stream that fails here poisons the
// reader permanently (framing is lost; the connection must be dropped).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/item.hpp"
#include "net/error.hpp"

namespace infopipe::net::wire {

inline constexpr std::uint16_t kMagic = 0x4950;  // "IP"
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 8;
inline constexpr std::size_t kDataMetaBytes = 20;
inline constexpr std::size_t kControlMetaBytes = 9;
/// Ceiling on one frame's body: a length prefix beyond this is treated as
/// an attack (or corruption), not a allocation request.
inline constexpr std::size_t kDefaultMaxFrameBytes = 16u << 20;

enum class FrameType : std::uint8_t {
  kData = 1,        ///< one information item
  kEos = 2,         ///< end of stream (empty body)
  kControlReq = 3,  ///< node control request (op in ControlOp)
  kControlRep = 4,  ///< node control reply (status: 0 ok, 1 error)
};

/// Operations of the socket control link (the §2.4 middleware protocol
/// between OS processes).
enum class ControlOp : std::uint8_t {
  kTypespecOut = 1,  ///< text: component '\x1F' port  -> marshalled Typespec
  kTypespecIn = 2,   ///< dual query (input requirement)
  kCreate = 3,       ///< text: type '\x1F' name '\x1F' args -> created name
  kStart = 4,        ///< start the remote flow (server-defined)
  /// Session layer (ip_session): open a flow against the shared plan.
  /// text: qos '\x1F' rate_hz '\x1F' payload_bytes -> "id '\x1F' shard", or
  /// an error reply carrying the admission-rejection reason.
  kSessionOpen = 5,
  kSessionClose = 6,  ///< text: session id (decimal) -> ""
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kData;
  Item item;                     ///< kData: metadata + payload; kEos: eos()
  std::uint64_t request_id = 0;  ///< control frames
  std::uint8_t op = 0;           ///< ControlOp (req) or status (rep)
  std::string text;              ///< control body text
};

// ---- encoding --------------------------------------------------------------
// Appending encoders so a burst of frames shares one output buffer (the
// socket transport's outbound queue) without intermediate vectors.

/// Appends a data frame carrying `x`'s payload bytes and flow metadata.
/// `x` must satisfy has_bytes() (netpipes marshal before the transport);
/// throws RemoteError otherwise.
void append_data_frame(std::vector<std::uint8_t>& out, const Item& x);

void append_eos_frame(std::vector<std::uint8_t>& out);

void append_control_request(std::vector<std::uint8_t>& out,
                            std::uint64_t request_id, ControlOp op,
                            std::string_view text);

void append_control_reply(std::vector<std::uint8_t>& out,
                          std::uint64_t request_id, bool ok,
                          std::string_view text);

// ---- decoding --------------------------------------------------------------

/// Incremental frame reassembly over arbitrary chunk boundaries. A socket
/// reads straight into the reader: prepare(n) gives room for n bytes after
/// the buffered ones, recv(2) writes there, and commit() keeps what arrived.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_(max_frame_bytes) {}

  /// Writable room for n more bytes. Consumed frames are dropped first: at
  /// most the partial tail moves, and the buffer only grows (it is never
  /// cleared or zero-filled per read).
  [[nodiscard]] std::span<std::uint8_t> prepare(std::size_t n);
  /// Appends the first n bytes written into the last prepare()'s room.
  void commit(std::size_t n) noexcept { end_ += n; }

  /// Appends raw bytes (prepare + copy + commit).
  void feed(const std::uint8_t* p, std::size_t n);

  /// Forgets buffered bytes and poison, keeping the buffer's capacity: one
  /// reader serves every datagram of a UDP socket.
  void reset() noexcept {
    pos_ = end_ = 0;
    poisoned_ = false;
  }

  /// Extracts the next complete frame, or nullopt if more bytes are needed.
  /// Throws RemoteError on malformed input; after a throw the reader is
  /// poisoned (framing lost) and every further call throws until reset().
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const noexcept { return end_ - pos_; }

 private:
  std::size_t max_;
  std::vector<std::uint8_t> buf_;  ///< [pos_, end_) buffered, then room
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  std::size_t end_ = 0;
  bool poisoned_ = false;
};

}  // namespace infopipe::net::wire
