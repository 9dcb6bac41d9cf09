// ip_netreal tests: the frame format under round-trip and hostile input,
// and real loopback-TCP/UDP transports driven through the IoBridge —
// delivery, retry+backoff, peer-death EOS synthesis, the socket control
// link (remote factories and Typespec queries between "processes"), and a
// full netpipe pipeline whose link is a real socket.
//
// All socket tests run both transport ends on ONE runtime (two agents, two
// real sockets over 127.0.0.1) — the kernel does not care that both fds
// live in the same process, and a single scheduler keeps the tests
// deterministic to drive. The true multi-process path is exercised by
// examples/distributed_player (fork+exec) in scripts/check.sh.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/infopipes.hpp"
#include "net/binder.hpp"
#include "net/netpipe.hpp"
#include "net/remote_node.hpp"
#include "net/socket_transport.hpp"
#include "net/wire.hpp"
#include "rt/io_bridge.hpp"

// Counting global allocator for the steady-state receive case: counts
// operator new calls on this OS thread while a test opens its window. The
// runtime's user-level threads (transport agents, the pipeline) and its
// readiness handling all run on the thread that drives it.
namespace {
thread_local bool t_count_allocs = false;
thread_local std::uint64_t t_allocs = 0;
}  // namespace

// GCC cannot see that the replaced new and delete pair malloc with free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (t_count_allocs) ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace infopipe::net {
namespace {

Item bytes_item(const std::string& s, std::uint64_t seq, std::int32_t kind) {
  Item x = Item::of_bytes(s.data(), s.size());
  x.seq = seq;
  x.kind = kind;
  return x;
}

std::string item_text(const Item& x) {
  return std::string(reinterpret_cast<const char*>(x.bytes_data()),
                     x.bytes_size());
}

// ---------- wire format -----------------------------------------------------------

TEST(Wire, RoundTripsFramesAcrossOneByteFeeds) {
  std::vector<std::uint8_t> buf;
  wire::append_data_frame(buf, bytes_item("hello frame", 7, -3));
  wire::append_control_request(buf, 42, wire::ControlOp::kCreate,
                               "camera\x1F" "cam0\x1F" "args");
  wire::append_control_reply(buf, 42, false, "boom");
  wire::append_eos_frame(buf);

  wire::FrameReader r;
  std::vector<wire::Frame> frames;
  for (std::uint8_t b : buf) {  // worst-case reassembly: 1-byte reads
    r.feed(&b, 1);
    while (auto f = r.next()) frames.push_back(std::move(*f));
  }
  ASSERT_EQ(frames.size(), 4u);

  EXPECT_EQ(frames[0].type, wire::FrameType::kData);
  EXPECT_EQ(frames[0].item.seq, 7u);
  EXPECT_EQ(frames[0].item.kind, -3);
  EXPECT_EQ(item_text(frames[0].item), "hello frame");

  EXPECT_EQ(frames[1].type, wire::FrameType::kControlReq);
  EXPECT_EQ(frames[1].request_id, 42u);
  EXPECT_EQ(frames[1].op, static_cast<std::uint8_t>(wire::ControlOp::kCreate));
  EXPECT_EQ(frames[1].text, "camera\x1F" "cam0\x1F" "args");

  EXPECT_EQ(frames[2].type, wire::FrameType::kControlRep);
  EXPECT_EQ(frames[2].op, 1u);  // status: error
  EXPECT_EQ(frames[2].text, "boom");

  EXPECT_EQ(frames[3].type, wire::FrameType::kEos);
  EXPECT_TRUE(frames[3].item.is_eos());
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(Wire, EmptyPayloadDataFrameRoundTrips) {
  std::vector<std::uint8_t> buf;
  Item x = Item::of_bytes(nullptr, 0);
  x.seq = 1;
  wire::append_data_frame(buf, x);
  wire::FrameReader r;
  r.feed(buf.data(), buf.size());
  auto f = r.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->item.bytes_size(), 0u);
  EXPECT_EQ(f->item.seq, 1u);
}

TEST(Wire, TruncatedFramesAreIncompleteNotErrors) {
  std::vector<std::uint8_t> buf;
  wire::append_data_frame(buf, bytes_item("payload", 1, 0));
  for (std::size_t n = 0; n < buf.size(); ++n) {
    wire::FrameReader r;
    r.feed(buf.data(), n);
    EXPECT_FALSE(r.next().has_value()) << "prefix of " << n << " bytes";
  }
}

TEST(Wire, HostileHeadersThrowRemoteErrorAndPoison) {
  const auto reject = [](std::vector<std::uint8_t> buf) {
    wire::FrameReader r;
    r.feed(buf.data(), buf.size());
    EXPECT_THROW((void)r.next(), RemoteError);
    // Poisoned: framing is lost for good, even for valid follow-up bytes.
    std::vector<std::uint8_t> good;
    wire::append_eos_frame(good);
    r.feed(good.data(), good.size());
    EXPECT_THROW((void)r.next(), RemoteError);
  };

  std::vector<std::uint8_t> bad_magic;
  wire::append_eos_frame(bad_magic);
  bad_magic[0] = 0x00;
  reject(bad_magic);

  std::vector<std::uint8_t> bad_version;
  wire::append_eos_frame(bad_version);
  bad_version[2] = 99;
  reject(bad_version);

  std::vector<std::uint8_t> bad_type;
  wire::append_eos_frame(bad_type);
  bad_type[3] = 200;
  reject(bad_type);

  std::vector<std::uint8_t> oversize;
  wire::append_eos_frame(oversize);
  oversize[4] = 0xFF;  // body length 0xFF000000: past any sane frame cap
  reject(oversize);

  std::vector<std::uint8_t> eos_with_body;
  wire::append_control_reply(eos_with_body, 1, true, "x");
  eos_with_body[3] = static_cast<std::uint8_t>(wire::FrameType::kEos);
  reject(eos_with_body);

  // Control frame too short for its own metadata.
  std::vector<std::uint8_t> short_control;
  wire::append_eos_frame(short_control);
  short_control[3] = static_cast<std::uint8_t>(wire::FrameType::kControlReq);
  reject(short_control);

  // Data frame shorter than the item metadata block.
  std::vector<std::uint8_t> short_data;
  wire::append_control_reply(short_data, 1, true, "");  // 9-byte body
  short_data[3] = static_cast<std::uint8_t>(wire::FrameType::kData);
  reject(short_data);
}

TEST(Wire, BitFlippedStreamNeverCrashesOrOverReads) {
  std::vector<std::uint8_t> buf;
  wire::append_data_frame(buf, bytes_item("fuzz me", 9, 2));
  wire::append_control_request(buf, 5, wire::ControlOp::kTypespecOut, "c\x1F"
                                                                      "0");
  wire::append_eos_frame(buf);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bad = buf;
      bad[i] ^= static_cast<std::uint8_t>(1u << bit);
      wire::FrameReader r;
      r.feed(bad.data(), bad.size());
      try {
        while (r.next().has_value()) {
        }
      } catch (const RemoteError&) {
        // the only acceptable exception
      }
    }
  }
}

// ---------- loopback sockets -------------------------------------------------------

/// Items arriving in kMsgNetDeliver bursts at a plain collector thread.
struct Collector {
  std::vector<Item> items;
  bool eos = false;
  bool eos_last = true;  ///< no item ever followed the EOS
  std::uint64_t deliveries = 0;
  rt::ThreadId tid = rt::kNoThread;

  void spawn(rt::Runtime& rtm) {
    tid = rtm.spawn("collect", rt::kPriorityData,
                    [this](rt::Runtime&, rt::Message m) {
                      if (m.type != kMsgNetDeliver) {
                        return rt::CodeResult::kContinue;
                      }
                      ++deliveries;
                      for (Item& x : m.get<Burst>()->items()) {
                        if (eos) eos_last = false;
                        if (x.is_eos()) {
                          eos = true;
                        } else {
                          items.push_back(std::move(x));
                        }
                      }
                      return rt::CodeResult::kContinue;
                    });
  }
};

/// Drives a RealClock runtime in small slices until `done` or the budget
/// runs out. Socket readiness is seen when the runtime parks, so a single
/// run() would stop at the first quiescent moment.
template <typename Pred>
bool drive_until(rt::Runtime& rtm, Pred done,
                 rt::Time budget = rt::seconds(10)) {
  const rt::Time deadline = rtm.now() + budget;
  while (!done()) {
    if (rtm.now() >= deadline) return false;
    rtm.run_until(rtm.now() + rt::milliseconds(2));
  }
  return true;
}

struct LoopbackRig {
  rt::Runtime rtm{std::make_unique<rt::RealClock>()};
  rt::IoBridge io{rtm};
  std::unique_ptr<SocketTransport> server;
  std::unique_ptr<SocketTransport> client;

  explicit LoopbackRig(bool udp = false) {
    SocketConfig scfg;
    scfg.port = 0;  // kernel-assigned
    scfg.udp = udp;
    server = SocketTransport::listen(rtm, io, scfg);
    SocketConfig ccfg;
    ccfg.port = server->local_port();
    ccfg.udp = udp;
    client = SocketTransport::connect(rtm, io, ccfg);
  }
};

TEST(SocketTransport, TcpLoopbackDeliversInOrderWithEos) {
  LoopbackRig rig;
  Collector got;
  got.spawn(rig.rtm);
  rig.server->attach_receiver(got.tid);

  for (int i = 0; i < 20; ++i) {
    rig.client->send(rig.rtm, bytes_item("item" + std::to_string(i),
                                         static_cast<std::uint64_t>(i), i));
  }
  rig.client->send(rig.rtm, Item::eos());

  ASSERT_TRUE(drive_until(rig.rtm, [&] { return got.eos; }));
  ASSERT_EQ(got.items.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(got.items[i].seq, static_cast<std::uint64_t>(i));
    EXPECT_EQ(got.items[i].kind, i);
    EXPECT_EQ(item_text(got.items[i]), "item" + std::to_string(i));
  }
  EXPECT_TRUE(rig.client->eos_flushed());
  EXPECT_EQ(rig.client->stats().frames_sent, 20u);
  EXPECT_EQ(rig.server->stats().frames_received, 21u);  // + EOS
  EXPECT_EQ(rig.server->stats().accepts, 1u);
  EXPECT_EQ(rig.server->stats().protocol_errors, 0u);
  EXPECT_EQ(rig.client->kind(), "tcp");
  EXPECT_EQ(rig.server->kind(), "tcp");
}

std::size_t count_entries(const char* dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator(dir)) ++n;
  return n;
}

TEST(SocketTransport, TeardownLeavesNoFdsOrThreads) {
  // Build and tear down a real-clock runtime with a bridge and a connected
  // TCP pair, 200 times: the epoll set, its eventfd and the sockets go with
  // their owners, and no kernel thread is left behind.
  const auto cycle = [] {
    LoopbackRig rig;
    return drive_until(rig.rtm, [&] {
      return rig.client->connected() && rig.server->connected();
    });
  };
  ASSERT_TRUE(cycle());  // warm-up: first-use statics
  const std::size_t fds = count_entries("/proc/self/fd");
  const std::size_t tasks = count_entries("/proc/self/task");
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(cycle()) << "cycle " << i;
  EXPECT_EQ(count_entries("/proc/self/fd"), fds);
  EXPECT_EQ(count_entries("/proc/self/task"), tasks);
}

TEST(SocketTransport, ItemsBeforeAttachAreBufferedNotLost) {
  LoopbackRig rig;
  rig.client->send(rig.rtm, bytes_item("early", 1, 0));
  rig.client->send(rig.rtm, Item::eos());
  // Let the frames arrive with nobody attached yet.
  ASSERT_TRUE(drive_until(
      rig.rtm, [&] { return rig.server->stats().frames_received >= 2; }));

  Collector got;
  got.spawn(rig.rtm);
  rig.server->attach_receiver(got.tid);
  ASSERT_TRUE(drive_until(rig.rtm, [&] { return got.eos; }));
  ASSERT_EQ(got.items.size(), 1u);
  EXPECT_EQ(item_text(got.items[0]), "early");
}

TEST(SocketTransport, ConnectRetriesWithBackoffUntilServerAppears) {
  rt::Runtime rtm{std::make_unique<rt::RealClock>()};
  rt::IoBridge io(rtm);

  // Learn a free port, then free it again: the client must now retry
  // against nothing until the listener is (re)created.
  std::uint16_t port = 0;
  {
    SocketConfig probe;
    probe.port = 0;
    port = SocketTransport::listen(rtm, io, probe)->local_port();
  }
  SocketConfig ccfg;
  ccfg.port = port;
  ccfg.retry_initial = rt::milliseconds(20);
  auto client = SocketTransport::connect(rtm, io, ccfg);

  rtm.run_until(rtm.now() + rt::milliseconds(80));  // a few failed attempts
  EXPECT_FALSE(client->connected());
  EXPECT_GE(client->stats().retries, 1u);

  SocketConfig scfg;
  scfg.port = port;
  auto server = SocketTransport::listen(rtm, io, scfg);
  Collector got;
  got.spawn(rtm);
  server->attach_receiver(got.tid);

  client->send(rtm, bytes_item("after retry", 1, 0));
  client->send(rtm, Item::eos());
  ASSERT_TRUE(drive_until(rtm, [&] { return got.eos; }));
  ASSERT_EQ(got.items.size(), 1u);
  EXPECT_EQ(item_text(got.items[0]), "after retry");
  // connected() is transient — after the EOS exchange both ends tear the
  // connection down — but the successful connect stays on the books.
  EXPECT_EQ(client->stats().connects, 1u);
}

TEST(SocketTransport, PeerDeathWithoutEosSynthesizesEos) {
  LoopbackRig rig;
  Collector got;
  got.spawn(rig.rtm);
  rig.server->attach_receiver(got.tid);

  rig.client->send(rig.rtm, bytes_item("one", 1, 0));
  rig.client->send(rig.rtm, bytes_item("two", 2, 0));
  ASSERT_TRUE(drive_until(rig.rtm, [&] { return got.items.size() == 2; }));
  EXPECT_FALSE(got.eos);

  rig.client.reset();  // the peer process "dies": fd closes, no EOS frame
  ASSERT_TRUE(drive_until(rig.rtm, [&] { return got.eos; }));
  EXPECT_EQ(got.items.size(), 2u) << "synthetic EOS must not invent data";
  EXPECT_EQ(rig.server->stats().peer_resets, 1u);
}

TEST(SocketTransport, MalformedStreamDropsConnectionNotProcess) {
  // A genuinely hostile client: a raw socket writing framing garbage. The
  // server must count a protocol error, drop that connection, deliver a
  // synthetic EOS (the stream will never end properly), and keep serving.
  rt::Runtime rtm{std::make_unique<rt::RealClock>()};
  rt::IoBridge io(rtm);
  SocketConfig scfg;
  scfg.port = 0;
  auto server = SocketTransport::listen(rtm, io, scfg);
  Collector got;
  got.spawn(rtm);
  server->attach_receiver(got.tid);

  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(server->local_port());
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&a), sizeof a), 0);
  const std::vector<std::uint8_t> junk(64, 0xAB);  // wrong magic everywhere
  ASSERT_EQ(::write(raw, junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));

  ASSERT_TRUE(drive_until(
      rtm, [&] { return server->stats().protocol_errors >= 1; }));
  ASSERT_TRUE(drive_until(rtm, [&] { return got.eos; }));
  EXPECT_TRUE(got.items.size() == 0u) << "garbage must not become items";
  ::close(raw);

  // The listener survives: a well-behaved client connects and delivers.
  SocketConfig ccfg;
  ccfg.port = server->local_port();
  auto client = SocketTransport::connect(rtm, io, ccfg);
  client->send(rtm, bytes_item("after the attack", 1, 0));
  ASSERT_TRUE(drive_until(rtm, [&] { return got.items.size() == 1; }));
  EXPECT_EQ(item_text(got.items[0]), "after the attack");
}

TEST(SocketTransport, CorruptDatagramDoesNotPoisonTheNext) {
  // Every datagram is framed on its own: garbage costs one protocol error
  // and that datagram, never the socket or the datagrams after it.
  LoopbackRig rig(/*udp=*/true);
  Collector got;
  got.spawn(rig.rtm);
  rig.server->attach_receiver(got.tid);

  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(rig.server->local_port());
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const auto send_dgram = [&](const std::vector<std::uint8_t>& b) {
    return ::sendto(raw, b.data(), b.size(), 0,
                    reinterpret_cast<const sockaddr*>(&a), sizeof a);
  };
  const std::vector<std::uint8_t> junk(64, 0xAB);  // wrong magic
  std::vector<std::uint8_t> valid;
  wire::append_data_frame(valid, bytes_item("valid", 7, 3));
  ASSERT_EQ(send_dgram(junk), static_cast<ssize_t>(junk.size()));
  ASSERT_EQ(send_dgram(valid), static_cast<ssize_t>(valid.size()));

  ASSERT_TRUE(drive_until(rig.rtm, [&] { return got.items.size() == 1; },
                          rt::seconds(2)));
  EXPECT_EQ(item_text(got.items[0]), "valid");
  EXPECT_EQ(got.items[0].seq, 7u);
  EXPECT_EQ(got.items[0].kind, 3);
  EXPECT_EQ(rig.server->stats().protocol_errors, 1u);
  ::close(raw);
}

TEST(SocketTransport, UdpLoopbackBestEffortDelivery) {
  LoopbackRig rig(/*udp=*/true);
  Collector got;
  got.spawn(rig.rtm);
  rig.server->attach_receiver(got.tid);
  EXPECT_EQ(rig.client->kind(), "udp");

  for (int i = 0; i < 50; ++i) {
    rig.client->send(rig.rtm, bytes_item("dgram" + std::to_string(i),
                                         static_cast<std::uint64_t>(i), 0));
  }
  rig.client->send(rig.rtm, Item::eos());

  // Loopback UDP is reliable in practice, but the contract is best-effort:
  // accept any subset as long as what arrives is intact and ordered.
  drive_until(rig.rtm, [&] { return got.eos; }, rt::seconds(2));
  EXPECT_LE(got.items.size(), 50u);
  EXPECT_GE(got.items.size(), 1u);
  for (std::size_t k = 0; k < got.items.size(); ++k) {
    const auto seq = got.items[k].seq;
    EXPECT_EQ(item_text(got.items[k]), "dgram" + std::to_string(seq));
    if (k > 0) {
      EXPECT_GT(seq, got.items[k - 1].seq);
    }
  }
}

// ---------- write coalescing ------------------------------------------------------

/// Frame `i` of a burst: `bytes` bytes of a pattern that depends on `i`.
Item burst_item(std::uint64_t i, std::size_t bytes) {
  std::vector<std::uint8_t> b(bytes);
  for (std::size_t j = 0; j < bytes; ++j) {
    b[j] = static_cast<std::uint8_t>(i * 131 + j);
  }
  Item x = Item::of_bytes(b.data(), b.size());
  x.seq = i;
  x.kind = 7;
  return x;
}

/// Sends `frames` burst items and then EOS, all in ONE step of a fresh ULT
/// (the way a pump's section pushes a burst); returns the bytes the
/// encoded stream takes on the wire.
std::size_t send_burst(rt::Runtime& rtm, SocketTransport& tx, int frames,
                       std::size_t bytes) {
  std::vector<std::uint8_t> wire_bytes;
  for (int i = 0; i < frames; ++i) {
    wire::append_data_frame(wire_bytes,
                            burst_item(static_cast<std::uint64_t>(i), bytes));
  }
  wire::append_eos_frame(wire_bytes);
  const rt::ThreadId t = rtm.spawn(
      "burst", rt::kPriorityData, [&tx, frames, bytes](rt::Runtime& r,
                                                       rt::Message) {
        for (int i = 0; i < frames; ++i) {
          tx.send(r, burst_item(static_cast<std::uint64_t>(i), bytes));
        }
        tx.send(r, Item::eos());
        return rt::CodeResult::kTerminate;
      });
  rtm.send(t, rt::Message{0, rt::MsgClass::kData});
  return wire_bytes.size();
}

/// Expects `items` to be exactly the burst's frames, in order and intact.
void expect_burst(const std::vector<Item>& items, int frames,
                  std::size_t bytes) {
  ASSERT_EQ(items.size(), static_cast<std::size_t>(frames));
  for (int i = 0; i < frames; ++i) {
    const Item want = burst_item(static_cast<std::uint64_t>(i), bytes);
    const Item& x = items[static_cast<std::size_t>(i)];
    ASSERT_EQ(x.seq, want.seq);
    ASSERT_EQ(x.kind, want.kind);
    ASSERT_EQ(x.bytes_size(), bytes);
    ASSERT_EQ(std::memcmp(x.bytes_data(), want.bytes_data(), bytes), 0)
        << "frame " << i;
  }
}

TEST(SocketTransport, BurstIsOneWrite) {
  constexpr int kFrames = 32;
  constexpr std::size_t kBytes = 1024;
  LoopbackRig rig;
  Collector got;
  got.spawn(rig.rtm);
  rig.server->attach_receiver(got.tid);
  ASSERT_TRUE(drive_until(rig.rtm, [&] { return rig.client->connected(); }));
  ASSERT_EQ(rig.client->stats().writes, 0u);

  const std::size_t wire_size =
      send_burst(rig.rtm, *rig.client, kFrames, kBytes);
  ASSERT_TRUE(drive_until(rig.rtm, [&] { return got.eos; }));
  expect_burst(got.items, kFrames, kBytes);
  EXPECT_EQ(rig.client->stats().writes, 1u)
      << "the whole burst (and its EOS) must leave in one send()";
  EXPECT_EQ(rig.client->stats().bytes_sent, wire_size);
  EXPECT_EQ(rig.client->stats().frames_sent,
            static_cast<std::uint64_t>(kFrames));
  EXPECT_TRUE(rig.client->eos_flushed());
}

TEST(SocketTransport, ReadIsOneDelivery) {
  // The burst of BurstIsOneWrite seen from the receiving end: every frame
  // one recv(2) parses reaches the receiver in one kMsgNetDeliver burst.
  constexpr int kFrames = 32;
  constexpr std::size_t kBytes = 1024;
  LoopbackRig rig;
  Collector got;
  got.spawn(rig.rtm);
  rig.server->attach_receiver(got.tid);
  ASSERT_TRUE(drive_until(rig.rtm, [&] { return rig.client->connected(); }));

  (void)send_burst(rig.rtm, *rig.client, kFrames, kBytes);
  ASSERT_TRUE(drive_until(rig.rtm, [&] { return got.eos; }));
  expect_burst(got.items, kFrames, kBytes);
  EXPECT_TRUE(got.eos_last) << "EOS must close the last burst";
  EXPECT_EQ(rig.client->stats().writes, 1u);
  EXPECT_LT(got.deliveries, static_cast<std::uint64_t>(kFrames + 1))
      << "one delivery per frame";
  EXPECT_GE(rig.server->stats().reads, 1u);
  EXPECT_LE(got.deliveries, rig.server->stats().reads)
      << "more deliveries than reads that returned bytes";
}

/// Opens the allocation-counting window once `warm` items have arrived and
/// closes it `measured` items later, so start-up allocations (thread
/// entries, pool slabs, buffers growing to their working size) stay out.
class AllocWindowSink : public PassiveSink {
 public:
  AllocWindowSink(std::uint64_t warm, std::uint64_t measured)
      : PassiveSink("sink"), warm_(warm), end_(warm + measured) {}
  ~AllocWindowSink() override { t_count_allocs = false; }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double allocs_per_item() const {
    return static_cast<double>(allocs_) / static_cast<double>(end_ - warm_);
  }

 protected:
  void consume(Item) override {
    if (++n_ == warm_) {
      t_allocs = 0;
      t_count_allocs = true;
    } else if (n_ == end_) {
      t_count_allocs = false;
      allocs_ = t_allocs;
    }
  }

 private:
  std::uint64_t warm_;
  std::uint64_t end_;
  std::uint64_t n_ = 0;
  std::uint64_t allocs_ = 0;
};

Item copy_bytes(std::span<const std::uint8_t> b) {
  return Item::of_bytes(b.data(), b.size());
}

TEST(SocketTransport, SteadyStateReceiveAllocatesAlmostNothing) {
  // Once warm, a read's frames go from the socket into the reader's
  // buffer, into pooled payload blocks, and to the receiver as one burst
  // whose storage is reused; what each read still costs (mailbox nodes,
  // the one-shot readiness re-arm) spreads over its frames.
  constexpr std::size_t kBytes = 1024;
  constexpr std::uint64_t kPerSend = 48;
  constexpr std::uint64_t kWarm = 2000;
  constexpr std::uint64_t kMeasured = 8000;
  static const std::array<std::uint8_t, kBytes> kPayload{};
  LoopbackRig rig;
  NetReceiver rx("rx", *rig.server, "here");
  UnmarshalFilter unmarshal("unmarshal", copy_bytes, "bytes");
  AllocWindowSink sink(kWarm, kMeasured);
  Pipeline pipe;
  pipe.connect(rx, 0, unmarshal, 0);
  pipe.connect(unmarshal, 0, sink, 0);
  Realization real(rig.rtm, pipe);
  real.start();
  ASSERT_TRUE(drive_until(rig.rtm, [&] { return rig.client->connected(); }));

  // Each kick sends kPerSend frames from one ULT step: one send(2).
  std::uint64_t sent = 0;
  const rt::ThreadId sender = rig.rtm.spawn(
      "sender", rt::kPriorityData, [&](rt::Runtime& r, rt::Message) {
        for (std::uint64_t i = 0; i < kPerSend; ++i) {
          Item x = Item::of_bytes(kPayload.data(), kBytes);
          x.seq = sent++;
          rig.client->send(r, std::move(x));
        }
        return rt::CodeResult::kContinue;
      });
  ASSERT_TRUE(drive_until(rig.rtm, [&] {
    if (sink.count() == sent) {  // the last kick has arrived in full
      rig.rtm.send(sender, rt::Message{0, rt::MsgClass::kData});
    }
    return sink.count() >= kWarm + kMeasured;
  }));
  EXPECT_LT(sink.allocs_per_item(), 0.1);
  real.stop();
}

TEST(SocketTransport, BackpressuredBurstKeepsOrder) {
  // About 24 MB from one ULT step while the receiver, on the same runtime,
  // cannot drain: the socket buffers fill and writes hit EAGAIN.
  constexpr int kFrames = 2000;
  constexpr std::size_t kBytes = 12 * 1024;
  LoopbackRig rig;
  Collector got;
  got.spawn(rig.rtm);
  rig.server->attach_receiver(got.tid);
  ASSERT_TRUE(drive_until(rig.rtm, [&] { return rig.client->connected(); }));

  const std::size_t wire_size =
      send_burst(rig.rtm, *rig.client, kFrames, kBytes);
  ASSERT_TRUE(drive_until(rig.rtm, [&] { return got.eos; }));
  EXPECT_GT(rig.client->stats().partial_writes, 0u);
  expect_burst(got.items, kFrames, kBytes);
  EXPECT_EQ(rig.client->stats().bytes_sent, wire_size);
  EXPECT_TRUE(rig.client->eos_flushed());
}

// ---------- netpipes over a real socket -------------------------------------------

Item encode_string(const Item& x) {
  const auto* s = x.payload<std::string>();
  return s != nullptr ? Item::of_bytes(s->data(), s->size())
                      : Item::of_bytes(nullptr, 0);
}

Item decode_string(std::span<const std::uint8_t> b) {
  return Item::of<std::string>(std::string(b.begin(), b.end()));
}

TEST(SocketTransport, NetpipePipelineRunsUnchangedOverTcp) {
  // The tentpole claim: NetSender/NetReceiver + marshalling filters work
  // over a real socket exactly as over SimLink — only the Transport differs.
  LoopbackRig rig;

  std::vector<Item> payloads;
  for (int i = 0; i < 10; ++i) {
    Item x = Item::of<std::string>("msg" + std::to_string(i));
    x.seq = static_cast<std::uint64_t>(i);
    payloads.push_back(std::move(x));
  }
  VectorSource src("src", payloads);
  ClockedPump pump("pump", 200.0);
  MarshalFilter marshal("marshal", encode_string, "text");
  NetSender tx("tx", *rig.client, "producer-node");
  NetReceiver rx("rx", *rig.server, "consumer-node");
  UnmarshalFilter unmarshal("unmarshal", decode_string, "text");
  CollectorSink sink("sink");

  Pipeline pipe;
  pipe.connect(src, 0, pump, 0);
  pipe.connect(pump, 0, marshal, 0);
  pipe.connect(marshal, 0, tx, 0);
  pipe.connect(rx, 0, unmarshal, 0);
  pipe.connect(unmarshal, 0, sink, 0);

  // The receiver's offer now tells type checking HOW the flow travels.
  const Typespec offer = rx.output_offer(0);
  EXPECT_EQ(offer.get<std::string>(props::kTransport), "tcp");
  EXPECT_FALSE(offer.get<std::string>(props::kEndpoint).value_or("").empty());

  Realization real(rig.rtm, pipe);
  real.start();
  ASSERT_TRUE(drive_until(rig.rtm, [&] { return sink.eos_seen(); }));
  ASSERT_EQ(sink.count(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*sink.arrivals()[i].item.payload<std::string>(),
              "msg" + std::to_string(i));
  }
}

// ---------- the socket control link ------------------------------------------------

TEST(RemoteNode, CreateAndQueryAcrossTheControlLink) {
  LoopbackRig rig;
  Node node(rig.rtm, "video-server");
  node.register_factory(
      "counting-source",
      [](const std::string& name, const std::string& args) {
        return std::make_unique<CountingSource>(
            name, static_cast<std::uint64_t>(std::stoul(args)));
      });
  NodeServer server(rig.rtm, node, *rig.server);
  RemoteNode remote(rig.rtm, *rig.client, "video-server",
                    rt::seconds(5));

  EXPECT_EQ(remote.create("counting-source", "cam0", "25"), "cam0");
  ASSERT_NE(node.lookup("cam0"), nullptr);

  const Typespec offer = remote.output_offer("cam0", 0);
  EXPECT_TRUE(offer.empty());  // CountingSource offers no properties

  EXPECT_THROW((void)remote.create("no-such-type", "x", ""), RemoteError);
  EXPECT_THROW((void)remote.output_offer("ghost", 0), RemoteError);

  // start_flow reaches the server's handler and returns its reply.
  server.on_start([](const std::string& args) { return "started:" + args; });
  EXPECT_EQ(remote.start_flow("go"), "started:go");
  EXPECT_TRUE(server.start_requested());
}

TEST(RemoteNode, BinderNegotiatesAcrossTheControlLink) {
  LoopbackRig rig;
  Node node(rig.rtm, "far");
  class OfferingSource : public CountingSource {
   public:
    OfferingSource() : CountingSource("cam", 10) {}
    Typespec output_offer(int) const override {
      return Typespec{{props::kItemType, std::string("video")},
                      {props::kFrameRate, Range{5, 30}}};
    }
  };
  node.adopt(std::make_unique<OfferingSource>());
  NodeServer server(rig.rtm, node, *rig.server);
  RemoteNode producer(rig.rtm, *rig.client, "far", rt::seconds(5));

  Node local(rig.rtm, "near");
  class NeedySink : public CollectorSink {
   public:
    NeedySink() : CollectorSink("screen") {}
    Typespec input_requirement(int) const override {
      return Typespec{{props::kItemType, std::string("video")},
                      {props::kFrameRate, Range{10, 60}}};
    }
  };
  local.adopt(std::make_unique<NeedySink>());
  LocalNodeEndpoint consumer(rig.rtm, local);

  EndpointBindingRequest req;
  req.producer_node = &producer;
  req.producer = "cam";
  req.consumer_node = &consumer;
  req.consumer = "screen";
  req.link = rig.client.get();
  const BindingResult out = negotiate(rig.rtm, req);
  ASSERT_TRUE(out.ok) << out.failure;
  EXPECT_EQ(out.agreed.get<Range>(props::kFrameRate), (Range{10, 30}));
}

}  // namespace
}  // namespace infopipe::net
