// IoBridge tests (§4: OS events mapped onto platform messages). These run
// against the REAL clock and real OS primitives (pipes, signals), with
// generous deadlines for CI noise.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rt/io_bridge.hpp"
#include "rt/runtime.hpp"
#include "shard/shard_group.hpp"

namespace infopipe::rt {
namespace {

TEST(IoBridge, FdDataArrivesAsMessages) {
  Runtime rt(std::make_unique<RealClock>());
  std::vector<std::string> got;
  bool eof = false;
  const ThreadId sink = rt.spawn(
      "net-reader", kPriorityData, [&](Runtime&, Message m) -> CodeResult {
        if (m.type == kMsgIoData) {
          const auto& bytes = *m.get<std::vector<std::uint8_t>>();
          got.emplace_back(bytes.begin(), bytes.end());
        } else if (m.type == kMsgIoEof) {
          eof = true;
        }
        return CodeResult::kContinue;
      });

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  IoBridge bridge(rt);
  bridge.watch_fd(fds[0], sink);

  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(::write(fds[1], "hello", 5), 5);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(::write(fds[1], "world", 5), 5);
    ::close(fds[1]);
  });

  // Drive the runtime until everything arrived (bounded by a deadline).
  const Time deadline = rt.now() + seconds(5);
  while ((got.size() < 2 || !eof) && rt.now() < deadline) {
    rt.run_until(rt.now() + milliseconds(50));
  }
  writer.join();
  ::close(fds[0]);

  ASSERT_GE(got.size(), 2u);
  EXPECT_EQ(got[0], "hello");
  EXPECT_EQ(got[1], "world");
  EXPECT_TRUE(eof);
}

TEST(IoBridge, SignalsArriveAsControlMessages) {
  Runtime rt(std::make_unique<RealClock>());
  int signals_seen = 0;
  int last_signo = 0;
  const ThreadId handler = rt.spawn(
      "signal-handler", kPriorityControl,
      [&](Runtime&, Message m) -> CodeResult {
        if (m.type == kMsgIoSignal) {
          ++signals_seen;
          last_signo = *m.get<int>();
        }
        return CodeResult::kContinue;
      });

  IoBridge bridge(rt);
  bridge.watch_signal(SIGUSR1, handler);

  std::thread kicker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::kill(::getpid(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::kill(::getpid(), SIGUSR1);
  });

  const Time deadline = rt.now() + seconds(5);
  while (signals_seen < 2 && rt.now() < deadline) {
    rt.run_until(rt.now() + milliseconds(50));
  }
  kicker.join();

  EXPECT_EQ(signals_seen, 2);
  EXPECT_EQ(last_signo, SIGUSR1);
}

TEST(IoBridge, PostExternalWakesARealClockWait) {
  Runtime rt(std::make_unique<RealClock>());
  Time handled_at = -1;
  const ThreadId sink = rt.spawn("sink", kPriorityData,
                                 [&](Runtime& r, Message) -> CodeResult {
                                   handled_at = r.now();
                                   return CodeResult::kTerminate;
                                 });
  std::thread poker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    rt.post_external(sink, Message{1, MsgClass::kData});
  });
  // A 2 s horizon: without the interruptible wait the message would not be
  // handled until the horizon; with it, it is handled within ~30 ms. Stop
  // the loop as soon as the thread terminates to keep the test fast.
  const Time t0 = rt.now();
  while (handled_at < 0 && rt.now() < t0 + seconds(2)) {
    rt.run_until(rt.now() + milliseconds(500));
    if (handled_at >= 0) break;
  }
  poker.join();
  ASSERT_GE(handled_at, 0);
  EXPECT_LT(handled_at - t0, milliseconds(400)) << "wait was not interrupted";
}

TEST(IoBridge, NeverIdleRuntimeStillSeesReadiness) {
  // A yield-looping thread keeps the runtime from ever parking; the
  // scheduler must still poll the set and deliver the readiness.
  Runtime rt(std::make_unique<RealClock>());
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  bool readable = false;
  const ThreadId sink = rt.spawn("sink", kPriorityData,
                                 [&](Runtime&, Message m) -> CodeResult {
                                   if (m.type == kMsgIoReadable) readable = true;
                                   return CodeResult::kTerminate;
                                 });
  std::atomic<Time> written_at{-1};
  Time seen_at = -1;
  const ThreadId spinner = rt.spawn(
      "spinner", kPriorityData, [&](Runtime& r, Message) -> CodeResult {
        const Time deadline = r.now() + seconds(5);
        while (!readable && r.now() < deadline) r.yield();
        seen_at = r.now();
        return CodeResult::kTerminate;
      });
  IoBridge bridge(rt);
  bridge.watch_readable_once(sv[0], sink);
  rt.send(spinner, Message{});
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    written_at.store(rt.now());
    ASSERT_EQ(::write(sv[1], "x", 1), 1);
  });
  rt.run();
  writer.join();
  EXPECT_TRUE(readable);
  EXPECT_LT(seen_at - written_at.load(), milliseconds(50))
      << "readiness waited for the runtime to go idle";
  bridge.cancel_fd(sv[0]);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(IoBridge, UnwatchStopsDelivery) {
  Runtime rt(std::make_unique<RealClock>());
  int chunks = 0;
  const ThreadId sink = rt.spawn("sink", kPriorityData,
                                 [&](Runtime&, Message m) -> CodeResult {
                                   if (m.type == kMsgIoData) ++chunks;
                                   return CodeResult::kContinue;
                                 });
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  IoBridge bridge(rt);
  bridge.watch_fd(fds[0], sink);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  const Time deadline = rt.now() + seconds(5);
  while (chunks < 1 && rt.now() < deadline) {
    rt.run_until(rt.now() + milliseconds(50));
  }
  EXPECT_EQ(chunks, 1);

  bridge.unwatch_fd(fds[0]);
  ASSERT_EQ(::write(fds[1], "y", 1), 1);
  rt.run_until(rt.now() + milliseconds(300));
  EXPECT_EQ(chunks, 1) << "delivery after unwatch";
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- multi-runtime lifecycle (the ip_shard prerequisites) -------------------

TEST(IoBridge, TwoBridgesOnTwoRuntimesCoexist) {
  Runtime rt_a(std::make_unique<RealClock>());
  Runtime rt_b(std::make_unique<RealClock>());
  int got_a = 0;
  int got_b = 0;
  const ThreadId sink_a = rt_a.spawn("a", kPriorityData,
                                     [&](Runtime&, Message m) -> CodeResult {
                                       if (m.type == kMsgIoData) ++got_a;
                                       return CodeResult::kContinue;
                                     });
  const ThreadId sink_b = rt_b.spawn("b", kPriorityData,
                                     [&](Runtime&, Message m) -> CodeResult {
                                       if (m.type == kMsgIoData) ++got_b;
                                       return CodeResult::kContinue;
                                     });
  int fds_a[2];
  int fds_b[2];
  ASSERT_EQ(::pipe(fds_a), 0);
  ASSERT_EQ(::pipe(fds_b), 0);
  IoBridge bridge_a(rt_a);
  IoBridge bridge_b(rt_b);
  bridge_a.watch_fd(fds_a[0], sink_a);
  bridge_b.watch_fd(fds_b[0], sink_b);
  ASSERT_EQ(::write(fds_a[1], "x", 1), 1);
  ASSERT_EQ(::write(fds_b[1], "y", 1), 1);
  const Time deadline = rt_a.now() + seconds(5);
  while ((got_a < 1 || got_b < 1) && rt_a.now() < deadline) {
    rt_a.run_until(rt_a.now() + milliseconds(20));
    rt_b.run_until(rt_b.now() + milliseconds(20));
  }
  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(got_b, 1);
  ::close(fds_a[0]);
  ::close(fds_a[1]);
  ::close(fds_b[0]);
  ::close(fds_b[1]);
}

TEST(IoBridge, SecondSignalClaimantIsRejectedAndOwnershipReleases) {
  Runtime rt_a(std::make_unique<RealClock>());
  const ThreadId sink_a = rt_a.spawn(
      "a", kPriorityControl,
      [](Runtime&, Message) -> CodeResult { return CodeResult::kContinue; });
  {
    IoBridge first(rt_a);
    first.watch_signal(SIGUSR2, sink_a);
    IoBridge second(rt_a);
    EXPECT_THROW(second.watch_signal(SIGUSR2, sink_a), RuntimeError);
  }
  // Both bridges destroyed: the self-pipe ownership must have been released
  // so a fresh bridge can claim signals again.
  Runtime rt_b(std::make_unique<RealClock>());
  const ThreadId sink_b = rt_b.spawn(
      "b", kPriorityControl,
      [](Runtime&, Message) -> CodeResult { return CodeResult::kContinue; });
  IoBridge third(rt_b);
  EXPECT_NO_THROW(third.watch_signal(SIGUSR2, sink_b));
}

TEST(IoBridge, TeardownUnderConcurrentPostsIsDeterministic) {
  // Hammer the bridge lifecycle: while external kernel threads are posting
  // into the runtime and writing into a watched pipe, destroy the bridge.
  // The destructor must leave the runtime's epoll set cleanly — no use-
  // after-free of the bridge's state, no lost runtime, no hang (the test
  // TIMEOUT catches that). Run several rounds to hit different
  // interleavings.
  for (int round = 0; round < 20; ++round) {
    Runtime rt(std::make_unique<RealClock>());
    std::atomic<int> seen{0};
    const ThreadId sink = rt.spawn("sink", kPriorityData,
                                   [&](Runtime&, Message m) -> CodeResult {
                                     if (m.type == kMsgIoData) {
                                       seen.fetch_add(1);
                                     }
                                     return CodeResult::kContinue;
                                   });
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // Nonblocking write end: the writer must never park in a full pipe once
    // the bridge stops draining it.
    ASSERT_EQ(::fcntl(fds[1], F_SETFL, O_NONBLOCK), 0);
    std::atomic<bool> stop{false};
    auto bridge = std::make_unique<IoBridge>(rt);
    bridge->watch_fd(fds[0], sink);
    std::thread writer([&] {
      while (!stop.load()) {
        (void)::write(fds[1], "z", 1);
        std::this_thread::yield();
      }
    });
    std::thread poster([&] {
      // Bounded: an unthrottled spin would queue millions of messages the
      // final drain must then dispatch (minutes under TSan).
      for (int n = 0; n < 2000 && !stop.load(); ++n) {
        rt.post_external(sink, Message{kMsgIoEof, MsgClass::kData});
        std::this_thread::yield();
      }
    });
    rt.run_until(rt.now() + milliseconds(5));
    // Bridge destructor races the writer and the poster.
    bridge.reset();
    stop.store(true);
    writer.join();
    poster.join();
    // The runtime survives the bridge: posts still work afterwards.
    rt.post_external(sink, Message{kMsgIoEof, MsgClass::kData});
    rt.run_until(rt.now() + milliseconds(5));
    ::close(fds[0]);
    ::close(fds[1]);
  }
}

TEST(IoBridge, BridgesAndShardsAddOnlyTheShardThreads) {
  // One park point per kernel thread: a launched ShardGroup(2) with one
  // bridge per shard runs two kernel threads, not four.
  const auto tasks = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };
  const std::size_t before = tasks();
  {
    shard::ShardGroup group(2);
    group.launch();
    IoBridge io0(group.runtime(0));
    IoBridge io1(group.runtime(1));
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
    group.run_on(0, [&] { io0.watch_readable_once(sv[0], kNoThread); });
    group.run_on(1, [&] { io1.watch_readable_once(sv[1], kNoThread); });
    EXPECT_EQ(tasks(), before + 2);
    group.run_on(0, [&] { io0.cancel_fd(sv[0]); });
    group.run_on(1, [&] { io1.cancel_fd(sv[1]); });
    group.stop();
    ::close(sv[0]);
    ::close(sv[1]);
  }
  EXPECT_EQ(tasks(), before);
}

}  // namespace
}  // namespace infopipe::rt
