// Unit tests for the message-based user-level thread package (ip_rt).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "rt/runtime.hpp"

namespace infopipe::rt {
namespace {

constexpr int kMsgPing = 1;
constexpr int kMsgPong = 2;
constexpr int kMsgStop = 3;

TEST(Runtime, SpawnedThreadRunsOnFirstMessage) {
  Runtime rt;
  int invocations = 0;
  ThreadId t = rt.spawn("worker", kPriorityData,
                        [&](Runtime&, Message) -> CodeResult {
                          ++invocations;
                          return CodeResult::kContinue;
                        });
  rt.run();
  EXPECT_EQ(invocations, 0) << "code function must not run before a message";

  rt.send(t, Message{kMsgPing, MsgClass::kData});
  rt.run();
  EXPECT_EQ(invocations, 1);

  rt.send(t, Message{kMsgPing, MsgClass::kData});
  rt.send(t, Message{kMsgPing, MsgClass::kData});
  rt.run();
  EXPECT_EQ(invocations, 3) << "one invocation per message";
}

TEST(Runtime, TerminateDestroysThread) {
  Runtime rt;
  ThreadId t = rt.spawn("once", kPriorityData, [](Runtime&, Message) {
    return CodeResult::kTerminate;
  });
  EXPECT_TRUE(rt.alive(t));
  rt.send(t, Message{kMsgPing, MsgClass::kData});
  rt.run();
  EXPECT_FALSE(rt.alive(t));
  // Sends to a dead thread are dropped, not fatal.
  rt.send(t, Message{kMsgPing, MsgClass::kData});
  rt.run();
  EXPECT_EQ(rt.stats().messages_dropped, 1u);
}

TEST(Runtime, PingPongBetweenThreads) {
  Runtime rt;
  std::vector<std::string> trace;
  ThreadId ponger = rt.spawn("ponger", kPriorityData,
                             [&](Runtime& r, Message m) -> CodeResult {
                               trace.push_back("pong");
                               r.reply(m, Message{kMsgPong, MsgClass::kReply});
                               return CodeResult::kContinue;
                             });
  ThreadId pinger = rt.spawn("pinger", kPriorityData,
                             [&](Runtime& r, Message) -> CodeResult {
                               for (int i = 0; i < 3; ++i) {
                                 trace.push_back("ping");
                                 Message rep = r.call(
                                     ponger, Message{kMsgPing, MsgClass::kData});
                                 EXPECT_EQ(rep.type, kMsgPong);
                               }
                               return CodeResult::kTerminate;
                             });
  rt.send(pinger, Message{kMsgPing, MsgClass::kData});
  rt.run();
  ASSERT_EQ(trace.size(), 6u);
  EXPECT_EQ(trace, (std::vector<std::string>{"ping", "pong", "ping", "pong",
                                             "ping", "pong"}));
}

TEST(Runtime, NestedReceiveSuspendsMidMessage) {
  Runtime rt;
  std::vector<int> seen;
  ThreadId t = rt.spawn("suspender", kPriorityData,
                        [&](Runtime& r, Message first) -> CodeResult {
                          seen.push_back(first.type);
                          // Suspend inside the handler waiting for two more.
                          Message a = r.receive();
                          Message b = r.receive();
                          seen.push_back(a.type);
                          seen.push_back(b.type);
                          return CodeResult::kTerminate;
                        });
  rt.send(t, Message{10, MsgClass::kData});
  rt.run();
  EXPECT_EQ(seen, (std::vector<int>{10}));
  rt.send(t, Message{11, MsgClass::kData});
  rt.run();
  rt.send(t, Message{12, MsgClass::kData});
  rt.run();
  EXPECT_EQ(seen, (std::vector<int>{10, 11, 12}));
  EXPECT_FALSE(rt.alive(t));
}

TEST(Runtime, ControlMessagesOvertakeQueuedData) {
  Runtime rt;
  std::vector<int> order;
  ThreadId t = rt.spawn("sink", kPriorityData,
                        [&](Runtime&, Message m) -> CodeResult {
                          order.push_back(m.type);
                          return CodeResult::kContinue;
                        });
  rt.send(t, Message{1, MsgClass::kData});
  rt.send(t, Message{2, MsgClass::kData});
  rt.send(t, Message{99, MsgClass::kControl});
  rt.run();
  // The control message is dispatched first even though it arrived last.
  EXPECT_EQ(order, (std::vector<int>{99, 1, 2}));
}

TEST(Runtime, ReceiveMatchingLeavesOthersQueued) {
  Runtime rt;
  std::vector<int> order;
  ThreadId t = rt.spawn("selective", kPriorityData,
                        [&](Runtime& r, Message m) -> CodeResult {
                          order.push_back(m.type);
                          Message wanted = r.receive_matching(
                              [](const Message& x) { return x.type == 42; });
                          order.push_back(wanted.type);
                          // The skipped message is still queued and triggers
                          // the next invocation.
                          return CodeResult::kContinue;
                        });
  rt.send(t, Message{1, MsgClass::kData});
  rt.send(t, Message{7, MsgClass::kData});
  rt.send(t, Message{42, MsgClass::kData});
  rt.run();
  EXPECT_EQ(order, (std::vector<int>{1, 42, 7}));
}

TEST(Runtime, PriorityOrdersReadyThreads) {
  Runtime rt;
  std::vector<std::string> order;
  auto mk = [&](const std::string& name, Priority p) {
    return rt.spawn(name, p, [&order, name](Runtime&, Message) {
      order.push_back(name);
      return CodeResult::kTerminate;
    });
  };
  ThreadId lo = mk("lo", kPriorityIdle);
  ThreadId hi = mk("hi", kPriorityControl);
  ThreadId mid = mk("mid", kPriorityData);
  rt.send(lo, Message{});
  rt.send(hi, Message{});
  rt.send(mid, Message{});
  rt.run();
  EXPECT_EQ(order, (std::vector<std::string>{"hi", "mid", "lo"}));
}

TEST(Runtime, MessageConstraintRaisesEffectivePriority) {
  Runtime rt;
  std::vector<std::string> order;
  auto body = [&](const std::string& name) {
    return [&order, name](Runtime&, Message) {
      order.push_back(name);
      return CodeResult::kTerminate;
    };
  };
  ThreadId plain = rt.spawn("plain", kPriorityData, body("plain"));
  ThreadId boosted = rt.spawn("boosted", kPriorityIdle, body("boosted"));
  rt.send(plain, Message{});
  Message m{};
  m.constraint = Constraint{kPriorityTimer, kTimeNever};
  rt.send(boosted, std::move(m));
  rt.run();
  // boosted has the lower static priority but its first queued message
  // carries a high-priority constraint (§4 semantics).
  EXPECT_EQ(order, (std::vector<std::string>{"boosted", "plain"}));
}

TEST(Runtime, ConstraintInheritedBySentMessages) {
  Runtime rt;
  Priority observed = -1;
  ThreadId sink = rt.spawn("sink", kPriorityIdle,
                           [&](Runtime&, Message m) -> CodeResult {
                             observed = m.constraint ? m.constraint->priority
                                                     : Priority{-1};
                             return CodeResult::kTerminate;
                           });
  ThreadId relay = rt.spawn("relay", kPriorityIdle,
                            [&](Runtime& r, Message) -> CodeResult {
                              // No explicit constraint: must inherit ours.
                              r.send(sink, Message{kMsgPing, MsgClass::kData});
                              return CodeResult::kTerminate;
                            });
  Message m{};
  m.constraint = Constraint{kPriorityTimer, kTimeNever};
  rt.send(relay, std::move(m));
  rt.run();
  EXPECT_EQ(observed, kPriorityTimer);
}

TEST(Runtime, PreemptionOnHigherPrioritySend) {
  Runtime rt;
  std::vector<std::string> order;
  ThreadId hi = rt.spawn("hi", kPriorityControl, [&](Runtime&, Message) {
    order.push_back("hi");
    return CodeResult::kTerminate;
  });
  ThreadId lo = rt.spawn("lo", kPriorityData, [&](Runtime& r, Message) {
    order.push_back("lo-before");
    r.send(hi, Message{});  // wakes a higher-priority thread: preemption point
    order.push_back("lo-after");
    return CodeResult::kTerminate;
  });
  rt.send(lo, Message{});
  rt.run();
  EXPECT_EQ(order, (std::vector<std::string>{"lo-before", "hi", "lo-after"}));
  EXPECT_GE(rt.stats().preemptions, 1u);
}

TEST(Runtime, PriorityInheritanceAvoidsInversion) {
  Runtime rt;
  std::vector<std::string> order;
  // "server" is low priority; "caller" is high priority and calls it
  // synchronously; "middle" would otherwise starve the server.
  ThreadId server = rt.spawn("server", kPriorityIdle,
                             [&](Runtime& r, Message m) -> CodeResult {
                               order.push_back("server");
                               r.reply(m, Message{kMsgPong, MsgClass::kReply});
                               return CodeResult::kContinue;
                             });
  ThreadId middle = rt.spawn("middle", kPriorityData, [&](Runtime&, Message) {
    order.push_back("middle");
    return CodeResult::kTerminate;
  });
  ThreadId caller = rt.spawn("caller", kPriorityControl,
                             [&](Runtime& r, Message) -> CodeResult {
                               order.push_back("caller");
                               (void)r.call(server,
                                            Message{kMsgPing, MsgClass::kData});
                               order.push_back("caller-done");
                               return CodeResult::kTerminate;
                             });
  rt.send(caller, Message{});
  rt.send(middle, Message{});
  rt.run();
  // With inheritance the server runs before middle despite its low static
  // priority, because the blocked high-priority caller donates.
  EXPECT_EQ(order, (std::vector<std::string>{"caller", "server", "caller-done",
                                             "middle"}));
}

TEST(Runtime, SleepAndVirtualTime) {
  Runtime rt;
  std::vector<Time> wakes;
  ThreadId t = rt.spawn("sleeper", kPriorityData,
                        [&](Runtime& r, Message) -> CodeResult {
                          for (int i = 1; i <= 3; ++i) {
                            r.sleep_until(milliseconds(10) * i);
                            wakes.push_back(r.now());
                          }
                          return CodeResult::kTerminate;
                        });
  rt.send(t, Message{});
  rt.run();
  EXPECT_EQ(wakes, (std::vector<Time>{milliseconds(10), milliseconds(20),
                                      milliseconds(30)}));
  EXPECT_EQ(rt.now(), milliseconds(30));
}

TEST(Runtime, SendAtDeliversAtTime) {
  Runtime rt;
  std::vector<std::pair<int, Time>> arrivals;
  ThreadId t = rt.spawn("timed", kPriorityData,
                        [&](Runtime& r, Message m) -> CodeResult {
                          arrivals.emplace_back(m.type, r.now());
                          return CodeResult::kContinue;
                        });
  rt.send_at(milliseconds(5), t, Message{2, MsgClass::kTimer});
  rt.send_at(milliseconds(1), t, Message{1, MsgClass::kTimer});
  rt.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], std::make_pair(1, milliseconds(1)));
  EXPECT_EQ(arrivals[1], std::make_pair(2, milliseconds(5)));
}

TEST(Runtime, CancelTimersDropsOnlyMatchingPending) {
  Runtime rt;
  std::vector<std::pair<int, Time>> arrivals;
  ThreadId t = rt.spawn("timed", kPriorityData,
                        [&](Runtime& r, Message m) -> CodeResult {
                          arrivals.emplace_back(m.type, r.now());
                          return CodeResult::kContinue;
                        });
  ThreadId other = rt.spawn("other", kPriorityData,
                            [&](Runtime& r, Message m) -> CodeResult {
                              arrivals.emplace_back(m.type, r.now());
                              return CodeResult::kContinue;
                            });
  rt.send_at(milliseconds(5), t, Message{7, MsgClass::kTimer});
  rt.send_at(milliseconds(9), t, Message{7, MsgClass::kTimer});
  rt.send_at(milliseconds(3), t, Message{8, MsgClass::kTimer});
  rt.send_at(milliseconds(4), other, Message{7, MsgClass::kTimer});
  // Cancellation is target+type scoped: both type-7 timers aimed at `t`
  // vanish; the other thread's type 7 and t's type 8 still fire. Without
  // this, a stale timeout timer keeps run() from going quiescent (a real
  // stall under RealClock).
  EXPECT_EQ(rt.cancel_timers(t, 7), 2u);
  EXPECT_EQ(rt.cancel_timers(t, 7), 0u);  // nothing left to cancel
  rt.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], std::make_pair(8, milliseconds(3)));
  EXPECT_EQ(arrivals[1], std::make_pair(7, milliseconds(4)));
  EXPECT_EQ(rt.now(), milliseconds(4));  // nothing pending past the last fire
}

TEST(Runtime, RunUntilAdvancesClockExactly) {
  Runtime rt;
  rt.run_until(milliseconds(7));
  EXPECT_EQ(rt.now(), milliseconds(7));
  // Timers beyond the horizon do not fire.
  ThreadId t = rt.spawn("late", kPriorityData, [&](Runtime&, Message) {
    return CodeResult::kTerminate;
  });
  rt.send_at(milliseconds(100), t, Message{});
  rt.run_until(milliseconds(50));
  EXPECT_EQ(rt.now(), milliseconds(50));
  EXPECT_TRUE(rt.alive(t));
  rt.run_until(milliseconds(150));
  EXPECT_FALSE(rt.alive(t));
}

TEST(Runtime, BlockingOpsOutsideThreadThrow) {
  Runtime rt;
  EXPECT_THROW((void)rt.receive(), RuntimeError);
  EXPECT_THROW(rt.yield(), RuntimeError);
  EXPECT_THROW(rt.sleep_until(1), RuntimeError);
  EXPECT_THROW((void)rt.call(1, Message{}), RuntimeError);
}

TEST(Runtime, ExceptionInCodeFunctionSurfacesFromRun) {
  Runtime rt;
  ThreadId t = rt.spawn("thrower", kPriorityData, [](Runtime&, Message) -> CodeResult {
    throw std::logic_error("boom");
  });
  rt.send(t, Message{});
  EXPECT_THROW(rt.run(), RuntimeError);
  EXPECT_FALSE(rt.alive(t));
}

TEST(Runtime, KillTearsDownWithoutUnwinding) {
  Runtime rt;
  int progressed = 0;
  ThreadId t = rt.spawn("victim", kPriorityData,
                        [&](Runtime& r, Message) -> CodeResult {
                          ++progressed;
                          (void)r.receive();  // blocks forever
                          ++progressed;       // never reached
                          return CodeResult::kTerminate;
                        });
  rt.send(t, Message{});
  rt.run();
  EXPECT_EQ(progressed, 1);
  rt.kill(t);
  EXPECT_FALSE(rt.alive(t));
  rt.run();
  EXPECT_EQ(progressed, 1);
}

TEST(Runtime, StatsCountSwitchesAndMessages) {
  Runtime rt;
  ThreadId t = rt.spawn("w", kPriorityData, [](Runtime&, Message) {
    return CodeResult::kContinue;
  });
  rt.reset_stats();
  rt.send(t, Message{});
  rt.run();
  EXPECT_EQ(rt.stats().messages_sent, 1u);
  // One slice: switch in + switch out.
  EXPECT_GE(rt.stats().context_switches, 2u);
}

TEST(Runtime, ManyThreadsStress) {
  Runtime rt;
  constexpr int kThreads = 64;
  constexpr int kRounds = 50;
  int done = 0;
  std::vector<ThreadId> ids;
  ids.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    ids.push_back(rt.spawn(
        "w" + std::to_string(i), kPriorityData,
        [&, i](Runtime& r, Message m) -> CodeResult {
          int round = m.type;
          if (round >= kRounds) {
            ++done;
            return CodeResult::kTerminate;
          }
          r.send(ids[static_cast<std::size_t>((i + 1) % kThreads)],
                 Message{round + 1, MsgClass::kData});
          return CodeResult::kContinue;
        }));
  }
  rt.send(ids[0], Message{0, MsgClass::kData});
  rt.run();
  EXPECT_EQ(done, 1);  // exactly one chain reaches kRounds
}

TEST(RuntimeOptions, ControlPriorityCanBeDisabled) {
  RuntimeOptions opt;
  opt.control_overtakes_data = false;
  Runtime rt(nullptr, opt);
  std::vector<int> order;
  ThreadId t = rt.spawn("sink", kPriorityData,
                        [&](Runtime&, Message m) -> CodeResult {
                          order.push_back(m.type);
                          return CodeResult::kContinue;
                        });
  rt.send(t, Message{1, MsgClass::kData});
  rt.send(t, Message{99, MsgClass::kControl});
  rt.run();
  EXPECT_EQ(order, (std::vector<int>{1, 99})) << "FIFO when disabled";
}

TEST(RuntimeOptions, PreemptionCanBeDisabled) {
  RuntimeOptions opt;
  opt.preemption = false;
  Runtime rt(nullptr, opt);
  std::vector<std::string> order;
  ThreadId hi = rt.spawn("hi", kPriorityControl, [&](Runtime&, Message) {
    order.push_back("hi");
    return CodeResult::kTerminate;
  });
  ThreadId lo = rt.spawn("lo", kPriorityData, [&](Runtime& r, Message) {
    order.push_back("lo-before");
    r.send(hi, Message{});
    order.push_back("lo-after");  // not preempted: finishes its slice
    return CodeResult::kTerminate;
  });
  rt.send(lo, Message{});
  rt.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"lo-before", "lo-after", "hi"}));
  EXPECT_EQ(rt.stats().preemptions, 0u);
}

TEST(RuntimeOptions, InheritanceCanBeDisabled) {
  RuntimeOptions opt;
  opt.priority_inheritance = false;
  Runtime rt(nullptr, opt);
  std::vector<std::string> order;
  ThreadId server = rt.spawn("server", kPriorityIdle,
                             [&](Runtime& r, Message m) -> CodeResult {
                               order.push_back("server");
                               r.reply(m, Message{0, MsgClass::kReply});
                               return CodeResult::kContinue;
                             });
  ThreadId middle = rt.spawn("middle", kPriorityData, [&](Runtime&, Message) {
    order.push_back("middle");
    return CodeResult::kTerminate;
  });
  ThreadId caller = rt.spawn("caller", kPriorityControl,
                             [&](Runtime& r, Message) -> CodeResult {
                               order.push_back("caller");
                               (void)r.call(server, Message{1, MsgClass::kData});
                               order.push_back("caller-done");
                               return CodeResult::kTerminate;
                             });
  rt.send(caller, Message{});
  rt.send(middle, Message{});
  rt.run();
  // Without inheritance the mid-priority thread overtakes the low-priority
  // server the high-priority caller is waiting on: classic inversion.
  EXPECT_EQ(order, (std::vector<std::string>{"caller", "middle", "server",
                                             "caller-done"}));
}

TEST(Runtime, DeadlineBreaksPriorityTies) {
  Runtime rt;
  std::vector<std::string> order;
  auto body = [&](const std::string& name) {
    return [&order, name](Runtime&, Message) {
      order.push_back(name);
      return CodeResult::kTerminate;
    };
  };
  ThreadId a = rt.spawn("late-deadline", kPriorityData, body("late"));
  ThreadId b = rt.spawn("early-deadline", kPriorityData, body("early"));
  Message ma{};
  ma.constraint = Constraint{kPriorityData, milliseconds(100)};
  Message mb{};
  mb.constraint = Constraint{kPriorityData, milliseconds(10)};
  rt.send(a, std::move(ma));
  rt.send(b, std::move(mb));
  rt.run();
  EXPECT_EQ(order, (std::vector<std::string>{"early", "late"}));
}

// --- direct transfer: a suspending thread switches straight to the pick ------

// Two same-priority threads bouncing one message: each dispatch forwards it
// to the other thread, until `limit` messages have been dispatched. `hook`
// runs at every dispatch, before the forward, with the number of messages
// dispatched so far.
struct PingPong {
  ThreadId a = kNoThread;
  ThreadId b = kNoThread;
  int messages = 0;
  std::vector<std::string> order;

  PingPong(Runtime& rt, int limit, std::function<void(Runtime&, int)> hook) {
    auto body = [this, limit, hook](const char* name, const ThreadId* peer) {
      return [this, limit, hook, name, peer](Runtime& r, Message) {
        order.emplace_back(name);
        ++messages;
        if (hook) hook(r, messages);
        if (messages < limit) {
          r.send(*peer, Message{kMsgPing, MsgClass::kData});
        }
        return CodeResult::kContinue;
      };
    };
    a = rt.spawn("a", kPriorityData, body("a", &b));
    b = rt.spawn("b", kPriorityData, body("b", &a));
  }
};

// Long enough to stand for an endless ping-pong in the tests below: they
// expect the ping-pong to be interrupted at message 10, and the cap turns a
// missed interruption into a failure rather than a hang.
constexpr int kEndless = 1000;

TEST(DirectTransfer, PingPongCostsOneSwitchPerMessage) {
  constexpr int kMessages = 1000;
  Runtime rt;
  PingPong pp(rt, kMessages, {});
  rt.send(pp.a, Message{kMsgPing, MsgClass::kData});
  rt.run();
  ASSERT_EQ(pp.messages, kMessages);
  for (std::size_t i = 0; i < pp.order.size(); ++i) {
    ASSERT_EQ(pp.order[i], i % 2 == 0 ? "a" : "b") << "at dispatch " << i;
  }
  // Through the scheduler context every message costs two switches (thread
  // -> scheduler -> thread); direct transfer costs one, plus the first
  // switch in and the last switch out.
  EXPECT_LE(rt.stats().context_switches, std::uint64_t{kMessages} + 4);
}

TEST(DirectTransfer, PickFollowsReadyOrderNotMessageReceiver) {
  Runtime rt;
  std::vector<std::string> order;
  auto record = [&order](const char* name) {
    return [&order, name](Runtime&, Message) {
      order.emplace_back(name);
      return CodeResult::kContinue;
    };
  };
  const ThreadId y = rt.spawn("y", kPriorityData, record("y"));
  const ThreadId z = rt.spawn("z", kPriorityData, record("z"));
  const ThreadId x = rt.spawn("x", kPriorityData, [&](Runtime& r, Message) {
    order.emplace_back("x");
    r.send(z, Message{});  // z becomes ready first ...
    r.send(y, Message{});  // ... so FIFO among equals runs z before y
    return CodeResult::kContinue;
  });
  rt.send(x, Message{});
  rt.run();
  EXPECT_EQ(order, (std::vector<std::string>{"x", "z", "y"}));
  // scheduler -> x -> z -> y -> scheduler.
  EXPECT_EQ(rt.stats().context_switches, 4u);
}

TEST(DirectTransfer, ExternalMessageIsInjectedAtNextSuspension) {
  Runtime rt;
  ThreadId hi = kNoThread;
  PingPong pp(rt, kEndless, [&hi](Runtime& r, int n) {
    if (n == 10) r.post_external(hi, Message{});
  });
  int seen_at = -1;
  hi = rt.spawn("hi", kPriorityControl, [&](Runtime& r, Message) {
    seen_at = pp.messages;
    r.request_stop();
    return CodeResult::kContinue;
  });
  rt.send(pp.a, Message{kMsgPing, MsgClass::kData});
  rt.run();
  // Delivered when the thread that posted it suspended, ahead of the
  // ready same-priority peer.
  EXPECT_EQ(seen_at, 10);
  // Messages 1..10 went thread to thread (the scheduler path costs 22).
  EXPECT_LE(rt.stats().context_switches, 10u + 4);
}

TEST(DirectTransfer, TimerDueDuringPingPongFires) {
  Runtime rt;
  PingPong pp(rt, kEndless, [](Runtime& r, int n) {
    if (n == 10) static_cast<VirtualClock&>(r.clock()).advance_to(5000);
  });
  int seen_at = -1;
  const ThreadId hi = rt.spawn("hi", kPriorityTimer, [&](Runtime& r, Message) {
    seen_at = pp.messages;
    r.request_stop();
    return CodeResult::kContinue;
  });
  rt.send_at(5000, hi, Message{});
  rt.send(pp.a, Message{kMsgPing, MsgClass::kData});
  rt.run();
  EXPECT_EQ(seen_at, 10);
  EXPECT_EQ(rt.stats().timer_wakeups, 1u);
  EXPECT_LE(rt.stats().context_switches, 10u + 4);
}

TEST(DirectTransfer, StopOrHaltFromThreadReturnsWhilePeerIsReady) {
  Runtime rt;
  PingPong pp(rt, 30, [](Runtime& r, int n) {
    if (n == 10) r.request_stop();
    if (n == 20) r.request_halt();
  });
  rt.send(pp.a, Message{kMsgPing, MsgClass::kData});
  rt.run();
  EXPECT_EQ(pp.messages, 10);
  // Message 10 ran on "b" and was forwarded to "a", which is still ready.
  ASSERT_NE(rt.thread(pp.a), nullptr);
  EXPECT_EQ(rt.thread(pp.a)->state(), ThreadState::kReady);
  EXPECT_LE(rt.stats().context_switches, 10u + 4);
  rt.run();  // the stop request is consumed: this run() carries on
  EXPECT_EQ(pp.messages, 20);
  EXPECT_EQ(rt.thread(pp.a)->state(), ThreadState::kReady);
  rt.run();  // a halt is sticky
  EXPECT_EQ(pp.messages, 20);
  rt.clear_halt();
  rt.run();
  EXPECT_EQ(pp.messages, 30);
}

TEST(DirectTransfer, TerminatedThreadIsReapedBeforeNextDispatch) {
  Runtime rt;
  ThreadId dying = kNoThread;
  bool reaped = false;
  const ThreadId next = rt.spawn("next", kPriorityData,
                                 [&](Runtime& r, Message) {
                                   reaped = r.thread(dying) == nullptr;
                                   return CodeResult::kContinue;
                                 });
  dying = rt.spawn("dying", kPriorityData, [next](Runtime& r, Message) {
    r.send(next, Message{});
    return CodeResult::kTerminate;
  });
  rt.send(dying, Message{});
  rt.run();
  EXPECT_TRUE(reaped);
}

// --- park / unpark: the message-free wake behind the middleware's waits -----

TEST(Park, UnparkWakesWithoutMessageOrDispatch) {
  Runtime rt;
  bool ready = false;
  int parks = 0;
  bool resumed = false;
  const ThreadId a = rt.spawn("a", kPriorityData, [&](Runtime& r, Message) {
    while (!ready) {
      ++parks;
      r.park();
    }
    resumed = true;
    return CodeResult::kContinue;
  });
  const ThreadId b = rt.spawn("b", kPriorityData, [&](Runtime& r, Message) {
    ready = true;
    r.unpark(a);
    return CodeResult::kContinue;
  });
  rt.send(a, Message{});
  rt.send(b, Message{});
  rt.run();
  EXPECT_TRUE(resumed);
  EXPECT_EQ(parks, 1);
  // The two starting messages are the only messages and the only dispatches:
  // `a` resumed inside its first code-function call.
  EXPECT_EQ(rt.stats().messages_sent, 2u);
  EXPECT_EQ(rt.stats().dispatches, 2u);
}

TEST(Park, ControlMessageWakesParkedThread) {
  Runtime rt;
  bool saw_control = false;
  const ThreadId a = rt.spawn("a", kPriorityData, [&](Runtime& r, Message) {
    r.park();
    saw_control = r.control_queued();
    (void)r.try_receive(
        [](const Message& m) { return m.cls == MsgClass::kControl; });
    return CodeResult::kContinue;
  });
  const ThreadId b = rt.spawn("b", kPriorityData, [&](Runtime& r, Message) {
    r.send(a, Message{7, MsgClass::kControl});
    return CodeResult::kTerminate;
  });
  rt.send(a, Message{});
  rt.run();  // a parks; nothing else is ready
  EXPECT_EQ(rt.thread(a)->state(), ThreadState::kWaitingMsg);
  rt.send(b, Message{});
  rt.run();
  EXPECT_TRUE(saw_control);
  EXPECT_EQ(rt.stats().dispatches, 2u);  // a's start and b's; not the control
}

TEST(Park, UnparkPreemptsLikeSend) {
  Runtime rt;
  std::vector<std::string> order;
  bool woken = false;
  const ThreadId hi = rt.spawn("hi", kPriorityControl, [&](Runtime& r, Message) {
    while (!woken) r.park();
    order.push_back("hi");
    return CodeResult::kTerminate;
  });
  const ThreadId lo = rt.spawn("lo", kPriorityData, [&](Runtime& r, Message) {
    order.push_back("lo-before");
    woken = true;
    r.unpark(hi);  // wakes a higher-priority thread: preemption point
    order.push_back("lo-after");
    return CodeResult::kTerminate;
  });
  rt.send(hi, Message{});  // hi runs first and parks
  rt.send(lo, Message{});
  rt.run();
  EXPECT_EQ(order, (std::vector<std::string>{"lo-before", "hi", "lo-after"}));
  EXPECT_EQ(rt.stats().preemptions, 1u);
}

TEST(Park, UnparkLeavesThreadsThatAreNotParkedAlone) {
  Runtime rt;
  ThreadState sleeper_after = ThreadState::kDone;
  ThreadState self_after = ThreadState::kDone;
  Time woke_at = 0;
  const ThreadId sleeper =
      rt.spawn("sleeper", kPriorityData, [&](Runtime& r, Message) {
        r.sleep_until(1000);
        woke_at = r.now();
        return CodeResult::kTerminate;
      });
  const ThreadId waker = rt.spawn("waker", kPriorityData, [&](Runtime& r,
                                                              Message) {
    r.unpark(sleeper);
    sleeper_after = r.thread(sleeper)->state();
    r.unpark(r.current());
    self_after = r.thread(r.current())->state();
    r.unpark(9999);  // no such thread
    return CodeResult::kTerminate;
  });
  rt.send(sleeper, Message{});
  rt.send(waker, Message{});
  rt.run();
  EXPECT_EQ(sleeper_after, ThreadState::kSleeping);
  EXPECT_EQ(self_after, ThreadState::kRunning);
  EXPECT_EQ(woke_at, 1000);  // its timer, not the unpark, woke it
}

// --- dedicated-host-thread primitives (ip_shard substrate) ------------------

TEST(Runtime, PostsRacingTheParkAreNeverLost) {
  // Each post lands while the host is finishing the previous one and going
  // quiescent, i.e. racing the parked flag it publishes before it rechecks
  // for posts. A lost wake-up would leave the runtime parked with a post
  // pending: the spin below then times out.
  Runtime rt(std::make_unique<RealClock>());
  std::atomic<int> got{0};
  const ThreadId t = rt.spawn("sink", kPriorityData,
                              [&](Runtime&, Message) -> CodeResult {
                                got.fetch_add(1);
                                return CodeResult::kContinue;
                              });
  std::thread host([&] { rt.run_service(); });
  constexpr int kRounds = 2000;
  int delivered = 0;
  for (int i = 1; i <= kRounds; ++i) {
    rt.post_external(t, Message{});
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (got.load() < i && std::chrono::steady_clock::now() < deadline) {
      // Vary how far the host gets into its park before the next post.
      if (i % 3 == 0) std::this_thread::yield();
    }
    if (got.load() < i) break;
    delivered = i;
    if (i % 64 == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  rt.request_halt();
  host.join();
  EXPECT_EQ(delivered, kRounds) << "post " << delivered + 1 << " was lost";
}

TEST(Runtime, ServiceBusyFractionCountsTimerWaitsAsIdle) {
  // A runtime that always has a timer pending never goes quiescent; its
  // busy/idle counters must still advance while it runs, and time spent
  // waiting for the timer is idle.
  Runtime rt(std::make_unique<RealClock>());
  const ThreadId t = rt.spawn("ticker", kPriorityData,
                              [](Runtime& r, Message) -> CodeResult {
                                for (;;) r.sleep_for(milliseconds(1));
                              });
  rt.send(t, Message{});
  std::thread host([&] { rt.run_service(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t busy0 = rt.service_busy_ns();
  const std::uint64_t idle0 = rt.service_idle_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t busy = rt.service_busy_ns() - busy0;
  const std::uint64_t idle = rt.service_idle_ns() - idle0;
  rt.request_halt();
  host.join();
  ASSERT_GT(busy + idle, 0u) << "the counters did not advance while running";
  EXPECT_LT(static_cast<double>(busy) / static_cast<double>(busy + idle), 0.2);
}

TEST(Runtime, HaltIsStickyAndClearable) {
  Runtime rt(std::make_unique<RealClock>());
  int runs = 0;
  const ThreadId t = rt.spawn("worker", kPriorityData,
                              [&](Runtime&, Message) -> CodeResult {
                                ++runs;
                                return CodeResult::kContinue;
                              });
  rt.request_halt();
  EXPECT_TRUE(rt.halted());
  rt.send(t, Message{});
  rt.run();  // halted: returns immediately, nothing dispatched
  EXPECT_EQ(runs, 0);
  rt.clear_halt();
  rt.run();
  EXPECT_EQ(runs, 1);
}

TEST(Runtime, RunServiceParksAndHonorsHalt) {
  Runtime rt(std::make_unique<RealClock>());
  std::atomic<int> runs{0};
  const ThreadId t = rt.spawn("worker", kPriorityData,
                              [&](Runtime&, Message) -> CodeResult {
                                runs.fetch_add(1);
                                return CodeResult::kContinue;
                              });
  std::thread host([&] { rt.run_service(); });
  // Work injected from outside resumes the parked loop.
  rt.post_external(t, Message{});
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (runs.load() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(runs.load(), 1);
  rt.request_halt();
  host.join();  // a lost halt or wakeup would hang here (test TIMEOUT)
}

}  // namespace
}  // namespace infopipe::rt
