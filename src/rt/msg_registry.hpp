// Central registry of rt message-type constants.
//
// Every subsystem that speaks through the Runtime's mailboxes discriminates
// its messages with a plain `int type`. Those constants used to be scattered
// across headers (kMsgNetDeliver=100 in net/transport.hpp,
// kMsgTypespecQuery=101 in net/node.hpp, the IoBridge 300s, the shard 400s),
// which made a silent collision between two subsystems a matter of time.
// This header is now the single place where ranges are allotted and values
// assigned; subsystem headers alias these constants under their traditional
// names, so call sites did not have to change.
//
// Range plan (a new subsystem claims the next free hundred here):
//   1..99     ipcore realization glue (core/realization.hpp)
//   100..199  ip_net: netpipe data plane, node protocol, ARQ, sockets
//   200..299  ip_feedback loops
//   300..399  rt::IoBridge OS-event mapping
//   400..499  ip_shard coordination
//   500..599  ip_replay record/replay control
//   600..699  ip_balance scale/plan control
//
// The band bounds below exist so the partitioning is checkable: every
// constant carries a static_assert in tests/msg_registry_test.cpp pinning
// it inside its subsystem's band, and a new band must be claimed here
// before its first constant lands.
#pragma once

namespace infopipe::rt::msg {

// ---- ipcore realization glue (1..99) --------------------------------------
inline constexpr int kCoreControl = 1;  ///< control event dispatch
inline constexpr int kCoreCoPull = 2;   ///< start an idle coroutine (pull)
inline constexpr int kCoreCoItem = 3;   ///< start an idle coroutine (push)
inline constexpr int kCoreTick = 6;     ///< pump timer tick
// Retired, never to be reused: 4 (coroutine done), 5 (buffer notify) and
// 7 (section lock grant). Those waits are rendezvous on a typed slot now
// (HostContext::await + Runtime::unpark), not messages.

// ---- ip_net (100..199) ----------------------------------------------------
inline constexpr int kNetDeliver = 100;          ///< packet to a NetReceiver
inline constexpr int kNetTypespecQuery = 101;    ///< node agent query
inline constexpr int kNetCreateComponent = 102;  ///< node agent factory call
inline constexpr int kNetArqSubmit = 110;        ///< pipeline -> ARQ sender
inline constexpr int kNetArqTimer = 111;         ///< ARQ retransmission check
inline constexpr int kNetSocketRetry = 120;      ///< connect backoff expired
inline constexpr int kNetControlReply = 121;     ///< socket control-link reply
inline constexpr int kNetControlTimeout = 122;   ///< socket control-call timer
inline constexpr int kNetSocketFlush = 123;      ///< write the queued burst

// ---- ip_feedback (200..299) -----------------------------------------------
inline constexpr int kFeedbackLoopTick = 200;  ///< PeriodicTask step

// ---- rt::IoBridge (300..399) ----------------------------------------------
inline constexpr int kIoData = 300;      ///< payload: std::vector<uint8_t>
inline constexpr int kIoSignal = 301;    ///< payload: int (signal number)
inline constexpr int kIoEof = 302;       ///< payload: int (the fd)
inline constexpr int kIoReadable = 303;  ///< payload: int (the fd); one-shot
inline constexpr int kIoWritable = 304;  ///< payload: int (the fd); one-shot

// ---- ip_shard (400..499) --------------------------------------------------
inline constexpr int kRunFn = 410;  ///< ShardGroup::run_on payload
// Retired, never to be reused: 400 and 401 (cross-shard channel data/space
// wakes). A cut buffer's blocked end is woken by Runtime::unpark_external,
// not a message.

// ---- ip_replay (500..599) -------------------------------------------------
inline constexpr int kReplayStep = 500;  ///< trace-driven step barrier
inline constexpr int kReplayMark = 501;  ///< timeline marker injection

// ---- ip_balance (600..699) ------------------------------------------------
inline constexpr int kBalanceScaleUp = 600;    ///< scaler ULT: grow the group
inline constexpr int kBalanceScaleDown = 601;  ///< scaler ULT: drain + retire
inline constexpr int kBalanceApplyPlan = 602;  ///< run one scheduled move batch

// ---- band bounds (for the overlap static_asserts) -------------------------
inline constexpr int kCoreBandFirst = 1, kCoreBandLast = 99;
inline constexpr int kNetBandFirst = 100, kNetBandLast = 199;
inline constexpr int kFeedbackBandFirst = 200, kFeedbackBandLast = 299;
inline constexpr int kIoBandFirst = 300, kIoBandLast = 399;
inline constexpr int kShardBandFirst = 400, kShardBandLast = 499;
inline constexpr int kReplayBandFirst = 500, kReplayBandLast = 599;
inline constexpr int kBalanceBandFirst = 600, kBalanceBandLast = 699;

}  // namespace infopipe::rt::msg
