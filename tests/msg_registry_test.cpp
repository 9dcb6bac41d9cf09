// Compile-time partitioning checks over the message-type registry, plus a
// regression test for the newest band. The point of rt/msg_registry.hpp is
// that the bands cannot silently collide; this file is where that promise is
// enforced, so adding a constant outside its subsystem's band (or a band
// overlapping another) fails the build, not a 2 a.m. debugging session.
#include <gtest/gtest.h>

#include "rt/msg_registry.hpp"

namespace infopipe::rt::msg {
namespace {

// ---- band layout: ordered, non-overlapping, and gap-free to 599 ------------
static_assert(kCoreBandFirst <= kCoreBandLast);
static_assert(kCoreBandLast < kNetBandFirst, "core and net bands overlap");
static_assert(kNetBandLast < kFeedbackBandFirst,
              "net and feedback bands overlap");
static_assert(kFeedbackBandLast < kIoBandFirst,
              "feedback and io bands overlap");
static_assert(kIoBandLast < kShardBandFirst, "io and shard bands overlap");
static_assert(kShardBandLast < kReplayBandFirst,
              "shard and replay bands overlap");
static_assert(kReplayBandLast < kBalanceBandFirst,
              "replay and balance bands overlap");
static_assert(kBalanceBandFirst <= kBalanceBandLast);

// ---- every constant inside its owner's band --------------------------------
constexpr bool in_band(int v, int first, int last) {
  return v >= first && v <= last;
}

static_assert(in_band(kCoreControl, kCoreBandFirst, kCoreBandLast));
static_assert(in_band(kCoreCoPull, kCoreBandFirst, kCoreBandLast));
static_assert(in_band(kCoreCoItem, kCoreBandFirst, kCoreBandLast));
static_assert(in_band(kCoreTick, kCoreBandFirst, kCoreBandLast));

static_assert(in_band(kNetDeliver, kNetBandFirst, kNetBandLast));
static_assert(in_band(kNetTypespecQuery, kNetBandFirst, kNetBandLast));
static_assert(in_band(kNetCreateComponent, kNetBandFirst, kNetBandLast));
static_assert(in_band(kNetArqSubmit, kNetBandFirst, kNetBandLast));
static_assert(in_band(kNetArqTimer, kNetBandFirst, kNetBandLast));
static_assert(in_band(kNetSocketRetry, kNetBandFirst, kNetBandLast));
static_assert(in_band(kNetControlReply, kNetBandFirst, kNetBandLast));
static_assert(in_band(kNetControlTimeout, kNetBandFirst, kNetBandLast));
static_assert(in_band(kNetSocketFlush, kNetBandFirst, kNetBandLast));

static_assert(in_band(kFeedbackLoopTick, kFeedbackBandFirst, kFeedbackBandLast));

static_assert(in_band(kIoData, kIoBandFirst, kIoBandLast));
static_assert(in_band(kIoSignal, kIoBandFirst, kIoBandLast));
static_assert(in_band(kIoEof, kIoBandFirst, kIoBandLast));
static_assert(in_band(kIoReadable, kIoBandFirst, kIoBandLast));
static_assert(in_band(kIoWritable, kIoBandFirst, kIoBandLast));

static_assert(in_band(kRunFn, kShardBandFirst, kShardBandLast));

static_assert(in_band(kReplayStep, kReplayBandFirst, kReplayBandLast));
static_assert(in_band(kReplayMark, kReplayBandFirst, kReplayBandLast));

static_assert(in_band(kBalanceScaleUp, kBalanceBandFirst, kBalanceBandLast));
static_assert(in_band(kBalanceScaleDown, kBalanceBandFirst, kBalanceBandLast));
static_assert(in_band(kBalanceApplyPlan, kBalanceBandFirst, kBalanceBandLast));

// ---- uniqueness across the whole registry ----------------------------------
TEST(MsgRegistry, AllConstantsAreDistinct) {
  const int all[] = {
      kCoreControl,     kCoreCoPull,       kCoreCoItem,
      kCoreTick,        kNetDeliver,       kNetTypespecQuery,
      kNetCreateComponent, kNetArqSubmit,  kNetArqTimer,
      kNetSocketRetry,  kNetControlReply,  kNetControlTimeout,
      kNetSocketFlush,
      kFeedbackLoopTick, kIoData,          kIoSignal,
      kIoEof,           kIoReadable,       kIoWritable,
      kRunFn,
      kReplayStep,      kReplayMark,       kBalanceScaleUp,
      kBalanceScaleDown, kBalanceApplyPlan,
  };
  const std::size_t n = sizeof(all) / sizeof(all[0]);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      EXPECT_NE(all[i], all[j]) << "registry constants collide at " << all[i];
    }
  }
}

// Regression: the replay control band stays where the range plan put it.
// Moving these values would break every recorded trace in the wild whose
// dispatch frames carry the raw message type.
TEST(MsgRegistry, ReplayBandStaysAt500) {
  EXPECT_EQ(kReplayBandFirst, 500);
  EXPECT_EQ(kReplayBandLast, 599);
  EXPECT_EQ(kReplayStep, 500);
  EXPECT_EQ(kReplayMark, 501);
}

TEST(MsgRegistry, BalanceBandStaysAt600) {
  EXPECT_EQ(kBalanceBandFirst, 600);
  EXPECT_EQ(kBalanceBandLast, 699);
  EXPECT_EQ(kBalanceScaleUp, 600);
  EXPECT_EQ(kBalanceScaleDown, 601);
  EXPECT_EQ(kBalanceApplyPlan, 602);
}

}  // namespace
}  // namespace infopipe::rt::msg
