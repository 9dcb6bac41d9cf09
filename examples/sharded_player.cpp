// Sharded player: the Figure 1 video pipeline split across two kernel
// threads.
//
// The decode half (file source, fill pump, decoder) lands on one shard and
// the presentation half (play pump, display) on the other; the partitioner
// cuts at the passive frame buffer, which becomes a lock-free cross-shard
// channel. Control events still flow pipeline-wide: the display's
// frame-release broadcasts cross the shard boundary back to the decoder's
// reference tracker, exactly as they would inside one runtime.
//
// On a multi-core host the two halves overlap (decode of frame n+1 runs
// while frame n is presented); on one core the program is still correct,
// just serialized.
//
// A Rebalancer watches the placement while the movie plays: if the decode
// shard stays much busier than the presentation shard it migrates a
// section across — mid-playback, without dropping a frame. On this evenly
// split pipeline it normally just accounts and holds still; force a skew
// (e.g. raise the decoder cost) to see balance.migration.count move.
//
// After the movie ends the program turns the SAME running shard group into
// a multi-session server (docs/TUTORIAL.md §16): one SharedPlan analyzed
// once, a SessionTable stamping a few thousand mixed-class flows out of it,
// a SessionAcceptor admitting them against measured load. Everything that
// merely drives the playback realization goes through RealizationHandle&,
// the uniform control surface.
// `sharded_player --record trace.bin` instead runs a record-friendly
// variant of the same split pipeline (clocked fill, digest probes on both
// sides of the cut, one FORCED mid-flow migration) with a ScheduleRecorder
// installed, and writes the schedule trace; `sharded_player --replay
// trace.bin` re-executes that run deterministically on the manual lockstep
// substrate and exits nonzero unless the per-flow digests are
// bit-identical. That pair is the thread-transparency claim as a shell
// command. `--record-elastic trace.bin` goes one further: the mid-flow
// migration lands on a shard ADDED during playback and the old home shard
// is retired afterwards, so the trace carries scale events too — and the
// same `--replay` must still match digest for digest (ARCHITECTURE §19).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "balance/accountant.hpp"
#include "balance/rebalancer.hpp"
#include "core/infopipes.hpp"
#include "core/realization_handle.hpp"
#include "media/mpeg.hpp"
#include "replay/digest.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "replay/trace.hpp"
#include "session/acceptor.hpp"
#include "session/plan.hpp"
#include "session/table.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"

using namespace infopipe;
using namespace infopipe::media;

namespace {

/// The record/replay pipeline: the Figure 1 shape, but the fill pump is
/// clocked (so the stream provably spans the forced migration) and a
/// DigestProbe sits on each side of the cross-shard cut. Both the live
/// recording run and the lockstep replay build THIS same structure — the
/// builder below is the shared recipe.
struct ProbedPlayer {
  StreamConfig cfg;
  MpegFileSource movie;
  ClockedPump fill;
  MpegDecoder decoder;
  replay::DigestProbe decoded{"decoded"};
  Buffer frames;
  FreeRunningPump play;
  replay::DigestProbe presented{"presented"};
  VideoDisplay display;
  Pipeline p;
  std::optional<shard::ShardedRealization> real;

  explicit ProbedPlayer(shard::ShardGroup& g)
      : cfg(make_cfg()),
        movie("movie.mpg", cfg),
        fill("fill", 300.0),
        decoder("decoder"),
        frames("frames", 16),
        play("play"),
        display("display", cfg.fps) {
    p.connect(movie, 0, fill, 0);
    p.connect(fill, 0, decoder, 0);
    p.connect(decoder, 0, decoded, 0);
    p.connect(decoded, 0, frames, 0);
    p.connect(frames, 0, play, 0);
    p.connect(play, 0, presented, 0);
    p.connect(presented, 0, display, 0);
    real.emplace(g, p);
  }

  static StreamConfig make_cfg() {
    StreamConfig c;
    c.frames = 600;
    c.fps = 30.0;
    return c;
  }

  [[nodiscard]] std::vector<replay::Trace::Flow> flows() const {
    return {replay::Trace::Flow{"decoded", decoded.digest(), decoded.items()},
            replay::Trace::Flow{"presented", presented.digest(),
                                presented.items()}};
  }
};

int run_record(const char* path, bool elastic) {
  replay::ScheduleRecorder rec;
  replay::Trace trace;
  {
    shard::ShardGroup group(2);
    ProbedPlayer pl(group);
    rec.attach(group);
    rec.install();
    group.launch();
    pl.real->start();
    // The forced mid-flow topology event: 600 frames at 300 Hz is a 2 s
    // stream, so 500 ms in, the presentation half moves shards
    // mid-playback. In elastic mode the move lands on a shard added right
    // now, and the old home is retired afterwards — a grow, a migration
    // and a shrink, all recorded as trace frames.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const int home = pl.real->shard_of_section(1);
    if (elastic) {
      const int added = group.add_shard();
      pl.real->sync_topology();
      pl.real->migrate_section(1, added);
      group.retire_shard(home);
    } else {
      pl.real->migrate_section(1, 1 - home);
    }
    if (!pl.real->wait_finished(std::chrono::seconds(60))) {
      std::fprintf(stderr, "recording run did not finish in time\n");
      return 1;
    }
    group.stop();
    rec.uninstall();
    for (const replay::Trace::Flow& f : pl.flows()) {
      rec.note_flow(f.name, f.digest, f.items);
    }
    trace = rec.finish();
    const VideoDisplay::Stats st = pl.display.stats();
    std::printf("recorded: %llu frames displayed (%llu corrupt)\n",
                static_cast<unsigned long long>(st.displayed),
                static_cast<unsigned long long>(st.corrupt));
    if (st.displayed != pl.cfg.frames) {
      std::fprintf(stderr, "stream incomplete, not writing trace\n");
      return 1;
    }
  }
  trace.save(path);
  std::printf("%s\n", trace.summary().c_str());
  for (const replay::Trace::Flow& f : trace.flows) {
    std::printf("flow '%s': digest %016llx over %llu items\n", f.name.c_str(),
                static_cast<unsigned long long>(f.digest),
                static_cast<unsigned long long>(f.items));
  }
  std::printf("trace written to %s\n", path);
  return 0;
}

int run_replay(const char* path) {
  replay::Trace trace;
  try {
    trace = replay::Trace::load(path);
  } catch (const replay::TraceError& e) {
    std::fprintf(stderr, "cannot load trace: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", trace.summary().c_str());
  replay::Replayer rp(trace);
  const replay::ReplayResult res = rp.run([](shard::ShardGroup& g) {
    auto st = std::make_shared<ProbedPlayer>(g);
    st->real->start();
    replay::Replayer::Build b;
    b.state = st;
    b.real = &*st->real;
    b.flows = [st] { return st->flows(); };
    return b;
  });
  std::printf("%s\n", res.summary.c_str());
  return res.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--record") == 0) {
    return run_record(argv[2], /*elastic=*/false);
  }
  if (argc == 3 && std::strcmp(argv[1], "--record-elastic") == 0) {
    return run_record(argv[2], /*elastic=*/true);
  }
  if (argc == 3 && std::strcmp(argv[1], "--replay") == 0) {
    return run_replay(argv[2]);
  }
  if (argc != 1) {
    std::fprintf(
        stderr,
        "usage: %s [--record FILE | --record-elastic FILE | --replay FILE]\n",
        argv[0]);
    return 2;
  }
  StreamConfig cfg;
  cfg.frames = 600;
  cfg.fps = 30.0;
  MpegFileSource movie("movie.mpg", cfg);
  FreeRunningPump fill("fill");
  MpegDecoder decoder("decoder");
  // ~50 us of simulated decode work per KB of coded data: enough that the
  // decode shard, not the channel, is the bottleneck.
  decoder.set_cost_per_kb(rt::microseconds(50));
  Buffer frames("frames", 16);
  FreeRunningPump play("play");
  VideoDisplay display("display", cfg.fps);

  Pipeline p;
  p.connect(movie, 0, fill, 0);
  p.connect(fill, 0, decoder, 0);
  p.connect(decoder, 0, frames, 0);
  p.connect(frames, 0, play, 0);
  p.connect(play, 0, display, 0);

  shard::ShardGroup group(2);
  shard::ShardedRealization real(group, p);
  // Everything below that merely drives the realization — lifecycle,
  // introspection, progress — goes through the abstract control surface;
  // only wait_finished() and the Rebalancer need the concrete type.
  RealizationHandle& player = real;
  std::printf("%s\n", player.describe().c_str());

  balance::Rebalancer::Options ropt;
  ropt.period = rt::milliseconds(250);
  balance::Rebalancer rb(real, ropt);

  const auto t0 = std::chrono::steady_clock::now();
  player.start();  // = control(kEventStart)
  rb.launch();
  if (!real.wait_finished(std::chrono::seconds(120))) {
    std::fprintf(stderr, "player did not finish in time\n");
    return 1;
  }
  rb.stop();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

  const VideoDisplay::Stats st = display.stats();
  std::printf("played %llu/%llu frames (%llu corrupt) in %.0f ms\n",
              static_cast<unsigned long long>(st.displayed),
              static_cast<unsigned long long>(cfg.frames),
              static_cast<unsigned long long>(st.corrupt), ms);

  const StatsSnapshot snap = player.stats_snapshot();
  for (const ChannelStats& ch : snap.channels) {
    std::printf(
        "channel '%s' shard%d->shard%d: %llu puts, %llu takes, "
        "%llu producer stalls, %llu consumer stalls, %llu wakeups\n",
        ch.flow.name.c_str(), ch.from_shard, ch.to_shard,
        static_cast<unsigned long long>(ch.flow.puts),
        static_cast<unsigned long long>(ch.flow.takes),
        static_cast<unsigned long long>(ch.flow.put_blocks),
        static_cast<unsigned long long>(ch.flow.take_blocks),
        static_cast<unsigned long long>(ch.wakeups));
  }
  const obs::MetricsSnapshot m = player.metrics_snapshot();
  for (const char* row : {"shard0.rt.dispatches", "shard1.rt.dispatches"}) {
    if (const obs::MetricValue* v = m.find(row)) {
      std::printf("%s = %llu\n", row,
                  static_cast<unsigned long long>(v->count));
    }
  }
  const obs::MetricsSnapshot bm = rb.metrics_snapshot();
  if (const obs::MetricValue* v = bm.find("balance.migration.count")) {
    std::printf("rebalancer: %llu steps, %llu migrations\n",
                static_cast<unsigned long long>(rb.steps()),
                static_cast<unsigned long long>(v->count));
  } else {
    std::printf("rebalancer: %llu steps, 0 migrations\n",
                static_cast<unsigned long long>(rb.steps()));
  }

  // ---- phase 2: the same group, as a multi-session server -------------------
  //
  // The movie needed one realization. A server holds thousands of flows,
  // and charging each one a full plan+realize is the per-use cost the
  // plan/realization split exists to avoid. One SharedPlan is analyzed
  // once; the SessionTable realizes one engine per shard of the STILL
  // RUNNING group and stamps every open out of that single PlanInfo.
  std::printf("\n-- session server phase: one plan, many flows --\n");
  auto plan = session::SharedPlan::analyze(session::EngineSpec{});
  session::SessionTable table(group, plan);
  balance::LoadAccountant acct(group);
  session::SessionAcceptor acceptor(table, acct);
  table.start_loops();  // gold steals pump rate from bronze under pressure

  constexpr int kFlows = 3000;
  std::vector<session::SessionId> ids;
  ids.reserve(kFlows);
  for (int i = 0; i < kFlows; ++i) {
    session::SessionParams sp;
    sp.qos = static_cast<session::QosClass>(i % session::kNumClasses);
    sp.rate_hz = 5.0 + static_cast<double>(i % 8) * 5.0;
    const auto r = acceptor.open(sp);
    if (r.ok) ids.push_back(r.id);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  const session::JitterSnapshot j = table.jitter();
  std::printf(
      "sessions: %llu live / %d asked, %llu admitted, %llu rejected\n",
      static_cast<unsigned long long>(table.live()), kFlows,
      static_cast<unsigned long long>(acceptor.admitted()),
      static_cast<unsigned long long>(acceptor.rejected()));
  std::printf(
      "realizations: %llu (the whole fleet shares %d engine plans)\n",
      static_cast<unsigned long long>(table.realizations()), table.shards());
  std::printf("items emitted: %llu; inter-item jitter p50 %llu ns, "
              "p99 %llu ns over %llu samples\n",
              static_cast<unsigned long long>(table.items_total()),
              static_cast<unsigned long long>(j.p50_ns),
              static_cast<unsigned long long>(j.p99_ns),
              static_cast<unsigned long long>(j.samples));

  table.stop_loops();
  for (const session::SessionId id : ids) acceptor.close(id);
  std::printf("closed all: %llu live\n",
              static_cast<unsigned long long>(table.live()));
  return 0;
}
