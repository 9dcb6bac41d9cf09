#include "shard/sharded_realization.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <utility>

#include "replay/hooks.hpp"

namespace infopipe::shard {

namespace {

/// The upstream end of a cut buffer in its producer shard's sub-pipeline:
/// the section pushes into the buffer exactly as it would uncut.
class CutIn final : public PassiveSink {
 public:
  explicit CutIn(Buffer& b) : PassiveSink(b.name() + ".send"), b_(&b) {}

 protected:
  void consume(Item x) override { consume_span(ItemSpan(&x, 1)); }
  void consume_span(ItemSpan xs) override {
    b_->put_span(xs, realization()->current_host());
  }

 private:
  Buffer* b_;
};

/// The downstream end: the section pulls out of the buffer, sub-pipeline
/// planning sees the Typespec the full plan propagated onto the cut edge,
/// and the buffer's control events (FLUSH) act at its consumer end.
class CutOut final : public PassiveSource {
 public:
  CutOut(Buffer& b, Typespec offer)
      : PassiveSource(b.name() + ".recv"), b_(&b), offer_(std::move(offer)) {}

  [[nodiscard]] Typespec output_offer(int /*port*/) const override {
    return offer_;
  }
  void handle_event(const Event& e) override { b_->handle_event(e); }

 protected:
  Item generate() override {
    Item x;
    (void)generate_span(ItemSpan(&x, 1));
    return x;
  }
  std::size_t generate_span(ItemSpan out) override {
    return b_->take_span(out, realization()->current_host());
  }

 private:
  Buffer* b_;
  Typespec offer_;
};

ChannelStats cut_stats(const Buffer& b) {
  return ChannelStats{b.flow_stats(), b.from_shard(), b.to_shard(),
                      b.stats().wakeups};
}

}  // namespace

ShardedRealization::ShardedRealization(ShardGroup& group, const Pipeline& p)
    : group_(&group), pipe_(&p), plan_(infopipe::plan(p)) {
  // kDropOldest buffers are never cut: eviction at the head would race a
  // consumer on another kernel thread.
  std::vector<std::pair<const Component*, const Component*>> colo;
  for (Component* c : p.components()) {
    if (auto* b = dynamic_cast<Buffer*>(c)) {
      if (b->full_policy() == FullPolicy::kDropOldest) {
        const Edge* in = p.edge_into(*b, 0);
        const Edge* out = p.edge_from(*b, 0);
        if (in != nullptr && out != nullptr) colo.emplace_back(in->from, out->to);
      }
    }
  }
  part_ = infopipe::partition(plan_, group.size(), colo);
  assign_ = part_.shard_of_section;

  for (std::size_t i = 0; i < plan_.sections.size(); ++i) {
    const Plan::Section& sec = plan_.sections[i];
    section_of_.emplace(sec.driver, i);
    for (const Plan::Hosted& h : sec.members) section_of_.emplace(h.comp, i);
  }

  for (const Partition::Cut& cut : part_.cuts) {
    cuts_.push_back(make_cut(cut));
    bind_cut(*cuts_.back());
  }

  sub_pipes_.resize(static_cast<std::size_t>(group.size()));
  std::vector<int> all_shards;
  for (int s = 0; s < group.size(); ++s) all_shards.push_back(s);
  build_sub_pipes(all_shards);

  // Realize each non-empty shard on its own kernel thread, and wire the
  // cross-shard control-event forwarding.
  group.launch();
  reals_.resize(static_cast<std::size_t>(group.size()));
  try {
    for (int s = 0; s < group.size(); ++s) realize_shard(s);
    for (const auto& link : cuts_) add_cut_collector(*link);
  } catch (...) {
    teardown();
    throw;
  }
}

ShardedRealization::~ShardedRealization() { teardown(); }

// ============================ construction helpers ==========================

std::map<const Component*, int> ShardedRealization::compute_shard_of_comp()
    const {
  std::map<const Component*, int> shard_of_comp;
  for (const auto& [c, sec] : section_of_) shard_of_comp[c] = assign_[sec];
  const std::map<const Component*, std::size_t> cut_of = live_cut_of();
  for (const Edge& e : pipe_->edges()) {
    const auto fu = shard_of_comp.find(e.from);
    const auto tu = shard_of_comp.find(e.to);
    if (fu != shard_of_comp.end() && tu == shard_of_comp.end() &&
        cut_of.find(e.to) == cut_of.end()) {
      shard_of_comp[e.to] = fu->second;
    } else if (tu != shard_of_comp.end() && fu == shard_of_comp.end() &&
               cut_of.find(e.from) == cut_of.end()) {
      shard_of_comp[e.from] = tu->second;
    }
  }
  return shard_of_comp;
}

std::map<const Component*, std::size_t> ShardedRealization::live_cut_of()
    const {
  std::map<const Component*, std::size_t> cut_of;
  for (std::size_t i = 0; i < cuts_.size(); ++i) cut_of[cuts_[i]->buffer] = i;
  return cut_of;
}

std::unique_ptr<ShardedRealization::CutLink> ShardedRealization::make_cut(
    const Partition::Cut& cut) const {
  auto* b = dynamic_cast<Buffer*>(cut.buffer);
  if (b == nullptr) {
    throw CompositionError("partition cut at '" + cut.buffer->name() +
                           "' which is not a buffer");
  }
  auto link = std::make_unique<CutLink>();
  link->buffer = b;
  link->up_sec = cut.upstream_section;
  link->down_sec = cut.downstream_section;
  link->in = std::make_unique<CutIn>(*b);
  link->out = std::make_unique<CutOut>(*b, cut_spec(*b));
  return link;
}

void ShardedRealization::bind_cut(CutLink& link) {
  Buffer* b = link.buffer;
  const int up = assign_[link.up_sec];
  const int down = assign_[link.down_sec];
  b->bind_producer(group_->runtime(up), up);
  b->bind_consumer(group_->runtime(down), down);
  // The ring lives on the consumer shard's NUMA node: the consumer is the
  // end that touches every slot last (the take move) and then walks the
  // payload. Re-placed on the producer's thread, the one end that may be
  // running; an empty ring only, so no item moves.
  const int node = group_->node_of_shard(down);
  run_on_shard(up, [b, node] { b->place_ring(node); });
}

Typespec ShardedRealization::cut_spec(const Component& buffer) const {
  if (const Edge* out_e = pipe_->edge_from(buffer, 0)) {
    const auto it = plan_.edge_spec.find(out_e);
    if (it != plan_.edge_spec.end()) return it->second;
  }
  return Typespec{};
}

void ShardedRealization::build_sub_pipes(const std::vector<int>& shards) {
  const std::set<int> wanted(shards.begin(), shards.end());
  for (int s : wanted) {
    sub_pipes_[static_cast<std::size_t>(s)] = std::make_unique<Pipeline>();
  }
  const std::map<const Component*, int> shard_of_comp = compute_shard_of_comp();
  const std::map<const Component*, std::size_t> cut_of = live_cut_of();
  // Every edge lands on exactly one shard; edges touching a cut buffer are
  // rerouted to its end adapters.
  for (const Edge& e : pipe_->edges()) {
    Component* from = e.from;
    Component* to = e.to;
    int s = 0;
    if (const auto c = cut_of.find(e.to); c != cut_of.end()) {
      to = cuts_[c->second]->in.get();
      s = cuts_[c->second]->buffer->from_shard();
    } else if (const auto c2 = cut_of.find(e.from); c2 != cut_of.end()) {
      from = cuts_[c2->second]->out.get();
      s = cuts_[c2->second]->buffer->to_shard();
    } else if (const auto f = shard_of_comp.find(e.from);
               f != shard_of_comp.end()) {
      s = f->second;
    } else {
      s = shard_of_comp.at(e.to);
    }
    if (wanted.count(s) == 0) continue;
    sub_pipes_[static_cast<std::size_t>(s)]->connect(*from, e.out_port, *to,
                                                     e.in_port);
  }
  // Carry user preferences over (cut buffers excepted: their typespec was
  // already resolved in the full plan and travels via the out end's offer).
  for (Component* c : pipe_->components()) {
    const auto s = shard_of_comp.find(c);
    if (s == shard_of_comp.end() || wanted.count(s->second) == 0) continue;
    for (int port = 0; port < c->in_port_count(); ++port) {
      if (const Typespec* r = pipe_->restriction(*c, port)) {
        sub_pipes_[static_cast<std::size_t>(s->second)]->restrict(*c, port,
                                                                  *r);
      }
    }
  }
}

void ShardedRealization::run_on_shard(int shard,
                                      const std::function<void()>& fn) {
  if (group_->running()) {
    group_->run_on(shard, fn);
  } else {
    fn();
  }
}

void ShardedRealization::realize_shard(int shard) {
  Pipeline& sp = *sub_pipes_[static_cast<std::size_t>(shard)];
  if (sp.components().empty()) return;
  run_on_shard(shard, [this, shard, &sp] {
    auto r = std::make_unique<Realization>(group_->runtime(shard), sp);
    r->set_event_listener(
        [this, shard](const Event& e) { forward_event(shard, e); });
    const std::lock_guard<std::mutex> lk(ev_mu_);
    reals_[static_cast<std::size_t>(shard)] = std::move(r);
  });
}

void ShardedRealization::add_cut_collector(CutLink& link) {
  const int cs = link.buffer->to_shard();
  const Buffer* b = link.buffer;
  run_on_shard(cs, [this, &link, b, cs] {
    link.collector = group_->runtime(cs).metrics().add_collector(
        [b](obs::MetricsSnapshot& out) {
          StatsSnapshot tmp;
          tmp.channels.push_back(cut_stats(*b));
          publish(tmp, out);
        });
    link.collector_shard = cs;
  });
}

void ShardedRealization::remove_cut_collector(CutLink& link) noexcept {
  if (link.collector_shard < 0) return;
  const int shard = link.collector_shard;
  const auto coll = link.collector;
  const auto remove = [this, shard, coll] {
    group_->runtime(shard).metrics().remove_collector(coll);
  };
  try {
    run_on_shard(shard, remove);
  } catch (...) {
    try {
      remove();
    } catch (...) {
    }
  }
  link.collector_shard = -1;
  link.collector = 0;
}

void ShardedRealization::teardown() noexcept {
  // Serialize against a concurrent migration; after this, nothing else
  // mutates the structure.
  std::unique_lock<std::mutex> op_lk(op_mu_, std::defer_lock);
  try {
    op_lk.lock();
  } catch (...) {
  }
  // Cut collectors first (they capture buffer pointers), then the
  // realizations — each on its own shard thread so nothing races the
  // scheduler there. If a shard thread is gone, the runtime is parked and a
  // direct call is race-free.
  for (const auto& link : cuts_) remove_cut_collector(*link);
  for (std::size_t s = 0; s < reals_.size(); ++s) {
    if (!reals_[s]) continue;
    const auto destroy = [this, s] { reals_[s].reset(); };
    try {
      run_on_shard(static_cast<int>(s), destroy);
    } catch (...) {
      try {
        destroy();
      } catch (...) {
      }
    }
  }
}

// ============================ control events ================================

void ShardedRealization::record_started(const Event& e) {
  // Caller holds ev_mu_.
  if (e.type == kEventStart) {
    started_ = true;
  } else if (e.type == kEventStop || e.type == kEventShutdown) {
    started_ = false;
  }
}

void ShardedRealization::forward_event(int from_shard, const Event& e) {
  // Runs on the originating shard's kernel thread. post_event_external
  // enqueues without invoking the remote listener, so forwarding cannot
  // loop.
  std::function<void(const Event&)> listener;
  {
    const std::lock_guard<std::mutex> lk(ev_mu_);
    record_started(e);
    for (std::size_t t = 0; t < reals_.size(); ++t) {
      if (static_cast<int>(t) == from_shard) continue;
      if (reals_[t]) {
        reals_[t]->post_event_external(e);
      } else if (migrating_) {
        pending_.push_back(PendingEvent{static_cast<int>(t), nullptr, e});
      }
    }
    listener = listener_;
  }
  if (listener) listener(e);
}

void ShardedRealization::post_event(const Event& e) {
  std::function<void(const Event&)> listener;
  {
    const std::lock_guard<std::mutex> lk(ev_mu_);
    record_started(e);
    for (std::size_t t = 0; t < reals_.size(); ++t) {
      if (reals_[t]) {
        reals_[t]->post_event_external(e);
      } else if (migrating_) {
        pending_.push_back(PendingEvent{static_cast<int>(t), nullptr, e});
      }
    }
    listener = listener_;
  }
  if (listener) listener(e);
}

void ShardedRealization::post_event_to_component(Component& c,
                                                 const Event& e) {
  const std::lock_guard<std::mutex> lk(ev_mu_);
  Realization* real = nullptr;
  Component* target = &c;
  const auto cut = std::find_if(cuts_.begin(), cuts_.end(),
                                [&c](const auto& l) { return l->buffer == &c; });
  if (const auto it = section_of_.find(&c); it != section_of_.end()) {
    real = reals_[static_cast<std::size_t>(assign_[it->second])].get();
  } else if (cut != cuts_.end()) {
    target = (*cut)->out.get();
    real = reals_[static_cast<std::size_t>(assign_[(*cut)->down_sec])].get();
  } else {
    for (const auto& r : reals_) {
      if (r && r->hosts(c)) {
        real = r.get();
        break;
      }
    }
  }
  if (real != nullptr) {
    real->post_event_to_external(*target, e);
  } else if (migrating_) {
    pending_.push_back(PendingEvent{-1, &c, e});
  }
  // Else: no shard hosts the component (e.g. it was never realized); drop,
  // mirroring rt::Runtime::send to a dead thread.
}

void ShardedRealization::start() {
  post_event(Event{kEventStart});
  if (!group_->running()) return;
  for (std::size_t s = 0; s < reals_.size(); ++s) {
    bool live = false;
    {
      const std::lock_guard<std::mutex> lk(ev_mu_);
      live = reals_[s] != nullptr;
    }
    if (live) group_->run_on(static_cast<int>(s), [] {});
  }
}

// ============================ introspection =================================

bool ShardedRealization::shard_finished(int shard) {
  Realization* r = nullptr;
  {
    const std::lock_guard<std::mutex> lk(ev_mu_);
    // A shard the group grew after realize time (sync_topology not yet
    // called) hosts nothing and is trivially done.
    if (static_cast<std::size_t>(shard) >= reals_.size()) return true;
    r = reals_[static_cast<std::size_t>(shard)].get();
  }
  if (r == nullptr) return true;
  return group_->running()
             ? group_->call_on(shard, [r] { return r->finished(); })
             : r->finished();
}

bool ShardedRealization::finished() {
  const std::lock_guard<std::mutex> lk(op_mu_);
  for (int s = 0; s < group_->size(); ++s) {
    if (!shard_finished(s)) return false;
  }
  return true;
}

bool ShardedRealization::wait_finished(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!finished()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

ShardedRealization::Located ShardedRealization::find_component(
    std::string_view name) {
  const std::lock_guard<std::mutex> lk(ev_mu_);
  for (std::size_t s = 0; s < reals_.size(); ++s) {
    if (!reals_[s]) continue;
    if (Component* c = reals_[s]->find_component(name)) {
      return Located{c, reals_[s].get(), static_cast<int>(s)};
    }
  }
  return Located{};
}

Buffer* ShardedRealization::find_channel(std::string_view name) {
  const std::lock_guard<std::mutex> lk(ev_mu_);
  for (const auto& link : cuts_) {
    if (link->buffer->name() == name) return link->buffer;
  }
  return nullptr;
}

std::vector<Buffer*> ShardedRealization::live_channels() {
  const std::lock_guard<std::mutex> lk(ev_mu_);
  std::vector<Buffer*> out;
  for (const auto& link : cuts_) out.push_back(link->buffer);
  return out;
}

int ShardedRealization::shard_of_section(std::size_t section) {
  const std::lock_guard<std::mutex> lk(ev_mu_);
  return assign_.at(section);
}

PlanInfo ShardedRealization::plan_info() const {
  // plan_ is set once in the constructor and never mutated (migrations move
  // sections between shards without re-planning), so no lock is needed and
  // the result is the same immutable decision set on every call.
  return plan_info_of(*pipe_, plan_,
                      static_cast<std::size_t>(plan_.total_threads()));
}

StatsSnapshot ShardedRealization::stats_snapshot() {
  const std::lock_guard<std::mutex> lk(op_mu_);
  StatsSnapshot out;
  for (std::size_t s = 0; s < reals_.size(); ++s) {
    Realization* r = nullptr;
    {
      const std::lock_guard<std::mutex> ev_lk(ev_mu_);
      r = reals_[s].get();
    }
    if (r == nullptr) continue;
    StatsSnapshot part =
        group_->running()
            ? group_->call_on(static_cast<int>(s),
                              [r] { return r->stats_snapshot(); })
            : r->stats_snapshot();
    if (part.when > out.when) out.when = part.when;
    for (DriverStats& d : part.drivers) out.drivers.push_back(std::move(d));
    for (BufferStats& b : part.buffers) out.buffers.push_back(std::move(b));
  }
  for (const Buffer* b : live_channels()) out.channels.push_back(cut_stats(*b));
  return out;
}

obs::MetricsSnapshot ShardedRealization::metrics_snapshot() {
  const std::lock_guard<std::mutex> lk(op_mu_);
  return group_->metrics_snapshot();
}

std::optional<double> ShardedRealization::try_sample_component(
    std::string_view name, const std::function<double(Component&)>& fn) {
  const std::unique_lock<std::mutex> lk(op_mu_, std::try_to_lock);
  if (!lk.owns_lock()) return std::nullopt;  // structural op in flight
  Component* comp = nullptr;
  Realization* real = nullptr;
  int shard = -1;
  {
    const std::lock_guard<std::mutex> ev_lk(ev_mu_);
    for (std::size_t s = 0; s < reals_.size(); ++s) {
      if (!reals_[s]) continue;
      if (Component* c = reals_[s]->find_component(name)) {
        comp = c;
        real = reals_[s].get();
        shard = static_cast<int>(s);
        break;
      }
    }
  }
  (void)real;
  if (comp == nullptr) return std::nullopt;
  if (!group_->running() || group_->on_shard_thread(shard)) {
    return fn(*comp);
  }
  return group_->call_on(shard, [&fn, comp] { return fn(*comp); });
}

std::string ShardedRealization::describe() const {
  const std::lock_guard<std::mutex> lk(ev_mu_);
  const std::size_t live = cuts_.size();
  std::string out = "sharded over " + std::to_string(group_->size()) +
                    " shards, " + std::to_string(live) +
                    " cross-shard channel" + (live == 1 ? "" : "s") + "\n";
  for (const auto& link : cuts_) {
    const Buffer& b = *link->buffer;
    out += "  channel '" + b.name() + "': shard " +
           std::to_string(b.from_shard()) + " -> shard " +
           std::to_string(b.to_shard()) + ", capacity " +
           std::to_string(b.capacity()) + "\n";
  }
  for (std::size_t s = 0; s < reals_.size(); ++s) {
    out += "shard " + std::to_string(s) + ":";
    if (!reals_[s]) {
      out += " (empty)\n";
      continue;
    }
    out += "\n" + reals_[s]->describe();
  }
  return out;
}

// ============================ elastic topology ==============================

void ShardedRealization::adopt_new_shards_locked() {
  // Caller holds op_mu_. Growth only: a retired shard's slot (and whatever
  // realization state it last held) is retained.
  const auto n = static_cast<std::size_t>(group_->size());
  if (sub_pipes_.size() < n) sub_pipes_.resize(n);
  const std::lock_guard<std::mutex> lk(ev_mu_);
  if (reals_.size() < n) reals_.resize(n);
}

void ShardedRealization::sync_topology() {
  const std::lock_guard<std::mutex> op_lk(op_mu_);
  adopt_new_shards_locked();
}

std::vector<MigrationOutcome> ShardedRealization::evacuate_shard(
    int shard, std::chrono::milliseconds quiesce_timeout) {
  // Every section is an item weighted by thread count; only the retiring
  // shard's sections may move, so the others preload their homes.
  std::vector<PlaceItem> items;
  {
    const std::lock_guard<std::mutex> lk(ev_mu_);
    for (std::size_t s = 0; s < assign_.size(); ++s) {
      items.push_back(PlaceItem{static_cast<double>(section_threads(s)),
                                assign_[s], assign_[s] == shard});
    }
  }
  std::vector<int> targets;
  for (const int s : group_->live_shards()) {
    if (s != shard) targets.push_back(s);
  }
  if (targets.empty()) {
    throw CompositionError("evacuate: no other live shard to move to");
  }
  // Check every section can leave before moving the first one — a
  // half-evacuated shard cannot retire.
  for (std::size_t s = 0; s < items.size(); ++s) {
    if (items[s].movable && !part_.migratable(s)) {
      throw CompositionError("evacuate: section '" + section_name(s) +
                             "' on shard " + std::to_string(shard) +
                             " is pinned");
    }
  }
  const Placement placed = place(items, targets);
  std::vector<MigrationOutcome> out;
  for (std::size_t s = 0; s < items.size(); ++s) {
    if (items[s].movable) {
      out.push_back(migrate_section(s, placed.shard[s], quiesce_timeout));
    }
  }
  return out;
}

// ============================ migration =====================================

ShardedRealization::Migration ShardedRealization::begin_migration(
    std::size_t section, int to) {
  return Migration(*this, section, to);
}

MigrationOutcome ShardedRealization::migrate_section(
    std::size_t section, int to, std::chrono::milliseconds quiesce_timeout) {
  Migration m = begin_migration(section, to);
  m.quiesce(quiesce_timeout);
  m.transfer();
  m.resume();
  return m.outcome();
}

ShardedRealization::Migration::Migration(ShardedRealization& sr,
                                         std::size_t section, int to)
    : sr_(&sr), lock_(sr.op_mu_), section_(section), to_(to) {
  if (section >= sr.plan_.sections.size()) {
    throw CompositionError("migrate: section index out of range");
  }
  if (to < 0 || to >= sr.group_->size()) {
    throw CompositionError("migrate: target shard out of range");
  }
  if (!sr.group_->is_live(to)) {
    throw CompositionError("migrate: target shard " + std::to_string(to) +
                           " is retired");
  }
  // The target may postdate realize time (ShardGroup::add_shard): size the
  // per-shard tables up before transfer() indexes them. op_mu_ is already
  // held (lock_ above).
  sr.adopt_new_shards_locked();
  if (!sr.part_.migratable(section)) {
    throw CompositionError("migrate: section '" + sr.section_name(section) +
                           "' is pinned (clustered or hosts a non-migratable "
                           "component)");
  }
  {
    const std::lock_guard<std::mutex> lk(sr.ev_mu_);
    from_ = sr.assign_[section];
  }
  if (from_ == to_) {
    throw CompositionError("migrate: shard " + std::to_string(to_) +
                           " already hosts section '" +
                           sr.section_name(section) + "'");
  }
  out_.section = section_;
  out_.from = from_;
  out_.to = to_;
}

ShardedRealization::Migration::Migration(Migration&& o) noexcept
    : sr_(o.sr_),
      lock_(std::move(o.lock_)),
      section_(o.section_),
      from_(o.from_),
      to_(o.to_),
      phase_(o.phase_),
      stop_posted_(o.stop_posted_),
      out_(o.out_) {
  o.sr_ = nullptr;
}

ShardedRealization::Migration::~Migration() {
  if (sr_ == nullptr) return;
  // Never leave the flow stopped: a part-way abandoned migration restarts
  // whatever exists. That includes a quiesce() that threw on timeout —
  // stops were already posted even though phase_ never advanced. The
  // restart decision re-reads started_ under the lock (not a value latched
  // at quiesce entry): a user stop()/shutdown() broadcast that landed
  // during the move must win, or the two affected shards would come back up
  // while every other shard obeys the stop.
  try {
    if (phase_ == 2) {
      resume();
    } else if (phase_ < 2 && stop_posted_) {
      // Quiesced (or quiesce failed part-way) but never torn down: just
      // restart the affected shards in place.
      bool restarted = false;
      {
        const std::lock_guard<std::mutex> lk(sr_->ev_mu_);
        if (sr_->started_) {
          for (int s : {from_, to_}) {
            if (Realization* r =
                    sr_->reals_[static_cast<std::size_t>(s)].get())
              r->post_event_external(Event{kEventStart});
          }
          restarted = true;
        }
      }
      // Barrier like resume(): when the destructor returns, the affected
      // drivers have dispatched their restart, so a finished() poll cannot
      // mistake the not-yet-restarted flow for "done".
      if (restarted && sr_->group_->running()) {
        for (int s : {from_, to_}) sr_->group_->run_on(s, [] {});
      }
    }
  } catch (...) {
  }
}

void ShardedRealization::Migration::quiesce(std::chrono::milliseconds timeout) {
  if (phase_ != 0) throw rt::RuntimeError("Migration::quiesce: wrong phase");
  // Tapped at ENTRY: this is the instant the decision to move struck,
  // which is where a replay re-applies it. transfer()/resume() tap at
  // completion, so successive frame timestamps carry the phase timings.
  replay::note_migration(static_cast<std::uint32_t>(section_), from_, to_,
                         replay::MigrationPhase::kQuiesce);
  ShardedRealization& sr = *sr_;
  {
    const std::lock_guard<std::mutex> lk(sr.ev_mu_);
    stop_posted_ = true;
    for (int s : {from_, to_}) {
      if (Realization* r = sr.reals_[static_cast<std::size_t>(s)].get())
        r->post_event_external(Event{kEventStop});
    }
  }
  const auto both_parked = [&] {
    return sr.shard_finished(from_) && sr.shard_finished(to_);
  };
  if (sr.group_->manual()) {
    // Deterministic drive: step every shard in lockstep at the current
    // (virtual) time until the stop has propagated. One step_until round
    // runs to quiescence, so a handful of rounds always suffices.
    for (int i = 0; i < 64 && !both_parked(); ++i) {
      rt::Time t = 0;
      for (int s = 0; s < sr.group_->size(); ++s) {
        t = std::max(t, sr.group_->runtime(s).now());
      }
      sr.group_->step_until(t);
    }
  } else {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!both_parked()) {
      if (std::chrono::steady_clock::now() >= deadline) {
        throw rt::RuntimeError(
            "Migration::quiesce: shards did not park within the timeout");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (!both_parked()) {
    throw rt::RuntimeError("Migration::quiesce: shards did not park");
  }
  phase_ = 1;
}

void ShardedRealization::Migration::transfer() {
  if (phase_ != 1) throw rt::RuntimeError("Migration::transfer: wrong phase");
  ShardedRealization& sr = *sr_;

  // 1. Detach the affected realizations. From this point events for these
  // shards queue in pending_.
  std::unique_ptr<Realization> old_from;
  std::unique_ptr<Realization> old_to;
  {
    const std::lock_guard<std::mutex> lk(sr.ev_mu_);
    sr.migrating_ = true;
    old_from = std::move(sr.reals_[static_cast<std::size_t>(from_)]);
    old_to = std::move(sr.reals_[static_cast<std::size_t>(to_)]);
  }
  // Destroy each on its own shard thread: the dtor kills parked ULTs (which
  // hold no items after the quiesce — everything sits in passive storage)
  // and unbinds the components so they can be realized again.
  if (old_from) {
    sr.run_on_shard(from_, [&old_from] { old_from.reset(); });
  }
  if (old_to) {
    sr.run_on_shard(to_, [&old_to] { old_to.reset(); });
  }

  // 2. Re-assign and re-cut.
  std::vector<int> assign;
  {
    const std::lock_guard<std::mutex> lk(sr.ev_mu_);
    sr.assign_[section_] = to_;
    assign = sr.assign_;
  }
  const std::vector<Partition::Cut> new_cuts = cuts_for(sr.plan_, assign);
  std::set<const Component*> still_cut;
  for (const Partition::Cut& c : new_cuts) still_cut.insert(c.buffer);

  // 2a. Persisting and collapsing cuts. Because only one section moved,
  // every changed cut touches the {from,to} pair — far ends keep flowing
  // and never notice (their bindings and waiter slots are untouched). A
  // collapsed cut's buffer is realized on `to_` as itself, its queue in
  // place; only its link and end adapters go.
  std::vector<const CutLink*> collapsed;
  for (const auto& link : sr.cuts_) {
    if (still_cut.count(link->buffer) == 0) {
      sr.remove_cut_collector(*link);
      collapsed.push_back(link.get());
      ++out_.cuts_collapsed;
      continue;
    }
    const Buffer& b = *link->buffer;
    if (b.from_shard() != assign[link->up_sec] ||
        b.to_shard() != assign[link->down_sec]) {
      sr.remove_cut_collector(*link);
      sr.bind_cut(*link);
      sr.add_cut_collector(*link);
      ++out_.cuts_rebound;
    }
  }

  // 2b. Created cuts: a buffer between two sections that used to share
  // `from_` and are now split. Its queue stays where it is; its ends bind
  // to the two shards.
  const std::map<const Component*, std::size_t> live = sr.live_cut_of();
  std::vector<std::unique_ptr<CutLink>> created;
  for (const Partition::Cut& cut : new_cuts) {
    if (live.count(cut.buffer) != 0) continue;
    created.push_back(sr.make_cut(cut));
    sr.bind_cut(*created.back());
    ++out_.cuts_created;
  }
  std::vector<CutLink*> fresh;
  {
    const std::lock_guard<std::mutex> lk(sr.ev_mu_);
    std::erase_if(sr.cuts_, [&collapsed](const auto& l) {
      return std::find(collapsed.begin(), collapsed.end(), l.get()) !=
             collapsed.end();
    });
    for (auto& link : created) {
      fresh.push_back(link.get());
      sr.cuts_.push_back(std::move(link));
    }
  }
  for (CutLink* link : fresh) sr.add_cut_collector(*link);

  // 3. Rebuild and re-realize exactly the affected shards (the cut-set
  // delta property above is what makes touching only two shards sound).
  sr.build_sub_pipes({from_, to_});
  sr.realize_shard(from_);
  sr.realize_shard(to_);

  // 4. Keep the published partition truthful for introspection.
  sr.part_.shard_of_section = assign;
  sr.part_.cuts = new_cuts;
  replay::note_migration(static_cast<std::uint32_t>(section_), from_, to_,
                         replay::MigrationPhase::kTransfer);
  phase_ = 2;
}

void ShardedRealization::Migration::resume() {
  if (phase_ != 2) throw rt::RuntimeError("Migration::resume: wrong phase");
  ShardedRealization& sr = *sr_;
  std::vector<PendingEvent> replay;
  {
    const std::lock_guard<std::mutex> lk(sr.ev_mu_);
    sr.migrating_ = false;
    replay.swap(sr.pending_);
    // Restart first, then replay: a queued event must observe the same
    // running flow it would have found had there been no migration. The
    // restart condition is the CURRENT started_, read under the lock — a
    // user stop() that arrived during the move already stopped the other
    // shards directly, and restarting these two would split the flow.
    if (sr.started_) {
      for (int s : {from_, to_}) {
        if (Realization* r = sr.reals_[static_cast<std::size_t>(s)].get())
          r->post_event_external(Event{kEventStart});
      }
    }
  }
  for (PendingEvent& pe : replay) {
    if (pe.target != nullptr) {
      sr.post_event_to_component(*pe.target, pe.event);
      continue;
    }
    const std::lock_guard<std::mutex> lk(sr.ev_mu_);
    if (Realization* r = sr.reals_[static_cast<std::size_t>(pe.shard)].get())
      r->post_event_external(pe.event);
  }
  // Barrier like start(): when resume() returns, the affected drivers have
  // dispatched their restart.
  if (sr.group_->running()) {
    for (int s : {from_, to_}) sr.group_->run_on(s, [] {});
  }
  sr.migrations_.fetch_add(1, std::memory_order_acq_rel);
  // Qualified: resume()'s pending-event vector is also named `replay`.
  infopipe::replay::note_migration(
      static_cast<std::uint32_t>(section_), from_, to_,
      infopipe::replay::MigrationPhase::kResume);
  phase_ = 3;
}

}  // namespace infopipe::shard
