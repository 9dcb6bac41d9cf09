#include "core/planner.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <optional>
#include <set>

#include "core/buffer.hpp"
#include "core/tee.hpp"

namespace infopipe {

namespace {

bool is_driver(const Component& c) {
  switch (c.style()) {
    case Style::kPump:
    case Style::kActiveSource:
    case Style::kActiveSink:
      return true;
    default:
      return false;
  }
}

bool is_boundary(const Component& c) {
  switch (c.style()) {
    case Style::kBuffer:
    case Style::kPassiveSource:
    case Style::kPassiveSink:
      return true;
    default:
      return false;
  }
}

/// Does this mid-pipeline component need a coroutine in the given mode?
/// (The Figure 9 rule.)
bool needs_coroutine(const Component& c, FlowMode m) {
  switch (c.style()) {
    case Style::kActive:
      return true;  // a main function always needs its own control flow
    case Style::kConsumer:
      return m == FlowMode::kPull;  // push-mode consumers are called directly
    case Style::kProducer:
      return m == FlowMode::kPush;  // pull-mode producers are called directly
    case Style::kFunction:
    case Style::kTee:
      return false;  // trivially adapted glue in either mode
    default:
      return false;  // drivers/boundaries never appear as section members
  }
}

class PlannerImpl {
 public:
  explicit PlannerImpl(const Pipeline& p) : pipe_(p) {}

  Plan run() {
    validate_ports_connected();
    collect_drivers();
    for (Driver* d : drivers_) walk_section(*d);
    validate_everything_driven();
    validate_control_capabilities();
    propagate_typespecs();
    return std::move(plan_);
  }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    throw CompositionError(msg);
  }

  void validate_ports_connected() {
    for (Component* c : pipe_.components()) {
      for (int i = 0; i < c->in_port_count(); ++i) {
        if (pipe_.edge_into(*c, i) == nullptr) {
          fail(c->name() + ": in-port " + std::to_string(i) +
               " is unconnected");
        }
      }
      for (int i = 0; i < c->out_port_count(); ++i) {
        if (pipe_.edge_from(*c, i) == nullptr) {
          fail(c->name() + ": out-port " + std::to_string(i) +
               " is unconnected");
        }
      }
    }
  }

  void collect_drivers() {
    for (Component* c : pipe_.components()) {
      if (is_driver(*c)) drivers_.push_back(static_cast<Driver*>(c));
    }
    if (drivers_.empty() && !pipe_.components().empty()) {
      fail("pipeline has no pump, active source or active sink: nothing can "
           "drive the flow");
    }
  }

  void set_edge_mode(const Edge* e, FlowMode m) {
    auto [it, inserted] = plan_.edge_mode.emplace(e, m);
    if (!inserted && it->second != m) {
      fail("conflicting flow modes on the connection " + e->from->name() +
           " -> " + e->to->name() +
           ": two drivers operate it; insert a buffer between them");
    }
  }

  void note_visit(Component& c, Driver& d, FlowMode m, bool shared) {
    auto it = visited_by_.find(&c);
    if (it != visited_by_.end()) {
      if (it->second == &d) {
        fail("cycle detected at component " + c.name());
      }
      if (!shared) {
        fail("component " + c.name() + " is driven by both " +
             it->second->name() + " and " + d.name() +
             ": insert a buffer between the two sections");
      }
      return;  // shared region, already a member of the first section
    }
    visited_by_.emplace(&c, &d);
    current_section_->members.push_back(
        Plan::Hosted{&c, m, needs_coroutine(c, m), shared});
  }

  void walk_section(Driver& d) {
    plan_.sections.push_back(Plan::Section{&d, {}});
    current_section_ = &plan_.sections.back();
    visited_by_.emplace(&d, &d);
    for (int port = 0; port < d.out_port_count(); ++port) {
      walk_push(pipe_.edge_from(d, port), d, /*shared=*/false);
    }
    for (int port = 0; port < d.in_port_count(); ++port) {
      walk_pull(pipe_.edge_into(d, port), d, /*shared=*/false);
    }
  }

  /// Walk downstream in push mode, starting from edge `e`.
  void walk_push(const Edge* e, Driver& d, bool shared) {
    set_edge_mode(e, FlowMode::kPush);
    Component& c = *e->to;
    if (is_boundary(c)) return;  // buffer or passive sink: section ends
    if (is_driver(c)) {
      fail("driver " + c.name() + " is pushed into by driver " + d.name() +
           ": two active ends collide; insert a buffer between them");
    }
    if (auto* merge = dynamic_cast<MergeTee*>(&c)) {
      // Several drivers push into a merge; the tail beyond it is shared.
      const bool first = merged_continued_.insert(merge).second;
      note_visit(c, d, FlowMode::kPush, /*shared=*/true);
      if (first) {
        walk_push(pipe_.edge_from(c, 0), d, /*shared=*/true);
      }
      return;
    }
    if (dynamic_cast<CombineTee*>(&c) != nullptr ||
        dynamic_cast<BalancingSwitch*>(&c) != nullptr) {
      fail(c.name() + " (" + to_string(c.style()) +
           ") cannot operate in push mode (its in-ports are active)");
    }
    note_visit(c, d, FlowMode::kPush, shared);
    for (int port = 0; port < c.out_port_count(); ++port) {
      walk_push(pipe_.edge_from(c, port), d, shared);
    }
  }

  /// Walk upstream in pull mode, starting from edge `e`.
  void walk_pull(const Edge* e, Driver& d, bool shared) {
    set_edge_mode(e, FlowMode::kPull);
    Component& c = *e->from;
    if (is_boundary(c)) return;  // buffer or passive source: section ends
    if (is_driver(c)) {
      fail("driver " + c.name() + " is pulled from by driver " + d.name() +
           ": two active ends collide; insert a buffer between them");
    }
    if (auto* bal = dynamic_cast<BalancingSwitch*>(&c)) {
      // Several drivers pull through the switch; upstream of it is shared.
      const bool first = merged_continued_.insert(bal).second;
      note_visit(c, d, FlowMode::kPull, /*shared=*/true);
      if (first) {
        walk_pull(pipe_.edge_into(c, 0), d, /*shared=*/true);
      }
      return;
    }
    if (dynamic_cast<MergeTee*>(&c) != nullptr ||
        dynamic_cast<MulticastTee*>(&c) != nullptr ||
        dynamic_cast<RoutingSwitch*>(&c) != nullptr) {
      fail(c.name() + " (" + to_string(c.style()) +
           ") cannot operate in pull mode: suspending pulls on its passive "
           "ports would require unbounded implicit buffering");
    }
    note_visit(c, d, FlowMode::kPull, shared);
    for (int port = 0; port < c.in_port_count(); ++port) {
      walk_pull(pipe_.edge_into(c, port), d, shared);
    }
  }

  void validate_everything_driven() {
    for (Component* c : pipe_.components()) {
      if (is_boundary(*c)) continue;
      if (visited_by_.find(c) == visited_by_.end()) {
        fail("component " + c->name() +
             " is not operated by any pump: no driver reaches it");
      }
    }
    // Boundaries need their edges operated too (a buffer nobody drains is a
    // dead end; so is a source nobody pulls).
    for (const Edge& e : pipe_.edges()) {
      if (plan_.edge_mode.find(&e) == plan_.edge_mode.end()) {
        fail("the connection " + e.from->name() + " -> " + e.to->name() +
             " is not operated by any pump (a section without a driver)");
      }
    }
  }

  /// §2.3: every control capability a component REQUIRES must be emitted
  /// by some component of the pipeline, or the pipeline is inoperable
  /// (e.g. a resizer that never learns the window size).
  void validate_control_capabilities() {
    StringSet emitted;
    for (Component* c : pipe_.components()) {
      for (const std::string& e : c->control_emits()) emitted.insert(e);
    }
    for (Component* c : pipe_.components()) {
      for (const std::string& need : c->control_requires()) {
        if (emitted.count(need) == 0) {
          fail("component " + c->name() + " requires control events '" +
               need + "' but nothing in the pipeline emits them");
        }
      }
    }
  }

  void propagate_typespecs() {
    // Topological order over the (acyclic) component graph.
    std::map<const Component*, int> indegree;
    for (Component* c : pipe_.components()) indegree[c] = c->in_port_count();
    std::deque<Component*> q;
    for (Component* c : pipe_.components()) {
      if (indegree[c] == 0) q.push_back(c);
    }
    std::map<const Component*, Typespec> in_merged;
    std::size_t processed = 0;
    while (!q.empty()) {
      Component* c = q.front();
      q.pop_front();
      ++processed;
      const Typespec in = in_merged.count(c) ? in_merged[c] : Typespec{};
      for (int port = 0; port < c->out_port_count(); ++port) {
        const Edge* e = pipe_.edge_from(*c, port);
        Typespec out = c->transform_downstream(in, 0, port);
        // Check against the consumer's stated requirement.
        const Typespec need = e->to->input_requirement(e->in_port);
        auto merged = out.intersect(need);
        if (!merged) {
          fail("flow type error on " + c->name() + " -> " + e->to->name() +
               ": offered " + out.to_string() + " but required " +
               need.to_string());
        }
        // User preferences (§2.3) further restrict the flow at this port.
        if (const Typespec* pref = pipe_.restriction(*e->to, e->in_port)) {
          auto preferred = merged->intersect(*pref);
          if (!preferred) {
            fail("user preference on " + e->to->name() + " (" +
                 pref->to_string() + ") cannot be satisfied by the flow " +
                 merged->to_string());
          }
          merged = preferred;
        }
        plan_.edge_spec[e] = *merged;
        // Merge into the consumer's input view (multi-input components see
        // the intersection of their input flows).
        auto it = in_merged.find(e->to);
        if (it == in_merged.end()) {
          in_merged[e->to] = *merged;
        } else {
          auto both = it->second.intersect(*merged);
          if (!both) {
            fail("incompatible flows meet at " + e->to->name());
          }
          it->second = *both;
        }
        if (--indegree[e->to] == 0) q.push_back(e->to);
      }
    }
    if (processed != pipe_.components().size()) {
      fail("pipeline graph contains a cycle");
    }
  }

  const Pipeline& pipe_;
  Plan plan_;
  std::vector<Driver*> drivers_;
  std::map<const Component*, Driver*> visited_by_;
  std::set<const Component*> merged_continued_;
  Plan::Section* current_section_ = nullptr;
};

}  // namespace

Plan plan(const Pipeline& p) { return PlannerImpl(p).run(); }

// ---- Multi-core sharding (ip_shard) -----------------------------------------

int Partition::shard_of(const Plan& plan, const Component& c) const {
  for (std::size_t i = 0; i < plan.sections.size(); ++i) {
    const Plan::Section& s = plan.sections[i];
    if (s.driver == &c) return shard_of_section[i];
    for (const Plan::Hosted& h : s.members) {
      if (h.comp == &c) return shard_of_section[i];
    }
  }
  return -1;
}

std::vector<int> Partition::threads_per_shard(const Plan& plan) const {
  std::vector<int> out(static_cast<std::size_t>(n_shards), 0);
  for (std::size_t i = 0; i < plan.sections.size(); ++i) {
    out[static_cast<std::size_t>(shard_of_section[i])] +=
        plan.sections[i].thread_count();
  }
  return out;
}

Partition partition(
    const Plan& plan, int n_shards,
    const std::vector<std::pair<const Component*, const Component*>>&
        colocate) {
  Partition part;
  part.n_shards = std::max(1, n_shards);
  const std::size_t ns = plan.sections.size();
  part.shard_of_section.assign(ns, 0);
  if (ns == 0) return part;

  // Section of every driver and member. Shared components (merge tails /
  // balance heads) are listed in one section; the edges below pull their
  // other neighbours into the same cluster anyway.
  std::map<const Component*, std::size_t> section_of;
  for (std::size_t i = 0; i < ns; ++i) {
    section_of.emplace(plan.sections[i].driver, i);
    for (const Plan::Hosted& h : plan.sections[i].members) {
      section_of.emplace(h.comp, i);
    }
  }

  // Union-find over sections.
  std::vector<std::size_t> parent(ns);
  for (std::size_t i = 0; i < ns; ++i) parent[i] = i;
  auto find = [&parent](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  auto unite = [&](std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };

  // An edge with both endpoints inside sections but in *different* sections
  // crosses a shared region (a pump feeding a MergeTee in another driver's
  // section, a BalancingSwitch feeding another pump). Such sections share a
  // SectionLock and must land on one shard; only buffer boundaries — where
  // one endpoint is outside every section — may be cut.
  for (const auto& [e, mode] : plan.edge_mode) {
    (void)mode;
    auto a = section_of.find(e->from);
    auto b = section_of.find(e->to);
    if (a != section_of.end() && b != section_of.end() &&
        a->second != b->second) {
      unite(a->second, b->second);
    }
  }
  for (const auto& [c1, c2] : colocate) {
    auto a = section_of.find(c1);
    auto b = section_of.find(c2);
    if (a != section_of.end() && b != section_of.end()) {
      unite(a->second, b->second);
    }
  }

  // Clusters in order of their lowest section index — a union-find root is
  // always its set's lowest index — weighted by thread count.
  std::vector<PlaceItem> clusters;
  std::vector<std::size_t> cluster_of(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    const std::size_t root = find(i);
    if (root == i) clusters.emplace_back();
    cluster_of[i] = root == i ? clusters.size() - 1 : cluster_of[root];
    clusters[cluster_of[i]].weight += plan.sections[i].thread_count();
  }
  std::vector<int> shards(static_cast<std::size_t>(part.n_shards));
  std::iota(shards.begin(), shards.end(), 0);
  const Placement placed = place(clusters, shards);
  for (std::size_t i = 0; i < ns; ++i) {
    part.shard_of_section[i] = placed.shard[cluster_of[i]];
  }

  part.cuts = cuts_for(plan, part.shard_of_section);

  // Migratability: a section may move alone only if its cluster is itself
  // (shared regions and colocation constraints move as a unit, which single-
  // section migration cannot do) and no hosted component is tied to an
  // external resource.
  part.migratable_section.assign(ns, 1);
  std::vector<int> cluster_size(clusters.size(), 0);
  for (const std::size_t c : cluster_of) ++cluster_size[c];
  for (std::size_t i = 0; i < ns; ++i) {
    if (cluster_size[cluster_of[i]] > 1) part.migratable_section[i] = 0;
    if (!plan.sections[i].driver->migratable()) part.migratable_section[i] = 0;
    for (const Plan::Hosted& h : plan.sections[i].members) {
      if (!h.comp->migratable()) part.migratable_section[i] = 0;
    }
  }
  return part;
}

Placement place(const std::vector<PlaceItem>& items,
                const std::vector<int>& candidates) {
  // Slack for load comparisons: placement stability is worth a rounding
  // error, never a real hot spot.
  constexpr double kEps = 1e-9;
  Placement out;
  out.shard.reserve(items.size());
  for (const PlaceItem& it : items) out.shard.push_back(it.home);
  out.load.assign(candidates.size(), 0.0);
  if (candidates.empty()) return out;

  // Every bin decision below speaks candidate positions, never shard ids.
  auto pos_of = [&candidates](int shard) -> int {
    const auto it = std::find(candidates.begin(), candidates.end(), shard);
    return it == candidates.end() ? -1
                                  : static_cast<int>(it - candidates.begin());
  };
  std::vector<double>& bin = out.load;

  // Immobile items preload their homes; one homed outside the candidates
  // cannot be placed at all.
  std::vector<std::size_t> mobile;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].movable) {
      mobile.push_back(i);
    } else if (const int p = pos_of(items[i].home); p >= 0) {
      bin[static_cast<std::size_t>(p)] += items[i].weight;
    } else {
      out.feasible = false;
    }
  }

  // LPT: heaviest first onto the lightest bin; ties by position.
  std::stable_sort(mobile.begin(), mobile.end(),
                   [&items](std::size_t a, std::size_t b) {
                     return items[a].weight > items[b].weight;
                   });
  for (const std::size_t i : mobile) {
    std::size_t best = 0;
    for (std::size_t k = 1; k < bin.size(); ++k) {
      if (bin[k] < bin[best] - kEps) best = k;
    }
    bin[best] += items[i].weight;
    out.shard[i] = candidates[best];
  }
  const double makespan = *std::max_element(bin.begin(), bin.end());

  // Sticky pass: a displaced item returns home whenever home stays within
  // the LPT makespan — the move would have bought nothing.
  for (const std::size_t i : mobile) {
    const int hp = pos_of(items[i].home);
    if (out.shard[i] == items[i].home || hp < 0) continue;
    const auto h = static_cast<std::size_t>(hp);
    if (bin[h] + items[i].weight <= makespan + kEps) {
      bin[static_cast<std::size_t>(pos_of(out.shard[i]))] -= items[i].weight;
      bin[h] += items[i].weight;
      out.shard[i] = items[i].home;
    }
  }
  return out;
}

std::vector<Partition::Cut> cuts_for(
    const Plan& plan, const std::vector<int>& shard_of_section) {
  std::map<const Component*, std::size_t> section_of;
  for (std::size_t i = 0; i < plan.sections.size(); ++i) {
    section_of.emplace(plan.sections[i].driver, i);
    for (const Plan::Hosted& h : plan.sections[i].members) {
      section_of.emplace(h.comp, i);
    }
  }
  // Boundary components (outside every section — i.e. buffers) whose
  // upstream and downstream sections sit on different shards.
  struct Sides {
    std::optional<std::size_t> up, down;
  };
  std::map<Component*, Sides> boundaries;
  for (const auto& [e, mode] : plan.edge_mode) {
    (void)mode;
    if (section_of.count(e->to) == 0) {
      if (auto a = section_of.find(e->from); a != section_of.end()) {
        boundaries[e->to].up = a->second;
      }
    }
    if (section_of.count(e->from) == 0) {
      if (auto b = section_of.find(e->to); b != section_of.end()) {
        boundaries[e->from].down = b->second;
      }
    }
  }
  std::vector<Partition::Cut> cuts;
  for (const auto& [comp, sides] : boundaries) {
    if (!sides.up || !sides.down) continue;  // passive endpoint, one side
    const int su = shard_of_section.at(*sides.up);
    const int sd = shard_of_section.at(*sides.down);
    if (su != sd) {
      cuts.push_back(Partition::Cut{comp, *sides.up, *sides.down});
    }
  }
  // The map above is keyed by pointer; re-order by section index so the cut
  // list (and thus channel naming downstream) is deterministic run to run.
  std::sort(cuts.begin(), cuts.end(),
            [](const Partition::Cut& a, const Partition::Cut& b) {
              return a.upstream_section != b.upstream_section
                         ? a.upstream_section < b.upstream_section
                         : a.downstream_section < b.downstream_section;
            });
  return cuts;
}

}  // namespace infopipe
