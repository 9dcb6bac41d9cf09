// Buffers: temporary storage that removes rate fluctuations (§2.1).
//
// A buffer has two passive ends and is therefore a *section boundary*: the
// upstream section's driver pushes into it and the downstream section's
// driver pulls out of it, each on its own thread. §2.3: "if a buffer is
// full, the push operation can either be blocked or can drop the pushed
// item. Likewise, if a buffer is empty, a pull operation can either be
// blocked or return a nil item." Blocking is implemented with the
// middleware's rendezvous (HostContext::await): a waiter is listed, parked
// and unparked when it is taken off the list, and stays responsive to
// control events meanwhile (§3.2) — no locks or condition variables appear
// here or anywhere in component code.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "core/component.hpp"
#include "rt/types.hpp"

namespace infopipe {

namespace obs {
class Histogram;
}  // namespace obs
namespace rt {
class Runtime;
}  // namespace rt

class HostContext;

enum class FullPolicy {
  kBlock,       ///< block the pushing thread until space is available
  kDropNewest,  ///< drop the pushed item
  kDropOldest,  ///< drop the oldest queued item to make room
};

enum class EmptyPolicy {
  kBlock,  ///< block the pulling thread until an item arrives
  kNil,    ///< return Item::nil()
};

class Buffer : public Component {
 public:
  Buffer(std::string name, std::size_t capacity,
         FullPolicy full = FullPolicy::kBlock,
         EmptyPolicy empty = EmptyPolicy::kBlock);

  [[nodiscard]] Style style() const override { return Style::kBuffer; }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t fill() const noexcept { return q_.size(); }
  [[nodiscard]] FullPolicy full_policy() const noexcept { return full_; }
  [[nodiscard]] EmptyPolicy empty_policy() const noexcept { return empty_; }

  struct Stats {
    std::uint64_t puts = 0;
    std::uint64_t takes = 0;
    std::uint64_t drops = 0;       ///< items lost to the full policy
    std::uint64_t nil_returns = 0; ///< empty pulls under the nil policy
    std::uint64_t put_blocks = 0;  ///< times a pusher had to wait
    std::uint64_t take_blocks = 0; ///< times a puller had to wait
    std::size_t max_fill = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  // -- middleware interface (called by the glue, not by applications) --------

  /// Insert one item: put_span() of a one-item span, so every item takes
  /// the same path whatever the burst size. An EOS item sets the sticky
  /// end-of-stream flag instead of occupying space.
  void put(Item x, HostContext& host);

  /// Remove one item: take_span() into a one-item span. Returns Item::eos()
  /// once drained past end-of-stream, Item::nil() on empty under the nil
  /// policy.
  [[nodiscard]] Item take(HostContext& host);

  /// Insert a burst with ONE policy/stats decision per burst instead of one
  /// per item, honouring the full policy. The end state is
  /// sequential-equivalent to one-item puts: kDropNewest drops the part
  /// that does not fit, kDropOldest keeps the newest `capacity` items of
  /// (queue ++ xs) — which may mean dropping a PREFIX of the span itself,
  /// counted as puts and drops like any evicted item — and kBlock waits for
  /// space (burst-wise: one put_blocks tick per wait, puts counted once),
  /// or accepts the burst past capacity when the flow was stopped
  /// meanwhile. Items of `xs` that are dropped are reset to nil at the drop,
  /// so their payloads die there and not with the caller's span.
  void put_span(ItemSpan xs, HostContext& host);

  /// Move up to out.size() queued items into `out` and return how many,
  /// with one stats decision per burst, honouring the empty policy. A burst
  /// never crosses the end of the queued data into a special: an empty
  /// buffer yields a single Item::eos() (drained past end-of-stream) or
  /// Item::nil() (nil policy) at out[0].
  [[nodiscard]] std::size_t take_span(ItemSpan out, HostContext& host);

  /// Discard queued items (kEventFlush does this).
  void handle_event(const Event& e) override;

  // -- migration hooks (ip_balance; called only while the adjacent sections
  // are quiesced, so no waiter can race) -------------------------------------

  /// Move out every queued item. Counted as takes so the documented
  /// `fill == puts - takes` invariant survives the migration.
  [[nodiscard]] std::deque<Item> drain_for_migration();
  /// Insert an item carried over from a collapsed cross-shard channel.
  /// Counted as a put; may exceed capacity transiently (like the stopped-
  /// flow overflow in put_span()) — the drain recovers once the flow
  /// restarts.
  void preload(Item x);
  [[nodiscard]] bool saw_eos() const noexcept { return eos_; }
  void mark_eos() noexcept { eos_ = true; }

 private:
  /// Queued items: a power-of-two ring that grows only when full, so the
  /// stopped-flow overflow and preload() may exceed capacity while a steady
  /// flow allocates nothing.
  class Ring {
   public:
    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
    void push_back(Item x) {
      if (n_ == slots_.size()) grow();
      slots_[(head_ + n_++) & (slots_.size() - 1)] = std::move(x);
    }
    Item pop_front() noexcept {
      Item x = std::move(slots_[head_]);
      head_ = (head_ + 1) & (slots_.size() - 1);
      --n_;
      return x;
    }
    void clear() noexcept {
      while (n_ > 0) (void)pop_front();
    }

   private:
    void grow();
    std::vector<Item> slots_;
    std::size_t head_ = 0;
    std::size_t n_ = 0;
  };

  /// Takes the first waiter off `waiters` and unparks it.
  static void notify_one(std::vector<rt::ThreadId>& waiters, rt::Runtime& rt);

  /// Lists this thread in `waiters` and parks it until a notify_one() takes
  /// it off, or a control event arrives (then it is taken off here).
  void await_notify(std::vector<rt::ThreadId>& waiters, HostContext& host);

  /// Block-time histogram handle, resolved lazily on the (already slow)
  /// block path and re-resolved when the buffer is realized under a
  /// different runtime.
  obs::Histogram* block_hist(HostContext& host);

  std::size_t capacity_;
  FullPolicy full_;
  EmptyPolicy empty_;
  Ring q_;
  bool eos_ = false;
  std::vector<rt::ThreadId> waiting_readers_;
  std::vector<rt::ThreadId> waiting_writers_;
  Stats stats_;
  obs::Histogram* obs_block_ns_ = nullptr;
  const void* obs_owner_ = nullptr;  ///< runtime the cached handle belongs to
};

}  // namespace infopipe
