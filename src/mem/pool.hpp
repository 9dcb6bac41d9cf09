// Per-runtime payload pools (ip_mem).
//
// Every rt::Runtime owns one Pool; the runtime makes it the thread's
// *current* pool (PoolScope) for the duration of its scheduling loop, so
// Item::of running inside any user-level thread allocates from the pool of
// the runtime hosting it — no context argument threads through the item
// path. Off-runtime code (tests, setup) falls back to the shared global
// pool.
//
// Threading contract:
//   * acquire() runs only on the pool's owner thread — the kernel thread
//     that currently has it installed as PoolScope current. A runtime runs
//     on one kernel thread at a time, so the free lists need no locks.
//     (The global pool is the exception: it is `shared` and takes a mutex.)
//   * return_block() runs on ANY thread, because the last PayloadRef to a
//     block can die anywhere — typically on the consumer shard of a cut
//     buffer. Three cases:
//       - releasing thread owns this pool     -> push to the free list;
//       - foreign thread, owner stash bounded -> lock-free MPSC return
//         stack, drained by the owner on its next free-list miss;
//       - stash full or owner detached        -> the block is ADOPTED by the
//         releasing thread's own pool (home pointer rewritten) — this is
//         what makes cross-shard recycling settle on the consumer's pool
//         instead of growing an unbounded return queue.
//
// Pools created through Pool::create() are immortal (registered in a leaked
// global list, detached — never destroyed — when their runtime dies), so a
// payload outliving its runtime can still return its block somewhere safe.
//
// Slabs are allocated NUMA-node-aware (mem/numa.hpp): ShardGroup points
// each shard's pool at the node its kernel thread is pinned to, so recycled
// blocks — which gravitate to the consumer side — stay node-local to the
// code touching them.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mem/block.hpp"
#include "mem/numa.hpp"

namespace infopipe::mem {

class Pool {
 public:
  /// Allocation/recycling counters (relaxed atomics; safe to sample from
  /// any thread). hits+misses == acquires; a hit costs no allocator call.
  struct Stats {
    std::uint64_t hits = 0;          ///< served from a free list
    std::uint64_t misses = 0;        ///< carved from a slab / heap
    std::uint64_t recycled = 0;      ///< returned on the owner thread
    std::uint64_t foreign_returned = 0;  ///< returned via the owner stash
    std::uint64_t foreign_adopted = 0;   ///< adopted from another pool
    std::uint64_t oversize = 0;      ///< above the largest class (unpooled)
    std::uint64_t slab_bytes = 0;    ///< total slab storage owned
  };

  /// `shared` pools serialize every operation on an internal mutex and may
  /// be used from any thread (the global pool); per-runtime pools are not
  /// shared and rely on the threading contract above.
  explicit Pool(std::string name = {}, bool shared = false);

  /// Destroying a pool requires every block it ever handed out to be dead
  /// or adopted elsewhere; prefer create() for pools whose payloads can
  /// escape (per-runtime pools are created that way and never destroyed).
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// An immortal pool: registered in a process-lifetime list (so its slabs
  /// and parked blocks stay reachable — clean under LeakSanitizer) and
  /// never destroyed.
  [[nodiscard]] static Pool& create(std::string name);

  /// The calling thread's current pool (innermost PoolScope), or nullptr.
  [[nodiscard]] static Pool* current() noexcept;

  /// Shared fallback pool for off-runtime allocation. Immortal.
  [[nodiscard]] static Pool& global();

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Node future slabs are bound to (< 0: no preference). Existing slabs
  /// are not moved.
  void set_numa_node(int node) noexcept {
    numa_node_.store(node, std::memory_order_relaxed);
  }
  [[nodiscard]] int numa_node() const noexcept {
    return numa_node_.load(std::memory_order_relaxed);
  }

  /// Marks the owner gone: foreign returns stop targeting the stash (they
  /// adopt instead). Called by the owning runtime's destructor.
  void detach() noexcept {
    detached_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool detached() const noexcept {
    return detached_.load(std::memory_order_acquire);
  }

  /// A zeroed-header block with >= payload_bytes of payload capacity. Owner
  /// thread only (any thread for shared pools). The caller fills type/
  /// destroy/used and the refcount before wrapping it in a PayloadRef.
  [[nodiscard]] BlockHeader* acquire(std::size_t payload_bytes);

  /// Returns a block whose payload has already been destroyed. Any thread;
  /// normally reached through release_block().
  void return_block(BlockHeader* h) noexcept;

  [[nodiscard]] Stats stats() const noexcept;

 private:
  friend void release_block(BlockHeader* h) noexcept;

  BlockHeader* carve(std::uint32_t cls);
  void park(BlockHeader* h) noexcept;     // push to free list (owner/locked)
  void drain_foreign() noexcept;          // stash -> free lists (owner/locked)
  void adopt_foreign(BlockHeader* h) noexcept;

  std::string name_;
  const bool shared_;
  std::mutex mutex_;  ///< taken only when shared_
  std::atomic<int> numa_node_{-1};
  std::atomic<bool> detached_{false};

  std::vector<BlockHeader*> free_;  ///< head per size class (next_free links)
  std::vector<NumaBlock> slabs_;
  char* slab_cur_ = nullptr;
  std::size_t slab_left_ = 0;

  std::atomic<BlockHeader*> foreign_head_{nullptr};  ///< MPSC return stash
  std::atomic<std::uint32_t> foreign_depth_{0};

  struct {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> recycled{0};
    std::atomic<std::uint64_t> foreign_returned{0};
    std::atomic<std::uint64_t> foreign_adopted{0};
    std::atomic<std::uint64_t> oversize{0};
    std::atomic<std::uint64_t> slab_bytes{0};
  } stats_;
};

/// RAII: installs `p` as the calling thread's current pool. The runtime
/// wraps its scheduling loop in one of these, next to its active-runtime
/// scope.
class PoolScope {
 public:
  explicit PoolScope(Pool* p) noexcept;
  ~PoolScope();
  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  Pool* prev_;
};

/// The pool Item::of allocates from: the thread's current pool, else global.
[[nodiscard]] Pool& active_pool() noexcept;

/// A typed payload block holding `value`, refcount 1.
template <typename T>
[[nodiscard]] PayloadRef make_typed(T value) {
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "over-aligned payload types are not supported as item "
                "payloads");
  BlockHeader* h = active_pool().acquire(sizeof(T));
  try {
    ::new (block_payload(h)) T(std::move(value));
  } catch (...) {
    release_block(h);  // no payload constructed: plain return to the pool
    throw;
  }
  h->used = static_cast<std::uint32_t>(sizeof(T));
  h->type = &typeid(T);
  if constexpr (!std::is_trivially_destructible_v<T>) {
    h->destroy = [](void* q) noexcept { static_cast<T*>(q)->~T(); };
  }
  h->refs.store(1, std::memory_order_relaxed);
  return PayloadRef::adopt(h);
}

/// A raw-bytes payload block of `n` bytes, refcount 1, written in place by
/// `fill(std::uint8_t* out)`, which must set all n bytes (a recycled block
/// holds stale data). The pool hands back a class-rounded block, so
/// successive wire messages of similar size reuse the same storage instead
/// of running vector's grow dance.
template <typename Fill>
[[nodiscard]] PayloadRef make_bytes(std::size_t n, Fill&& fill) {
  BlockHeader* h = active_pool().acquire(n);
  try {
    fill(static_cast<std::uint8_t*>(block_payload(h)));
  } catch (...) {
    release_block(h);
    throw;
  }
  h->used = static_cast<std::uint32_t>(n);
  h->type = &typeid(Bytes);
  h->refs.store(1, std::memory_order_relaxed);
  return PayloadRef::adopt(h);
}

/// A raw-bytes payload block holding a copy of [data, data + n).
[[nodiscard]] inline PayloadRef make_bytes(const void* data, std::size_t n) {
  return make_bytes(n, [&](std::uint8_t* out) {
    if (n != 0) std::memcpy(out, data, n);
  });
}

}  // namespace infopipe::mem
