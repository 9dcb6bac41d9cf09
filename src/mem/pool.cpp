#include "mem/pool.hpp"

// Manual ASan poisoning: a parked block's payload is off-limits until the
// pool hands it out again, and we want a stale PayloadRef dereference to
// fault under the Sanitize build exactly like a heap-use-after-free would.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IP_MEM_ASAN 1
#endif
#endif
#if !defined(IP_MEM_ASAN) && defined(__SANITIZE_ADDRESS__)
#define IP_MEM_ASAN 1
#endif

#ifdef IP_MEM_ASAN
#include <sanitizer/asan_interface.h>
#define IP_MEM_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define IP_MEM_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define IP_MEM_POISON(p, n) ((void)0)
#define IP_MEM_UNPOISON(p, n) ((void)0)
#endif

#include "replay/hooks.hpp"

namespace infopipe::mem {

namespace {

/// Payload capacities per size class. Multiples of the header alignment so
/// carving a slab keeps every header aligned; 64 bytes minimum puts header
/// + payload of the common small items inside two cache lines.
constexpr std::uint32_t kClassCap[] = {64, 128, 256, 512, 1024, 2048, 4096};
constexpr std::uint32_t kNumClasses =
    static_cast<std::uint32_t>(sizeof(kClassCap) / sizeof(kClassCap[0]));
constexpr std::uint32_t kOversizeClass = ~std::uint32_t{0};

constexpr std::size_t kSlabBytes = 64 * 1024;

/// How many blocks a foreign thread may park in an owner's return stash
/// before releases start adopting instead. Bounds the memory one direction
/// of a producer->consumer flow can strand on the producer's pool.
constexpr std::uint32_t kForeignBound = 256;

std::uint32_t class_for(std::size_t payload_bytes) {
  for (std::uint32_t c = 0; c < kNumClasses; ++c) {
    if (payload_bytes <= kClassCap[c]) return c;
  }
  return kOversizeClass;
}

thread_local Pool* t_current_pool = nullptr;

}  // namespace

// ---- lifecycle --------------------------------------------------------------

Pool::Pool(std::string name, bool shared)
    : name_(std::move(name)), shared_(shared), free_(kNumClasses, nullptr) {}

Pool::~Pool() {
  for (NumaBlock& s : slabs_) numa_free(s);
}

Pool& Pool::create(std::string name) {
  // The registry is deliberately leaked: it is the LSan root that keeps
  // immortal pools (and every block parked in them) reachable.
  static std::mutex* reg_mu = new std::mutex;
  static std::vector<Pool*>* reg = new std::vector<Pool*>;
  auto* p = new Pool(std::move(name));
  const std::lock_guard<std::mutex> lk(*reg_mu);
  reg->push_back(p);
  return *p;
}

Pool* Pool::current() noexcept { return t_current_pool; }

Pool& Pool::global() {
  static Pool* g = new Pool("global", /*shared=*/true);
  return *g;
}

PoolScope::PoolScope(Pool* p) noexcept : prev_(t_current_pool) {
  t_current_pool = p;
}
PoolScope::~PoolScope() { t_current_pool = prev_; }

Pool& active_pool() noexcept {
  Pool* p = Pool::current();
  return p != nullptr ? *p : Pool::global();
}

// ---- acquire ----------------------------------------------------------------

BlockHeader* Pool::acquire(std::size_t payload_bytes) {
  const std::uint32_t cls = class_for(payload_bytes);
  if (cls == kOversizeClass) {
    // Above the largest class: a plain heap block with no home pool; the
    // last release frees it. Not rare for media: about 19% of encoded
    // tcp_video frames exceed 4096 B (I-frames are 9.6-14.4 KB, and many
    // P-frames pass 4 KB too), and each frame is made twice (marshal, then
    // the receive copy), so mem.miss_per_item reads 0.39 there. Classes up
    // to 16 KiB cut those misses but raised that workload's peak RSS by
    // about 10% (parked large blocks), so they are not taken.
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    stats_.oversize.fetch_add(1, std::memory_order_relaxed);
    void* raw = ::operator new(sizeof(BlockHeader) + payload_bytes);
    auto* h = ::new (raw) BlockHeader{};
    h->capacity = static_cast<std::uint32_t>(payload_bytes);
    h->size_class = kOversizeClass;
    h->home = nullptr;
    return h;
  }

  std::unique_lock<std::mutex> lk(mutex_, std::defer_lock);
  if (shared_) lk.lock();

  BlockHeader* h = free_[cls];
  if (h == nullptr) {
    drain_foreign();
    h = free_[cls];
  }
  if (h != nullptr) {
    free_[cls] = h->next_free;
    IP_MEM_UNPOISON(block_payload(h), h->capacity);
    stats_.hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    h = carve(cls);
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
  }
  h->type = nullptr;
  h->destroy = nullptr;
  h->used = 0;
  h->refs.store(0, std::memory_order_relaxed);
  return h;
}

BlockHeader* Pool::carve(std::uint32_t cls) {
  const std::size_t need = sizeof(BlockHeader) + kClassCap[cls];
  if (slab_left_ < need) {
    NumaBlock slab =
        numa_alloc(kSlabBytes, numa_node_.load(std::memory_order_relaxed));
    slab_cur_ = static_cast<char*>(slab.ptr);
    slab_left_ = slab.bytes;
    stats_.slab_bytes.fetch_add(slab.bytes, std::memory_order_relaxed);
    slabs_.push_back(slab);
  }
  auto* h = ::new (static_cast<void*>(slab_cur_)) BlockHeader{};
  slab_cur_ += need;
  slab_left_ -= need;
  h->capacity = kClassCap[cls];
  h->size_class = cls;
  h->home = this;
  return h;
}

// ---- release ----------------------------------------------------------------

void release_block(BlockHeader* h) noexcept {
  if (h->destroy != nullptr) {
    h->destroy(block_payload(h));
    h->destroy = nullptr;
  }
  h->type = nullptr;
  Pool* home = h->home;
  if (home == nullptr) {
    h->~BlockHeader();
    ::operator delete(h);
    return;
  }
  home->return_block(h);
}

void Pool::park(BlockHeader* h) noexcept {
  IP_MEM_POISON(block_payload(h), h->capacity);
  h->next_free = free_[h->size_class];
  free_[h->size_class] = h;
}

void Pool::return_block(BlockHeader* h) noexcept {
  if (shared_) {
    const std::lock_guard<std::mutex> lk(mutex_);
    park(h);
    stats_.recycled.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (Pool::current() == this) {
    park(h);
    stats_.recycled.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Foreign thread. Return-to-owner while the stash is bounded and the
  // owner can still drain it; otherwise the block changes home to the
  // releasing side's pool — cross-shard traffic thereby settles its working
  // set on the consumer shard (and its NUMA node), which is where the
  // payloads are last touched.
  if (!detached() &&
      foreign_depth_.load(std::memory_order_relaxed) < kForeignBound) {
    IP_MEM_POISON(block_payload(h), h->capacity);
    BlockHeader* head = foreign_head_.load(std::memory_order_relaxed);
    do {
      h->next_free = head;
    } while (!foreign_head_.compare_exchange_weak(
        head, h, std::memory_order_release, std::memory_order_relaxed));
    foreign_depth_.fetch_add(1, std::memory_order_relaxed);
    stats_.foreign_returned.fetch_add(1, std::memory_order_relaxed);
    // HB edge: the releasing thread's history rides the stash until the
    // owner drains it (replay/hb.hpp).
    replay::note_stash(this, replay::StashEdge::kReturn, 1);
    return;
  }
  Pool* cur = Pool::current();
  Pool* adopter = (cur != nullptr && !cur->shared_) ? cur : &Pool::global();
  h->home = adopter;
  adopter->adopt_foreign(h);
}

void Pool::adopt_foreign(BlockHeader* h) noexcept {
  if (shared_) {
    const std::lock_guard<std::mutex> lk(mutex_);
    park(h);
  } else {
    // Only reached with this == current(): the adopter IS the releasing
    // thread's pool, so the free list is owner-accessed.
    park(h);
  }
  stats_.foreign_adopted.fetch_add(1, std::memory_order_relaxed);
  replay::note_stash(this, replay::StashEdge::kAdopt, 1);
}

void Pool::drain_foreign() noexcept {
  BlockHeader* h = foreign_head_.exchange(nullptr, std::memory_order_acquire);
  if (h == nullptr) return;
  foreign_depth_.store(0, std::memory_order_relaxed);
  std::uint64_t n = 0;
  while (h != nullptr) {
    BlockHeader* next = h->next_free;
    h->next_free = free_[h->size_class];
    free_[h->size_class] = h;
    h = next;
    ++n;
  }
  replay::note_stash(this, replay::StashEdge::kDrain, n);
}

Pool::Stats Pool::stats() const noexcept {
  Stats s;
  s.hits = stats_.hits.load(std::memory_order_relaxed);
  s.misses = stats_.misses.load(std::memory_order_relaxed);
  s.recycled = stats_.recycled.load(std::memory_order_relaxed);
  s.foreign_returned =
      stats_.foreign_returned.load(std::memory_order_relaxed);
  s.foreign_adopted = stats_.foreign_adopted.load(std::memory_order_relaxed);
  s.oversize = stats_.oversize.load(std::memory_order_relaxed);
  s.slab_bytes = stats_.slab_bytes.load(std::memory_order_relaxed);
  return s;
}

}  // namespace infopipe::mem
