// Information items: the unit of data flowing through an Infopipe.
//
// Items are cheap to copy: the payload is shared and immutable once inside
// the pipeline. Sharing matters for components like the paper's MPEG decoder
// (§2.2), which passes decoded frames downstream while still holding them as
// reference frames; the control protocol decides when a shared frame dies,
// and shared ownership here makes that safe by construction.
//
// Two payload representations coexist; the payload's type and size pick
// one at creation:
//   * inline: trivially-copyable payloads no larger than kInlineCapacity
//     (two cache lines) live in a buffer inside the Item itself — no
//     allocation, no refcount, a bounded memcpy on copy. A drained batch of
//     small items is therefore a contiguous, memcpy-friendly run with no
//     allocator traffic at all.
//   * pooled: everything else is one intrusive-refcounted block from the
//     current runtime's mem::Pool — one allocation, usually a free-list
//     hit, and the block is recycled when the last Item drops it.
// All accessors understand both. Inline items trade the shared-payload
// property for allocation-freedom: each copy owns its bytes
// (use_count() == 1), which is indistinguishable to consumers of an
// immutable payload.
//
// Items MOVE along the hot path — buffer ring slots, pump
// forwarding — and both representations have noexcept moves, which the
// static_asserts at the bottom pin down. The hand-written copy/move
// members exist only so the inline buffer is copied to its used length
// instead of all kInlineCapacity bytes per hop.
#pragma once

#include <any>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "mem/pool.hpp"
#include "rt/types.hpp"

namespace infopipe {

/// Marker for items with no payload semantics of their own.
enum class ItemSpecial : std::uint8_t {
  kNone,  ///< ordinary data item
  kNil,   ///< "no item available" (empty buffer with the nil policy, §2.3)
  kEos,   ///< end of stream; propagates downstream and stops pumps
};

class Item {
 public:
  /// Payloads up to this size (and trivially copyable) are stored inside
  /// the Item itself: two cache lines, the crossover below which a memcpy
  /// beats even a pool free-list hit.
  static constexpr std::size_t kInlineCapacity = 128;

  /// An invalid/nil item (what a non-blocking pull on an empty buffer
  /// returns).
  static Item nil() noexcept { return Item(ItemSpecial::kNil); }

  /// End-of-stream marker, forwarded through the pipeline when a source is
  /// exhausted.
  static Item eos() noexcept { return Item(ItemSpecial::kEos); }

  /// Default-constructed items are nil.
  Item() noexcept : special_(ItemSpecial::kNil) {}

  Item(const Item& o)
      : seq(o.seq),
        timestamp(o.timestamp),
        kind(o.kind),
        size_bytes(o.size_bytes),
        special_(o.special_),
        block_(o.block_),
        inline_type_(o.inline_type_),
        inline_size_(o.inline_size_),
        inline_bytes_(o.inline_bytes_) {
    if (inline_size_ > 0) std::memcpy(inline_buf_, o.inline_buf_, inline_size_);
  }
  Item& operator=(const Item& o) {
    if (this != &o) {
      seq = o.seq;
      timestamp = o.timestamp;
      kind = o.kind;
      size_bytes = o.size_bytes;
      special_ = o.special_;
      block_ = o.block_;
      inline_type_ = o.inline_type_;
      inline_size_ = o.inline_size_;
      inline_bytes_ = o.inline_bytes_;
      if (inline_size_ > 0) {
        std::memcpy(inline_buf_, o.inline_buf_, inline_size_);
      }
    }
    return *this;
  }
  Item(Item&& o) noexcept
      : seq(o.seq),
        timestamp(o.timestamp),
        kind(o.kind),
        size_bytes(o.size_bytes),
        special_(o.special_),
        block_(std::move(o.block_)),
        inline_type_(o.inline_type_),
        inline_size_(o.inline_size_),
        inline_bytes_(o.inline_bytes_) {
    if (inline_size_ > 0) std::memcpy(inline_buf_, o.inline_buf_, inline_size_);
    o.inline_type_ = nullptr;
    o.inline_size_ = 0;
    o.inline_bytes_ = false;
  }
  Item& operator=(Item&& o) noexcept {
    if (this != &o) {
      seq = o.seq;
      timestamp = o.timestamp;
      kind = o.kind;
      size_bytes = o.size_bytes;
      special_ = o.special_;
      block_ = std::move(o.block_);
      inline_type_ = o.inline_type_;
      inline_size_ = o.inline_size_;
      inline_bytes_ = o.inline_bytes_;
      if (inline_size_ > 0) {
        std::memcpy(inline_buf_, o.inline_buf_, inline_size_);
      }
      o.inline_type_ = nullptr;
      o.inline_size_ = 0;
      o.inline_bytes_ = false;
    }
    return *this;
  }
  ~Item() = default;

  /// A data item with an immutable payload. Small trivially-copyable
  /// payloads go inline (see kInlineCapacity); otherwise the pooled path
  /// allocates from the pool of the runtime hosting the calling thread (the
  /// global pool off-runtime).
  template <typename T>
  static Item of(T payload) {
    Item it(ItemSpecial::kNone);
    if constexpr (std::is_trivially_copyable_v<T> &&
                  sizeof(T) <= kInlineCapacity &&
                  alignof(T) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(it.inline_buf_)) T(std::move(payload));
      it.inline_type_ = &typeid(T);
      it.inline_size_ = static_cast<std::uint16_t>(sizeof(T));
    } else {
      it.block_ = mem::make_typed<T>(std::move(payload));
    }
    return it;
  }

  /// A data item carrying a raw byte payload (wire messages, serialization
  /// scratch). Payloads up to kInlineCapacity live inside the Item itself;
  /// larger ones get a class-rounded pool block, so successive messages of
  /// similar size reuse storage.
  static Item of_bytes(const void* data, std::size_t n) {
    return of_bytes(n, [&](std::uint8_t* out) {
      if (n > 0) std::memcpy(out, data, n);
    });
  }

  /// The in-place form: `fill(std::uint8_t* out)` writes all n payload
  /// bytes straight into the inline buffer or the pooled block, so a codec
  /// needs no staging buffer of its own.
  template <typename Fill>
  static Item of_bytes(std::size_t n, Fill&& fill) {
    Item it(ItemSpecial::kNone);
    if (n <= kInlineCapacity) {
      fill(reinterpret_cast<std::uint8_t*>(it.inline_buf_));
      it.inline_size_ = static_cast<std::uint16_t>(n);
      it.inline_bytes_ = true;
    } else {
      it.block_ = mem::make_bytes(n, std::forward<Fill>(fill));
    }
    it.size_bytes = n;
    return it;
  }

  /// A data item with no payload (pure token; useful in tests and MIDI-like
  /// tiny-message flows where only the metadata matters).
  static Item token(int kind = 0) {
    Item it(ItemSpecial::kNone);
    it.kind = kind;
    return it;
  }

  [[nodiscard]] bool is_nil() const noexcept {
    return special_ == ItemSpecial::kNil;
  }
  [[nodiscard]] bool is_eos() const noexcept {
    return special_ == ItemSpecial::kEos;
  }
  [[nodiscard]] bool is_data() const noexcept {
    return special_ == ItemSpecial::kNone;
  }
  [[nodiscard]] explicit operator bool() const noexcept { return is_data(); }

  /// Typed payload access; nullptr on type mismatch, payload-less or
  /// non-data items.
  template <typename T>
  [[nodiscard]] const T* payload() const noexcept {
    if (inline_type_ != nullptr) {
      if (*inline_type_ == typeid(T)) {
        return std::launder(reinterpret_cast<const T*>(inline_buf_));
      }
      return nullptr;
    }
    return block_.get_if<T>();
  }

  /// Typed payload access; throws std::bad_any_cast on mismatch.
  template <typename T>
  [[nodiscard]] const T& as() const {
    const T* p = payload<T>();
    if (p == nullptr) throw std::bad_any_cast{};
    return *p;
  }

  /// Raw-bytes payload access: valid for of_bytes() items of either
  /// representation. nullptr/0 otherwise.
  [[nodiscard]] const std::uint8_t* bytes_data() const noexcept {
    if (inline_bytes_) {
      return reinterpret_cast<const std::uint8_t*>(inline_buf_);
    }
    return block_.is_bytes() ? block_.bytes() : nullptr;
  }
  [[nodiscard]] std::size_t bytes_size() const noexcept {
    if (inline_bytes_) return inline_size_;
    return block_.is_bytes() ? block_.size() : 0;
  }
  [[nodiscard]] bool has_bytes() const noexcept {
    return inline_bytes_ || block_.is_bytes();
  }

  /// How many Items currently share this payload (0 for payload-less items).
  /// Each copy of an inline item owns its bytes, so the count is 1.
  /// Used by reference-frame lifetime tests.
  [[nodiscard]] long use_count() const noexcept {
    return inlined() ? 1 : block_.use_count();
  }

  /// True when the payload is a pooled block (diagnostics/tests).
  [[nodiscard]] bool pooled() const noexcept {
    return static_cast<bool>(block_);
  }

  /// True when the payload lives inside the Item (diagnostics/tests).
  [[nodiscard]] bool inlined() const noexcept {
    return inline_type_ != nullptr || inline_bytes_;
  }

  // Flow metadata. Each Item copy carries its own metadata; the payload
  // stays shared.
  std::uint64_t seq = 0;       ///< sequence number within the flow
  rt::Time timestamp = 0;      ///< creation/presentation time
  int kind = 0;                ///< application discriminator (frame type…)
  std::size_t size_bytes = 0;  ///< logical wire size; drives netpipe cost

 private:
  explicit Item(ItemSpecial s) noexcept : special_(s) {}

  ItemSpecial special_;
  mem::PayloadRef block_;  ///< pooled representation

  // Inline representation: non-null inline_type_ (typed payload) or set
  // inline_bytes_ (raw bytes) marks the buffer as live; only the first
  // inline_size_ bytes are meaningful (and copied).
  const std::type_info* inline_type_ = nullptr;
  std::uint16_t inline_size_ = 0;
  bool inline_bytes_ = false;
  alignas(std::max_align_t) unsigned char inline_buf_[kInlineCapacity];
};

/// A run of items moving together through the batched path (span-based
/// push/pop/consume APIs of PR 6).
using ItemSpan = std::span<Item>;

// The hot path (buffer ring slots, pump forwarding) relies
// on items moving without throwing; a copy sneaking in would be a refcount
// round trip per hop.
static_assert(std::is_nothrow_move_constructible_v<Item>);
static_assert(std::is_nothrow_move_assignable_v<Item>);
// Three cache lines: header, pooled block reference and the inline buffer.
static_assert(sizeof(Item) <= 192);

/// Thrown by pull links when the upstream flow has ended; caught by the
/// middleware glue, never by component code. This is what lets component
/// implementations look exactly like the paper's figures (plain
/// `while (running)` loops) without an explicit end-of-stream branch.
struct EndOfStream {};

}  // namespace infopipe
