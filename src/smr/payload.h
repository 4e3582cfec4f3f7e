// Refcounted command payloads (ROADMAP known-allocation: `Command::value`).
//
// A command's value travels far: it is stored in per-command protocol state
// (Atlas/EPaxos Info), copied into every fan-out message, parked in executor
// graph nodes, moved through mailbox slots, and — with the executor pool —
// copied once more from the ordering thread to an apply lane. With a plain
// std::string every one of those copies heap-allocates for values above the
// small-string optimization. Payload keeps small values in an SSO std::string
// (byte-for-byte the old behaviour, zero overhead) and moves larger values
// into an intrusively refcounted buffer, so copying a big payload is one
// atomic increment instead of an allocation + memcpy.
//
// PayloadPool recycles those big buffers: the kBatch flush path encodes every
// batch composite into a pooled buffer whose previous holders have all
// released it, so steady-state flushes reuse warm capacity instead of
// allocating a fresh composite string per batch (pinned by alloc_test).
//
// Thread-safety: a Payload value is as thread-safe as a std::string — distinct
// copies may be read/destroyed concurrently (the refcount is atomic), but one
// Payload object must not be mutated while another thread reads it. Pool reuse
// is sound across threads: the acquire load that observes refs == 1 pairs with
// the release decrement of the last foreign holder, so all of its reads
// happen-before the buffer is overwritten.
#ifndef SRC_SMR_PAYLOAD_H_
#define SRC_SMR_PAYLOAD_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace smr {

namespace detail {

// Heap buffer for a >SSO payload. `refs` counts Payload holders plus (for
// pooled buffers) the owning pool's own reference.
struct PayloadBuf {
  std::atomic<uint32_t> refs{1};
  std::string bytes;
};

}  // namespace detail

class PayloadPool;

class Payload {
 public:
  // Values at or below this stay in the inline std::string. 15 bytes is the
  // libstdc++ SSO capacity; the exact threshold only affects where the bytes
  // live, never the observable value.
  static constexpr size_t kInlineMax = 15;

  Payload() = default;
  Payload(const char* s) : Payload(std::string_view(s)) {}          // NOLINT
  Payload(std::string_view s) { Assign(s.data(), s.size()); }       // NOLINT
  Payload(std::string s) {                                          // NOLINT
    if (s.size() <= kInlineMax) {
      small_ = std::move(s);
    } else {
      big_ = new detail::PayloadBuf;
      big_->bytes = std::move(s);
    }
  }

  Payload(const Payload& o) : small_(o.small_), big_(o.big_) { Ref(); }
  Payload(Payload&& o) noexcept
      : small_(std::move(o.small_)), big_(o.big_) {
    o.big_ = nullptr;
    o.small_.clear();
  }

  Payload& operator=(const Payload& o) {
    if (this == &o) {
      return *this;
    }
    detail::PayloadBuf* old = big_;
    small_ = o.small_;
    big_ = o.big_;
    Ref();
    UnrefBuf(old);
    return *this;
  }

  Payload& operator=(Payload&& o) noexcept {
    if (this == &o) {
      return *this;
    }
    detail::PayloadBuf* old = big_;
    small_ = std::move(o.small_);
    big_ = o.big_;
    o.big_ = nullptr;
    o.small_.clear();
    UnrefBuf(old);
    return *this;
  }

  Payload& operator=(const char* s) { return *this = Payload(std::string_view(s)); }
  Payload& operator=(std::string s) { return *this = Payload(std::move(s)); }
  Payload& operator=(std::string_view s) { return *this = Payload(s); }

  ~Payload() { UnrefBuf(big_); }

  std::string_view view() const {
    return big_ != nullptr ? std::string_view(big_->bytes)
                           : std::string_view(small_);
  }
  const char* data() const {
    return big_ != nullptr ? big_->bytes.data() : small_.data();
  }
  size_t size() const {
    return big_ != nullptr ? big_->bytes.size() : small_.size();
  }
  bool empty() const { return size() == 0; }

  void clear() {
    UnrefBuf(big_);
    big_ = nullptr;
    small_.clear();
  }

  // Replaces the value with a copy of the bytes. Small values reuse the inline
  // string's capacity. A big value overwrites this payload's own buffer when
  // no other holder shares it (the acquire load that sees refs == 1 pairs with
  // the release decrement of the last other holder, as in PayloadPool::Make),
  // and gets a fresh buffer otherwise.
  void Assign(const char* data, size_t n) {
    if (n <= kInlineMax) {
      UnrefBuf(big_);
      big_ = nullptr;
      small_.assign(data, n);
      return;
    }
    if (big_ != nullptr && big_->refs.load(std::memory_order_acquire) == 1) {
      big_->bytes.assign(data, n);
      return;
    }
    detail::PayloadBuf* buf = new detail::PayloadBuf;
    buf->bytes.assign(data, n);
    UnrefBuf(big_);
    big_ = buf;
    small_.clear();
  }

  std::string str() const { return std::string(view()); }

  // True when this value shares a refcounted buffer (diagnostics/tests).
  bool shared() const {
    return big_ != nullptr &&
           big_->refs.load(std::memory_order_relaxed) > 1;
  }

  friend bool operator==(const Payload& a, const Payload& b) {
    return a.view() == b.view();
  }
  friend bool operator!=(const Payload& a, const Payload& b) { return !(a == b); }
  friend bool operator==(const Payload& a, std::string_view b) {
    return a.view() == b;
  }
  friend bool operator==(std::string_view a, const Payload& b) {
    return a == b.view();
  }

 private:
  friend class PayloadPool;

  // Adopts a buffer the caller already holds a reference for.
  struct AdoptRef {};
  Payload(detail::PayloadBuf* buf, AdoptRef) : big_(buf) {}

  void Ref() {
    if (big_ != nullptr) {
      big_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  static void UnrefBuf(detail::PayloadBuf* buf) {
    if (buf != nullptr &&
        buf->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete buf;
    }
  }

  std::string small_;                    // value when big_ == nullptr
  detail::PayloadBuf* big_ = nullptr;    // refcounted value otherwise
};

// Bounded ring of recyclable big-payload buffers. Single-threaded producer
// (one pool per shard's batching state); the Payloads it hands out may be
// copied to and released from other threads — a slot is reused only once every
// holder outside the pool has released it.
class PayloadPool {
 public:
  explicit PayloadPool(size_t max_slots = 16) : max_slots_(max_slots) {}

  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  ~PayloadPool() {
    for (detail::PayloadBuf* buf : slots_) {
      Payload::UnrefBuf(buf);
    }
  }

  // Returns a payload holding a copy of `bytes`. Small values stay inline
  // (never pooled). Big values land in a recycled slot when one is free —
  // steady state reuses the slot string's capacity, allocating nothing — and
  // fall back to a fresh unpooled buffer when every slot is still held.
  Payload Make(std::string_view bytes) {
    if (bytes.size() <= Payload::kInlineMax) {
      return Payload(bytes);
    }
    for (size_t i = 0; i < slots_.size(); i++) {
      size_t at = (next_ + i) % slots_.size();
      detail::PayloadBuf* buf = slots_[at];
      // Acquire pairs with the release decrement of the last outside holder:
      // its reads of the buffer happen-before this overwrite.
      if (buf->refs.load(std::memory_order_acquire) == 1) {
        buf->bytes.assign(bytes.data(), bytes.size());
        buf->refs.fetch_add(1, std::memory_order_relaxed);
        next_ = (at + 1) % slots_.size();
        return Payload(buf, Payload::AdoptRef{});
      }
    }
    detail::PayloadBuf* buf = new detail::PayloadBuf;
    buf->bytes.assign(bytes.data(), bytes.size());
    if (slots_.size() < max_slots_) {
      buf->refs.fetch_add(1, std::memory_order_relaxed);  // the pool's own ref
      slots_.push_back(buf);
      next_ = 0;
    }
    return Payload(buf, Payload::AdoptRef{});
  }

  size_t slots() const { return slots_.size(); }

 private:
  size_t max_slots_;
  std::vector<detail::PayloadBuf*> slots_;
  size_t next_ = 0;
};

}  // namespace smr

#endif  // SRC_SMR_PAYLOAD_H_
