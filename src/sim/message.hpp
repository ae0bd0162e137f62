// Message base class + wire-format registry.
//
// Every signaling message in the system derives from Message, declares a
// unique 16-bit wire type, and implements encode/decode of its payload.
// When a message crosses a simulated link the Network serializes it and the
// receiving end decodes a fresh instance via the registry — exactly what a
// real protocol stack does, so codec bugs surface as broken procedures.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "sim/arena.hpp"

namespace vgprs {

class Message;
using MessagePtr = std::shared_ptr<const Message>;

class Message {
 public:
  virtual ~Message() = default;

  // All message instances — registry factories, clone(), direct new — come
  // from the thread-cached message pool (sim/arena.hpp), so steady-state
  // dispatch recycles blocks instead of hitting the global heap.  The
  // placement forms restore the globals these class-scope overloads hide.
  static void* operator new(std::size_t n) { return pool_alloc(n); }
  static void operator delete(void* p) noexcept { pool_free(p); }
  static void operator delete(void* p, std::size_t) noexcept { pool_free(p); }
  static void* operator new(std::size_t, void* where) noexcept {
    return where;
  }
  static void operator delete(void*, void*) noexcept {}

  [[nodiscard]] virtual std::uint16_t wire_type() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::unique_ptr<Message> clone() const = 0;

  virtual void encode_payload(ByteWriter& w) const = 0;
  virtual Status decode_payload(ByteReader& r) = 0;

  /// One-line human-readable parameter dump for traces.
  [[nodiscard]] virtual std::string summary() const {
    return std::string(name());
  }

  /// Correlation id for span stitching: a nonzero u64 naming the subscriber
  /// or call this message belongs to, derived from the payload's identity
  /// fields (imsi > call_ref > msrn > dialed/alias numbers — see
  /// ProtoMessage).  0 means the instance carries no usable id (no such
  /// field, or the field is unset).
  [[nodiscard]] virtual std::uint64_t correlation() const { return 0; }

  /// Type-level property: can this message type ever carry a correlation
  /// id?  Distinct from correlation() != 0 — a default-constructed UmSetup
  /// correlates() even though its imsi is still zero.  vgprs_lint uses this
  /// to reject flow messages that can never be stitched into a span.
  [[nodiscard]] virtual bool correlates() const { return false; }

  /// Full wire encoding: u16 wire type + payload.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Appends the full wire encoding to `w` — the allocation-free variant
  /// the Network's send path uses with a reusable scratch writer.
  void encode_to(ByteWriter& w) const;
};

/// CRTP helper supplying the boilerplate overrides.  Derived classes declare
///   static constexpr std::uint16_t kWireType;
///   static constexpr std::string_view kName;
template <typename Derived>
class MessageBase : public Message {
 public:
  [[nodiscard]] std::uint16_t wire_type() const final {
    return Derived::kWireType;
  }
  [[nodiscard]] std::string_view name() const final { return Derived::kName; }
  [[nodiscard]] std::unique_ptr<Message> clone() const final {
    return std::make_unique<Derived>(static_cast<const Derived&>(*this));
  }
};

/// Global wire-type -> factory registry.  Protocol modules register their
/// message types once (idempotent) via register_message<T>().
class MessageRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Message>()>;

  /// Two distinct message types claimed the same wire type.  Recorded (not
  /// thrown) so vgprs_lint can report every clash in one pass.
  struct Collision {
    std::uint16_t wire_type;
    std::string existing;
    std::string incoming;
  };

  static MessageRegistry& instance();

  void add(std::uint16_t wire_type, std::string_view name, Factory factory);
  [[nodiscard]] bool known(std::uint16_t wire_type) const;
  /// Dense slot of a registered type: 1..size() in registration order, 0
  /// when unregistered.  Handler tables (sim/dispatch.hpp) index by it.
  [[nodiscard]] std::uint32_t slot_of(std::uint16_t wire_type) const {
    return wire_type < slot_.size() ? slot_[wire_type] : 0;
  }
  [[nodiscard]] std::string_view name_of(std::uint16_t wire_type) const;
  /// All registered wire types (sorted), for exhaustive codec sweeps.
  [[nodiscard]] std::vector<std::uint16_t> types() const;
  /// Creates a default-constructed instance of a registered type.
  [[nodiscard]] std::unique_ptr<Message> create(std::uint16_t wire_type) const;
  /// Wire-type clashes observed by add() (same type, different name).
  [[nodiscard]] const std::vector<Collision>& collisions() const {
    return collisions_;
  }

  /// Decodes a full wire buffer (type header + payload).  The buffer must be
  /// exactly one message; trailing bytes are an error.
  [[nodiscard]] Result<std::unique_ptr<Message>> decode(
      std::span<const std::uint8_t> buffer) const;

 private:
  struct Entry {
    std::uint16_t wire_type;
    std::string name;
    Factory factory;
  };
  /// The registered entry for `wire_type`, or null.
  [[nodiscard]] const Entry* find(std::uint16_t wire_type) const {
    return wire_type < slot_.size() && slot_[wire_type] != 0
               ? &entries_[slot_[wire_type] - 1]
               : nullptr;
  }
  std::vector<Entry> entries_;       // registration order
  std::vector<std::uint32_t> slot_;  // wire type -> entries_ index + 1
  std::vector<Collision> collisions_;
};

template <typename T>
void register_message() {
  MessageRegistry::instance().add(T::kWireType, T::kName,
                                  [] { return std::make_unique<T>(); });
}

/// Builds a mutable shared message with its control block and object in one
/// pooled allocation.  This is the sender-side construction path: handlers
/// fill in fields, then pass the pointer to send() (which converts to
/// MessagePtr).  std::make_shared would bypass Message::operator new — the
/// combined block comes from std::allocate_shared over the pool instead.
template <typename T, typename... Args>
std::shared_ptr<T> pool_message(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{},
                                 std::forward<Args>(args)...);
}

/// Builds a shared message, optionally applying an initializer to set fields:
///   auto msg = make_message<UmSetup>([&](UmSetup& m) { m.digits = d; });
template <typename T>
std::shared_ptr<const T> make_message() {
  return pool_message<T>();
}

template <typename T, typename Fn>
std::shared_ptr<const T> make_message(Fn&& init) {
  auto msg = pool_message<T>();
  init(*msg);
  return msg;
}

}  // namespace vgprs
