// HandlerTable: per-node-class (wire type -> handler) dispatch.
//
// A protocol node declares once which message types it handles, each
// handler written in place as a captureless lambda that takes the node:
//
//   const Hlr::Handlers& Hlr::handler_table() {
//     static const Handlers table = Handlers{}
//       .on([](Hlr& self, const MapSendAuthInfo& req, const Envelope& env) {
//         ...
//       });
//     return table;
//   }
//
// handler_table() is a static member, so the lambdas have the class's
// access.  A member function that is also called elsewhere (a relay
// template, a helper the node calls itself) goes in as on<&C::f>().
//
// on_message does one lookup: the wire type names a dense registry slot
// (MessageRegistry::slot_of), the slot names a thunk, and the thunk
// static_casts to the handler's parameter type.  The cast is exact because
// a wire type belongs to one registered name (on() checks it, vgprs_lint's
// registry rule checks the whole catalog) and ProtoMessage is final.
//
// A table has no fall-through: dispatch() returns false for an unlisted
// type and the caller decides what that means.  A subclass table extends a
// base table by copying it and adding entries; a handler may take any class
// derived from the table's root.  Tunnelled inner messages use tables of
// their own, with the tunnel context as the extra arguments.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/message.hpp"
#include "sim/node.hpp"

namespace vgprs {

namespace detail {
template <typename F>
struct HandlerSig;
template <typename C, typename M, typename... A>
struct HandlerSig<void (C::*)(const M&, A...)> {  // member handler
  using Class = C;
  using Msg = M;
};
template <typename L, typename C, typename M, typename... A>
struct HandlerSig<void (L::*)(C&, const M&, A...) const> {  // lambda
  using Class = C;
  using Msg = M;
};
/// Throws std::logic_error "handler table: <what>: <type>".  Out of line,
/// so a table entry instantiates little more than its thunk.
[[noreturn]] void handler_table_error(std::string_view what,
                                      std::string_view type);
}  // namespace detail

template <typename Root, typename... Args>
class HandlerTable {
 public:
  using Thunk = void (*)(Root&, const Message&, Args...);

  /// Adds `fn`, a captureless `void(C& self, const M&)` or `void(C& self,
  /// const M&, Args...)` with C derived from Root, as the handler of M.
  template <typename F>
  HandlerTable& on(F) {
    using Sig = detail::HandlerSig<decltype(&F::operator())>;
    return add<typename Sig::Class, typename Sig::Msg, F>();
  }

  /// Adds the member `void C::f(const M&)` or `void C::f(const M&,
  /// Args...)` as the handler of M.
  template <auto Fn>
  HandlerTable& on() {
    using Sig = detail::HandlerSig<decltype(Fn)>;
    return on([](typename Sig::Class& self, const typename Sig::Msg& m,
                 Args... args) {
      if constexpr (std::is_invocable_v<decltype(Fn), typename Sig::Class&,
                                        const typename Sig::Msg&>) {
        (self.*Fn)(m);
      } else {
        (self.*Fn)(m, args...);
      }
    });
  }

  /// Runs the handler listed for `msg`'s wire type; false when none is.
  bool dispatch(Root& self, const Message& msg, Args... args) const {
    const std::uint32_t slot =
        MessageRegistry::instance().slot_of(msg.wire_type());
    if (slot >= thunks_.size() || thunks_[slot] == nullptr) return false;
    thunks_[slot](self, msg, args...);
    return true;
  }

  /// Wire types with a handler, in declaration order.
  [[nodiscard]] const std::vector<std::uint16_t>& wire_types() const {
    return types_;
  }

 private:
  /// Registers M (idempotent) so its slot exists, and files F's thunk
  /// there.  Throws on a second handler for M or when M's wire type is
  /// registered under another name.
  template <typename C, typename M, typename F>
  HandlerTable& add() {
    static_assert(std::is_base_of_v<Root, C>, "handler of an unrelated class");
    static_assert(std::is_final_v<M>, "dispatch needs an exact message type");
    static_assert(std::is_empty_v<F>, "a handler captures nothing");
    register_message<M>();
    const MessageRegistry& reg = MessageRegistry::instance();
    if (reg.name_of(M::kWireType) != M::kName) {
      detail::handler_table_error("wire type registered under another name",
                                  M::kName);
    }
    const std::uint32_t slot = reg.slot_of(M::kWireType);
    if (slot >= thunks_.size()) thunks_.resize(slot + 1, nullptr);
    if (thunks_[slot] != nullptr) {
      detail::handler_table_error("two handlers", M::kName);
    }
    thunks_[slot] = [](Root& self, const Message& msg,
                       [[maybe_unused]] Args... args) {
      C& node = static_cast<C&>(self);
      const M& m = static_cast<const M&>(msg);
      if constexpr (std::is_invocable_v<F, C&, const M&>) {
        F{}(node, m);
      } else {
        F{}(node, m, args...);
      }
    };
    types_.push_back(M::kWireType);
    return *this;
  }

  std::vector<Thunk> thunks_;  // indexed by registry slot; 0 is never used
  std::vector<std::uint16_t> types_;
};

/// The table shape of Node::on_message.
template <typename Root>
using NodeHandlers = HandlerTable<Root, const Envelope&>;

/// Checked downcast for the one-type case, e.g. a decoded tunnel payload
/// that must be an IP datagram: null unless `msg` is a T.
template <typename T>
const T* message_cast(const Message* msg) {
  static_assert(std::is_final_v<T>, "message_cast needs an exact type");
  return msg != nullptr && msg->wire_type() == T::kWireType
             ? static_cast<const T*>(msg)
             : nullptr;
}

}  // namespace vgprs
