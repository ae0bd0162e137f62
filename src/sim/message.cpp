#include "sim/message.hpp"
#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/dispatch.hpp"

namespace vgprs {

std::vector<std::uint8_t> Message::encode() const {
  ByteWriter w;
  encode_to(w);
  return w.take();
}

void Message::encode_to(ByteWriter& w) const {
  w.u16(wire_type());
  encode_payload(w);
}

MessageRegistry& MessageRegistry::instance() {
  static MessageRegistry registry;
  return registry;
}

void MessageRegistry::add(std::uint16_t wire_type, std::string_view name,
                          Factory factory) {
  // Idempotent: protocol modules may register from several translation
  // units.  A *different* name on the same wire type is a programming error,
  // recorded for vgprs_lint rather than thrown so every clash is reported.
  if (const Entry* e = find(wire_type)) {
    if (e->name != name) {
      collisions_.push_back(Collision{wire_type, e->name, std::string(name)});
    }
    return;
  }
  // Flat table indexed by wire type: decode looks a type up with one bounds
  // check and one load instead of a hash.
  if (wire_type >= slot_.size()) slot_.resize(std::size_t{wire_type} + 1, 0);
  entries_.push_back(Entry{wire_type, std::string(name), std::move(factory)});
  slot_[wire_type] = static_cast<std::uint32_t>(entries_.size());
}

bool MessageRegistry::known(std::uint16_t wire_type) const {
  return find(wire_type) != nullptr;
}

std::string_view MessageRegistry::name_of(std::uint16_t wire_type) const {
  const Entry* e = find(wire_type);
  return e == nullptr ? std::string_view{"<unknown>"}
                      : std::string_view{e->name};
}

std::vector<std::uint16_t> MessageRegistry::types() const {
  std::vector<std::uint16_t> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.wire_type);
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<Message> MessageRegistry::create(
    std::uint16_t wire_type) const {
  const Entry* e = find(wire_type);
  return e == nullptr ? nullptr : e->factory();
}

Result<std::unique_ptr<Message>> MessageRegistry::decode(
    std::span<const std::uint8_t> buffer) const {
  ByteReader r(buffer);
  std::uint16_t type = r.u16();
  if (r.failed()) {
    return Error{ErrorCode::kDecodeTruncated, "missing wire type"};
  }
  const Entry* e = find(type);
  if (e == nullptr) {
    return Error{ErrorCode::kDecodeUnknownType,
                 "wire type " + std::to_string(type)};
  }
  std::unique_ptr<Message> msg = e->factory();
  if (Status st = msg->decode_payload(r); !st.ok()) {
    return Error{st.error().code, e->name + ": " + st.error().message};
  }
  if (r.failed()) {
    return Error{ErrorCode::kDecodeTruncated, e->name};
  }
  if (r.remaining() != 0) {
    return Error{ErrorCode::kDecodeBadValue, e->name + ": trailing bytes"};
  }
  return msg;
}

namespace detail {
void handler_table_error(std::string_view what, std::string_view type) {
  throw std::logic_error("handler table: " + std::string(what) + ": " +
                         std::string(type));
}
}  // namespace detail

}  // namespace vgprs
