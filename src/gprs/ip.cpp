#include "gprs/ip.hpp"

#include "common/log.hpp"

namespace vgprs {

std::string IpDatagramInfo::describe() const {
  // Peek at the inner wire type so traces show what the datagram carries.
  std::string inner = "?";
  if (payload.size() >= 2) {
    std::uint16_t type = static_cast<std::uint16_t>(
        (std::uint16_t{payload[0]} << 8) | payload[1]);
    inner = std::string(MessageRegistry::instance().name_of(type));
  }
  return "{" + src.to_string() + " -> " + dst.to_string() + " [" + inner +
         "]}";
}

std::shared_ptr<IpDatagram> make_ip_datagram(IpAddress src, IpAddress dst,
                                             const Message& inner) {
  auto dgram = pool_message<IpDatagram>();
  dgram->src = src;
  dgram->dst = dst;
  dgram->payload = inner.encode();
  return dgram;
}

Result<std::unique_ptr<Message>> ip_payload(const IpDatagramInfo& dgram) {
  return MessageRegistry::instance().decode(dgram.payload);
}

const IpRouter::Handlers& IpRouter::handler_table() {
  static const Handlers table = Handlers{}
  .on([](IpRouter& self, const IpDatagram& dgram, const Envelope& env) {
    NodeId owner = self.net().ip_owner(dgram.dst);
    if (!owner.valid()) {
      VG_WARN("ip", self.name() << ": no route to " << dgram.dst.to_string());
      return;
    }
    if (owner == env.from) return;  // avoid reflecting
    self.send(owner, MessagePtr(dgram.clone()));
  });
  return table;
}

void IpRouter::on_message(const Envelope& env) {
  if (handler_table().dispatch(*this, *env.msg, env)) return;
  VG_WARN("ip", name() << ": non-IP message " << env.msg->name());
}

void register_ip_messages() { register_message<IpDatagram>(); }

}  // namespace vgprs
