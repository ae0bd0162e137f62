#include "h323/ip_endpoint.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace vgprs {

NodeId IpEndpoint::router() const {
  Node* n = net().node_by_name(router_name_);
  if (n == nullptr) throw std::logic_error(name() + ": no router");
  return n->id();
}

void IpEndpoint::send_ip(IpAddress dst, const Message& inner) {
  send(router(), make_ip_datagram(ip_, dst, inner));
}

void IpEndpoint::on_other(const Envelope& env) {
  VG_WARN("ip-endpoint", name() << ": unexpected " << env.msg->name());
}

const IpEndpoint::Handlers& IpEndpoint::handler_table() {
  static const Handlers table = Handlers{}
  .on([](IpEndpoint& self, const IpDatagram& dgram) {
    auto inner = ip_payload(dgram);
    if (!inner.ok()) {
      VG_WARN("ip-endpoint", self.name() << ": undecodable payload from "
                                         << dgram.src.to_string() << ": "
                                         << inner.error().to_string());
      return;
    }
    if (!self.ip_handlers_.dispatch(self, *inner.value(), dgram)) {
      self.on_other_ip(dgram, *inner.value());
    }
  });
  return table;
}

void IpEndpoint::on_message(const Envelope& env) {
  if (!handlers_.dispatch(*this, *env.msg, env)) on_other(env);
}

}  // namespace vgprs
