// IpEndpoint: base class for nodes living in the external IP cloud
// (gatekeeper, H.323 terminals, H.323/PSTN gateway).  Owns one IP address,
// registers it with the network's IP routing, and exchanges signaling as
// IpDatagram-encapsulated messages via the IpRouter.
#pragma once

#include <string>

#include "gprs/ip.hpp"
#include "sim/network.hpp"

namespace vgprs {

class IpEndpoint : public Node {
 public:
  using Handlers = NodeHandlers<IpEndpoint>;
  /// Handlers of the messages carried in datagrams addressed to us, by
  /// inner wire type.
  using IpHandlers = HandlerTable<IpEndpoint, const IpDatagramInfo&>;
  /// IP_Datagram only; endpoints with a non-IP side (the gateway's ISUP
  /// trunk, the TR gatekeeper's MAP link) extend it.
  static const Handlers& handler_table();

  IpEndpoint(std::string name, IpAddress ip, std::string router_name,
             const IpHandlers& ip_handlers,
             const Handlers& handlers = handler_table())
      : Node(std::move(name)),
        ip_(ip),
        router_name_(std::move(router_name)),
        handlers_(handlers),
        ip_handlers_(ip_handlers) {}

  [[nodiscard]] IpAddress ip() const { return ip_; }

  void on_attached() override { net().register_ip(ip_, id()); }

  void on_message(const Envelope& env) final;

 protected:
  /// Encapsulates `inner` into an IP datagram and sends it via the router.
  void send_ip(IpAddress dst, const Message& inner);

  /// A datagram carried an inner message the IP table does not list.
  virtual void on_other_ip(const IpDatagramInfo& dgram,
                           const Message& inner) = 0;

  /// A message the node table does not list (none expected by default).
  virtual void on_other(const Envelope& env);

 private:
  [[nodiscard]] NodeId router() const;

  IpAddress ip_;
  std::string router_name_;
  const Handlers& handlers_;
  const IpHandlers& ip_handlers_;
};

}  // namespace vgprs
