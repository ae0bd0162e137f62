#include "gprs/ggsn.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace vgprs {

void Ggsn::provision_static(Imsi imsi, IpAddress address) {
  static_addresses_[imsi] = address;
}

const Ggsn::PdpContext* Ggsn::context_by_address(IpAddress address) const {
  auto it = by_address_.find(address);
  return it == by_address_.end() ? nullptr : &contexts_.at(it->second);
}

NodeId Ggsn::router() const {
  Node* n = net().node_by_name(config_.router_name);
  if (n == nullptr) throw std::logic_error(name() + ": no router");
  return n->id();
}

NodeId Ggsn::hlr() const {
  Node* n = net().node_by_name(config_.hlr_name);
  if (n == nullptr) throw std::logic_error(name() + ": no HLR");
  return n->id();
}

void Ggsn::on_attached() {
  net().register_ip(config_.ggsn_address, id());
}

void Ggsn::handle_control(const IpDatagramInfo& dgram) {
  auto inner = ip_payload(dgram);
  if (!inner.ok()) {
    VG_WARN("ggsn", name() << ": bad control payload: "
                           << inner.error().to_string());
    return;
  }
  if (const auto* act =
          message_cast<GgsnActivationRequest>(inner.value().get())) {
    // TR 23.821: the gatekeeper asks us to establish a routing path toward
    // an idle subscriber.  Find the serving SGSN via the HLR (Gc) and fire
    // a PDU notification so the MS activates its (static) PDP address.
    pending_activations_[act->imsi] = dgram.src;
    auto query = pool_message<MapSendRoutingInfoForGprs>();
    query->imsi = act->imsi;
    send(hlr(), std::move(query));
    return;
  }
  VG_WARN("ggsn", name() << ": unexpected control message "
                         << inner.value()->name());
}

const Ggsn::Handlers& Ggsn::handler_table() {
  static const Handlers table = Handlers{}
  .on([](Ggsn& self, const GtpCreatePdpContextRequest& req,
         const Envelope& env) {
    IpAddress address = req.requested_address;
    if (!address.valid()) {
      auto it = self.static_addresses_.find(req.imsi);
      if (it != self.static_addresses_.end()) {
        address = it->second;
      } else {
        address = IpAddress(self.config_.dynamic_pool_base.value() +
                            self.next_dynamic_++);
      }
    }
    PdpContext& ctx = self.contexts_[key(req.imsi, req.nsapi)];
    if (ctx.ggsn_teid.valid()) {
      // Re-creation over an existing context: withdraw the stale address
      // and tunnel endpoint before installing the new ones.
      self.by_address_.erase(ctx.address);
      self.by_teid_.erase(ctx.ggsn_teid.value());
      self.net().unregister_ip(ctx.address);
    }
    ctx.imsi = req.imsi;
    ctx.nsapi = req.nsapi;
    ctx.address = address;
    ctx.ggsn_teid = TunnelId(self.next_teid_++);
    ctx.sgsn_teid = req.sgsn_teid;
    ctx.sgsn = env.from;
    ctx.qos = req.qos;
    self.by_address_[address] = key(req.imsi, req.nsapi);
    self.by_teid_[ctx.ggsn_teid.value()] = key(req.imsi, req.nsapi);
    self.net().register_ip(address, self.id());

    auto rsp = pool_message<GtpCreatePdpContextResponse>();
    rsp->imsi = req.imsi;
    rsp->nsapi = req.nsapi;
    rsp->address = address;
    rsp->ggsn_teid = ctx.ggsn_teid;
    rsp->qos = req.qos;
    rsp->success = true;
    self.send(env.from, std::move(rsp));

    // Complete any pending TR 23.821 activation request for this subscriber.
    auto pending = self.pending_activations_.find(req.imsi);
    if (pending != self.pending_activations_.end()) {
      auto done = pool_message<GgsnActivationResponse>();
      done->imsi = req.imsi;
      done->address = address;
      done->success = true;
      self.send(self.router(),
                make_ip_datagram(self.config_.ggsn_address, pending->second,
                                 *done));
      self.pending_activations_.erase(pending);
    }
  })
  .on([](Ggsn& self, const GtpDeletePdpContextRequest& del,
         const Envelope& env) {
    auto it = self.contexts_.find(key(del.imsi, del.nsapi));
    if (it != self.contexts_.end()) {
      self.by_address_.erase(it->second.address);
      self.by_teid_.erase(it->second.ggsn_teid.value());
      self.net().unregister_ip(it->second.address);
      self.contexts_.erase(it);
    }
    auto rsp = pool_message<GtpDeletePdpContextResponse>();
    rsp->imsi = del.imsi;
    rsp->nsapi = del.nsapi;
    rsp->teid = del.teid;
    self.send(env.from, std::move(rsp));
  })
  // Uplink user plane: SGSN -> GGSN -> external network (or hairpin to
  // another PDP context).
  .on([](Ggsn& self, const GtpPdu& pdu) {
    auto it = self.by_teid_.find(pdu.teid.value());
    if (it == self.by_teid_.end()) {
      VG_WARN("ggsn", self.name() << ": PDU on unknown "
                                  << pdu.teid.to_string());
      return;
    }
    auto decoded = MessageRegistry::instance().decode(pdu.payload);
    if (!decoded.ok()) return;
    const auto* dgram = message_cast<IpDatagram>(decoded.value().get());
    if (dgram == nullptr) return;
    ++self.pdus_forwarded_;
    if (dgram->dst == self.config_.ggsn_address) {
      self.handle_control(*dgram);
      return;
    }
    auto hairpin = self.by_address_.find(dgram->dst);
    if (hairpin != self.by_address_.end()) {
      const PdpContext& dst_ctx = self.contexts_.at(hairpin->second);
      auto down = pool_message<GtpPdu>();
      down->teid = dst_ctx.sgsn_teid;
      down->payload = pdu.payload;
      self.send(dst_ctx.sgsn, std::move(down));
      return;
    }
    self.send(self.router(), MessagePtr(decoded.value()->clone()));
  })
  // Downlink from the external network.
  .on([](Ggsn& self, const IpDatagram& dgram) {
    if (dgram.dst == self.config_.ggsn_address) {
      self.handle_control(dgram);
      return;
    }
    auto it = self.by_address_.find(dgram.dst);
    if (it == self.by_address_.end()) {
      VG_WARN("ggsn", self.name() << ": no PDP context for "
                                  << dgram.dst.to_string());
      return;
    }
    const PdpContext& ctx = self.contexts_.at(it->second);
    ++self.pdus_forwarded_;
    auto pdu = pool_message<GtpPdu>();
    pdu->teid = ctx.sgsn_teid;
    pdu->payload = dgram.encode();
    self.send(ctx.sgsn, std::move(pdu));
  })
  .on([](Ggsn& self, const MapSendRoutingInfoForGprsAck& ack) {
    auto pending = self.pending_activations_.find(ack.imsi);
    if (pending == self.pending_activations_.end()) return;
    auto fail = [&] {
      auto rsp = pool_message<GgsnActivationResponse>();
      rsp->imsi = ack.imsi;
      rsp->success = false;
      self.send(self.router(),
                make_ip_datagram(self.config_.ggsn_address, pending->second,
                                 *rsp));
      self.pending_activations_.erase(pending);
    };
    if (!ack.found) {
      fail();
      return;
    }
    auto static_ip = self.static_addresses_.find(ack.imsi);
    if (static_ip == self.static_addresses_.end()) {
      // Network-initiated activation requires a static PDP address
      // (GSM 03.60; the paper calls this out as a TR 23.821 weakness).
      fail();
      return;
    }
    Node* sgsn = self.net().node_by_name(ack.sgsn_name);
    if (sgsn == nullptr) {
      fail();
      return;
    }
    auto note = pool_message<GtpPduNotificationRequest>();
    note->imsi = ack.imsi;
    note->address = static_ip->second;
    self.send(sgsn->id(), std::move(note));
  })
  // Listed so it is taken without the "unhandled" warning.
  .on([](Ggsn&, const GtpPduNotificationResponse&) {
  });
  return table;
}

void Ggsn::on_message(const Envelope& env) {
  if (handler_table().dispatch(*this, *env.msg, env)) return;
  VG_WARN("ggsn", name() << ": unhandled " << env.msg->name());
}

}  // namespace vgprs
