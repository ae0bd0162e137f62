#include "gprs/sgsn.hpp"

#include <stdexcept>

#include "common/log.hpp"
#include "gprs/ip.hpp"

namespace vgprs {

const Sgsn::PdpContext* Sgsn::context(Imsi imsi, Nsapi nsapi) const {
  return contexts_.find(key(imsi, nsapi));
}

NodeId Sgsn::ggsn() const {
  Node* n = net().node_by_name(config_.ggsn_name);
  if (n == nullptr) throw std::logic_error(name() + ": no GGSN");
  return n->id();
}

NodeId Sgsn::hlr() const {
  Node* n = net().node_by_name(config_.hlr_name);
  if (n == nullptr) throw std::logic_error(name() + ": no HLR");
  return n->id();
}

const Sgsn::Handlers& Sgsn::handler_table() {
  static const Handlers table = Handlers{}
  .on([](Sgsn& self, const GprsAttachRequest& req, const Envelope& env) {
    if (const Attachment* dup = self.attachments_.find(req.imsi);
        dup != nullptr && dup->holder == env.from) {
      // Duplicate attach from the current holder (retransmission or a
      // duplicated message): already attached -> re-confirm with the same
      // P-TMSI; still updating the HLR -> absorb, the pending exchange
      // answers both copies.
      if (dup->attached) {
        auto acc = pool_message<GprsAttachAccept>();
        acc->imsi = req.imsi;
        acc->ptmsi = dup->ptmsi;
        self.send(env.from, std::move(acc));
      }
      return;
    }
    Attachment& at = self.attachments_[req.imsi];
    at.holder = env.from;
    at.ptmsi = self.next_ptmsi_++;
    at.attached = false;
    auto ul = pool_message<MapUpdateGprsLocation>();
    ul->imsi = req.imsi;
    ul->sgsn_name = self.name();
    self.send(self.hlr(), std::move(ul));
    self.retx_.arm(
        retx_key(RetxKind::kMapGprsUl, req.imsi),
        [&self, imsi = req.imsi] {
          const Attachment* a = self.attachments_.find(imsi);
          if (a == nullptr || a->attached) return;
          auto again = pool_message<MapUpdateGprsLocation>();
          again->imsi = imsi;
          again->sgsn_name = self.name();
          self.send(self.hlr(), std::move(again));
        },
        [&self, imsi = req.imsi] {
          const Attachment* a = self.attachments_.find(imsi);
          if (a == nullptr || a->attached) return;
          auto rej = pool_message<GprsAttachReject>();
          rej->imsi = imsi;
          rej->cause = 17;  // network failure: HLR unreachable
          self.send(a->holder, std::move(rej));
          self.attachments_.erase(imsi);
        });
  })
  .on([](Sgsn& self, const MapUpdateGprsLocationAck& ack) {
    self.retx_.ack(retx_key(RetxKind::kMapGprsUl, ack.imsi));
    Attachment* at = self.attachments_.find(ack.imsi);
    if (at == nullptr) return;
    if (!ack.success) {
      auto rej = pool_message<GprsAttachReject>();
      rej->imsi = ack.imsi;
      rej->cause = ack.cause;
      self.send(at->holder, std::move(rej));
      self.attachments_.erase(ack.imsi);
      return;
    }
    at->attached = true;
    ++self.net().metrics().counter(self.name() + "/attaches_accepted");
    self.net().metrics().gauge(self.name() + "/attached") =
        static_cast<double>(self.attachments_.size());
    auto acc = pool_message<GprsAttachAccept>();
    acc->imsi = ack.imsi;
    acc->ptmsi = at->ptmsi;
    self.send(at->holder, std::move(acc));
  })
  .on([](Sgsn& self, const GprsDetachRequest& req, const Envelope& env) {
    // A detach is only honoured from the subscriber's *current* Gb-side
    // holder: after an inter-VMSC move the old VMSC's deferred detach must
    // not tear down the attachment the new VMSC just established.
    const Attachment* at = self.attachments_.find(req.imsi);
    if (at != nullptr && at->holder != env.from) {
      auto acc = pool_message<GprsDetachAccept>();
      acc->imsi = req.imsi;
      self.send(env.from, std::move(acc));
      return;
    }
    // Tear down any remaining contexts at the GGSN — direct probes of the
    // two NSAPIs in use (5 = signaling, 6 = voice), not a scan of every
    // subscriber's contexts.  The context entries are gone before the GTP
    // responses arrive, so the retransmission thunks carry everything
    // needed to re-emit the delete.
    for (std::uint8_t n : {std::uint8_t{5}, std::uint8_t{6}}) {
      const PdpContext* ctx = self.contexts_.find(key(req.imsi, Nsapi(n)));
      if (ctx == nullptr || ctx->holder != env.from) continue;
      auto del = pool_message<GtpDeletePdpContextRequest>();
      del->imsi = ctx->imsi;
      del->nsapi = ctx->nsapi;
      del->teid = ctx->ggsn_teid;
      self.send(self.ggsn(), std::move(del));
      self.retx_.arm(
          retx_key(RetxKind::kGtpDelete, ctx->imsi, ctx->nsapi),
          [&self, imsi = ctx->imsi, nsapi = ctx->nsapi,
           teid = ctx->ggsn_teid] {
            auto again = pool_message<GtpDeletePdpContextRequest>();
            again->imsi = imsi;
            again->nsapi = nsapi;
            again->teid = teid;
            self.send(self.ggsn(), std::move(again));
          },
          // GGSN unreachable: its context leaks until it ages out there;
          // nothing left to unwind here.
          std::function<void()>{});
      self.by_teid_.erase(ctx->sgsn_teid.value());
      self.contexts_.erase(key(req.imsi, Nsapi(n)));
    }
    self.attachments_.erase(req.imsi);
    auto acc = pool_message<GprsDetachAccept>();
    acc->imsi = req.imsi;
    self.send(env.from, std::move(acc));
  })
  .on([](Sgsn& self, const ActivatePdpContextRequest& req,
         const Envelope& env) {
    const Attachment* at = self.attachments_.find(req.imsi);
    if (at == nullptr || !at->attached) {
      auto rej = pool_message<ActivatePdpContextReject>();
      rej->imsi = req.imsi;
      rej->nsapi = req.nsapi;
      rej->cause = 7;  // GPRS services not allowed / not attached
      self.send(env.from, std::move(rej));
      return;
    }
    PdpContext& ctx = self.contexts_[key(req.imsi, req.nsapi)];
    if (ctx.sgsn_teid.valid()) {
      if (ctx.holder == env.from && !ctx.deleting) {
        // Duplicate activation from the current holder: an active context
        // is re-confirmed as it stands; one still being created is
        // answered when the GTP exchange completes.
        if (ctx.active) {
          auto acc = pool_message<ActivatePdpContextAccept>();
          acc->imsi = req.imsi;
          acc->nsapi = req.nsapi;
          acc->address = ctx.address;
          acc->qos = ctx.qos;
          self.send(env.from, std::move(acc));
        }
        return;
      }
      // Re-activation over an existing context (e.g. the subscriber moved
      // to a new VMSC): drop the stale tunnel endpoint mapping.
      self.by_teid_.erase(ctx.sgsn_teid.value());
    }
    ctx.imsi = req.imsi;
    ctx.nsapi = req.nsapi;
    ctx.qos = req.qos;
    ctx.holder = env.from;
    ctx.sgsn_teid = TunnelId(self.next_teid_++);
    ctx.active = false;
    ctx.deleting = false;
    self.by_teid_[ctx.sgsn_teid.value()] = key(req.imsi, req.nsapi);
    auto create = pool_message<GtpCreatePdpContextRequest>();
    create->imsi = req.imsi;
    create->nsapi = req.nsapi;
    create->sgsn_name = self.name();
    create->sgsn_teid = ctx.sgsn_teid;
    create->requested_address = req.requested_address;
    create->qos = req.qos;
    self.send(self.ggsn(), std::move(create));
    self.retx_.arm(
        retx_key(RetxKind::kGtpCreate, req.imsi, req.nsapi),
        [&self, imsi = req.imsi, nsapi = req.nsapi,
         requested = req.requested_address] {
          const PdpContext* c = self.contexts_.find(key(imsi, nsapi));
          if (c == nullptr || c->active) return;
          auto again = pool_message<GtpCreatePdpContextRequest>();
          again->imsi = imsi;
          again->nsapi = nsapi;
          again->sgsn_name = self.name();
          again->sgsn_teid = c->sgsn_teid;
          again->requested_address = requested;
          again->qos = c->qos;
          self.send(self.ggsn(), std::move(again));
        },
        [&self, imsi = req.imsi, nsapi = req.nsapi] {
          const PdpContext* c = self.contexts_.find(key(imsi, nsapi));
          if (c == nullptr || c->active) return;
          auto rej = pool_message<ActivatePdpContextReject>();
          rej->imsi = imsi;
          rej->nsapi = nsapi;
          rej->cause = 38;  // network failure: GGSN unreachable
          self.send(c->holder, std::move(rej));
          self.by_teid_.erase(c->sgsn_teid.value());
          self.contexts_.erase(key(imsi, nsapi));
        });
  })
  .on([](Sgsn& self, const GtpCreatePdpContextResponse& rsp) {
    self.retx_.ack(retx_key(RetxKind::kGtpCreate, rsp.imsi, rsp.nsapi));
    PdpContext* found = self.contexts_.find(key(rsp.imsi, rsp.nsapi));
    if (found == nullptr) return;
    PdpContext& ctx = *found;
    if (!rsp.success) {
      auto rej = pool_message<ActivatePdpContextReject>();
      rej->imsi = rsp.imsi;
      rej->nsapi = rsp.nsapi;
      rej->cause = rsp.cause;
      self.send(ctx.holder, std::move(rej));
      self.by_teid_.erase(ctx.sgsn_teid.value());
      self.contexts_.erase(key(rsp.imsi, rsp.nsapi));
      return;
    }
    ctx.address = rsp.address;
    ctx.ggsn_teid = rsp.ggsn_teid;
    ctx.qos = rsp.qos;
    ctx.active = true;
    ++self.net().metrics().counter(self.name() + "/pdp_activations");
    self.net().metrics().gauge(self.name() + "/pdp_contexts") =
        static_cast<double>(self.contexts_.size());
    auto acc = pool_message<ActivatePdpContextAccept>();
    acc->imsi = rsp.imsi;
    acc->nsapi = rsp.nsapi;
    acc->address = rsp.address;
    acc->qos = rsp.qos;
    self.send(ctx.holder, std::move(acc));
  })
  .on([](Sgsn& self, const DeactivatePdpContextRequest& req,
         const Envelope& env) {
    PdpContext* ctx = self.contexts_.find(key(req.imsi, req.nsapi));
    if (ctx == nullptr) {
      auto acc = pool_message<DeactivatePdpContextAccept>();
      acc->imsi = req.imsi;
      acc->nsapi = req.nsapi;
      self.send(env.from, std::move(acc));
      return;
    }
    if (ctx->deleting) {
      // Duplicate deactivation: the in-flight GTP delete answers it.
      return;
    }
    ctx->deleting = true;
    auto del = pool_message<GtpDeletePdpContextRequest>();
    del->imsi = req.imsi;
    del->nsapi = req.nsapi;
    del->teid = ctx->ggsn_teid;
    self.send(self.ggsn(), std::move(del));
    self.retx_.arm(
        retx_key(RetxKind::kGtpDelete, req.imsi, req.nsapi),
        [&self, imsi = req.imsi, nsapi = req.nsapi] {
          const PdpContext* c = self.contexts_.find(key(imsi, nsapi));
          if (c == nullptr || !c->deleting) return;
          auto again = pool_message<GtpDeletePdpContextRequest>();
          again->imsi = imsi;
          again->nsapi = nsapi;
          again->teid = c->ggsn_teid;
          self.send(self.ggsn(), std::move(again));
        },
        [&self, imsi = req.imsi, nsapi = req.nsapi] {
          // GGSN unreachable: confirm toward the holder anyway and drop
          // the local context; the GGSN side ages out on its own.
          const PdpContext* c = self.contexts_.find(key(imsi, nsapi));
          if (c == nullptr) return;
          NodeId holder = c->holder;
          self.by_teid_.erase(c->sgsn_teid.value());
          self.contexts_.erase(key(imsi, nsapi));
          auto acc = pool_message<DeactivatePdpContextAccept>();
          acc->imsi = imsi;
          acc->nsapi = nsapi;
          self.send(holder, std::move(acc));
        });
    // Deletion confirmation arrives as GTP_Delete_PDP_Context_Response.
  })
  .on([](Sgsn& self, const GtpDeletePdpContextResponse& rsp) {
    self.retx_.ack(retx_key(RetxKind::kGtpDelete, rsp.imsi, rsp.nsapi));
    const PdpContext* ctx = self.contexts_.find(key(rsp.imsi, rsp.nsapi));
    if (ctx == nullptr) return;
    NodeId holder = ctx->holder;
    self.by_teid_.erase(ctx->sgsn_teid.value());
    self.contexts_.erase(key(rsp.imsi, rsp.nsapi));
    ++self.net().metrics().counter(self.name() + "/pdp_deactivations");
    self.net().metrics().gauge(self.name() + "/pdp_contexts") =
        static_cast<double>(self.contexts_.size());
    auto acc = pool_message<DeactivatePdpContextAccept>();
    acc->imsi = rsp.imsi;
    acc->nsapi = rsp.nsapi;
    self.send(holder, std::move(acc));
  })
  .on([](Sgsn& self, const GtpPduNotificationRequest& note,
         const Envelope& env) {
    auto rsp = pool_message<GtpPduNotificationResponse>();
    rsp->imsi = note.imsi;
    rsp->address = note.address;
    self.send(env.from, std::move(rsp));
    const Attachment* at = self.attachments_.find(note.imsi);
    if (at == nullptr || !at->attached) {
      VG_WARN("sgsn", self.name() << ": PDU notification for unattached "
                                  << note.imsi.to_string());
      return;
    }
    auto req = pool_message<RequestPdpContextActivation>();
    req->imsi = note.imsi;
    req->nsapi = Nsapi(5);
    req->address = note.address;
    self.send(at->holder, std::move(req));
  })
  .on([](Sgsn& self, const GbUnitData& up) {
    // Uplink: pick the sender's context whose PDP address matches the
    // datagram source; fall back to the subscriber's other active context.
    // Two direct probes of the NSAPIs in use (5 = signaling, 6 = voice) —
    // this runs per tunneled packet, so it must not scan the context table.
    auto decoded = MessageRegistry::instance().decode(up.payload);
    IpAddress src;
    if (decoded.ok()) {
      if (const auto* dgram = message_cast<IpDatagram>(decoded.value().get())) {
        src = dgram->src;
      }
    }
    const PdpContext* chosen = nullptr;
    for (std::uint8_t n : {std::uint8_t{5}, std::uint8_t{6}}) {
      const PdpContext* ctx = self.contexts_.find(key(up.imsi, Nsapi(n)));
      if (ctx == nullptr || !ctx->active) continue;
      if (ctx->address == src) {
        chosen = ctx;
        break;
      }
      if (chosen == nullptr) chosen = ctx;
    }
    if (chosen == nullptr) {
      VG_WARN("sgsn", self.name() << ": uplink data without PDP context from "
                                  << up.imsi.to_string());
      return;
    }
    auto pdu = pool_message<GtpPdu>();
    pdu->teid = chosen->ggsn_teid;
    pdu->payload = up.payload;
    self.send(self.ggsn(), std::move(pdu));
  })
  .on([](Sgsn& self, const GtpPdu& pdu) {
    const std::uint64_t* ctx_key = self.by_teid_.find(pdu.teid.value());
    if (ctx_key == nullptr) {
      VG_WARN("sgsn", self.name() << ": downlink PDU for unknown "
                                  << pdu.teid.to_string());
      return;
    }
    const PdpContext& ctx = *self.contexts_.find(*ctx_key);
    auto down = pool_message<GbUnitData>();
    down->imsi = ctx.imsi;
    down->payload = pdu.payload;
    self.send(ctx.holder, std::move(down));
  });
  return table;
}

void Sgsn::on_message(const Envelope& env) {
  if (handler_table().dispatch(*this, *env.msg, env)) return;
  VG_WARN("sgsn", name() << ": unhandled " << env.msg->name());
}

}  // namespace vgprs
