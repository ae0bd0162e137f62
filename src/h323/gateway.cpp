#include "h323/gateway.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace vgprs {

NodeId H323Gateway::pstn() const {
  Node* n = net().node_by_name(config_.pstn_name);
  if (n == nullptr) throw std::logic_error(name() + ": no PSTN switch");
  return n->id();
}

NodeId H323Gateway::fallback() const {
  Node* n = net().node_by_name(config_.fallback_pstn_name);
  if (n == nullptr) throw std::logic_error(name() + ": no fallback switch");
  return n->id();
}

H323Gateway::Call* H323Gateway::call_by_cic(Cic cic) {
  auto it = by_cic_.find(cic);
  return it == by_cic_.end() ? nullptr : call_by_ref(it->second);
}

H323Gateway::Call* H323Gateway::call_by_ref(CallRef ref) {
  auto it = calls_.find(ref);
  return it == calls_.end() ? nullptr : &it->second;
}

void H323Gateway::register_endpoint() {
  auto rrq = pool_message<RasRrq>();
  rrq->call_signal_address = TransportAddress(ip(), config_.signal_port);
  rrq->alias = config_.service_alias;
  send_ip(config_.gk_ip, *rrq);
}

// --- PSTN side -----------------------------------------------------------------

void H323Gateway::on_other(const Envelope& env) {
  VG_WARN("gw", name() << ": unhandled " << env.msg->name());
}

const IpEndpoint::Handlers& H323Gateway::handler_table() {
  static const Handlers table = Handlers(IpEndpoint::handler_table())
  .on([](H323Gateway& self, const IsupIam& iam, const Envelope& env) {
    // A call entered from the PSTN (Fig. 8, step (1)).  Check with the
    // gatekeeper whether the callee is reachable over VoIP (step (2)).
    CallRef ref(0x60000000u | ++self.call_seq_);
    Call& call = self.calls_[ref];
    call.cic = iam.cic;
    call.trunk_peer = env.from;
    call.calling = iam.calling;
    call.called = iam.called;
    self.by_cic_[iam.cic] = ref;
    auto arq = pool_message<RasArq>();
    arq->endpoint_id = self.endpoint_id_;
    arq->call_ref = ref;
    arq->calling = iam.calling;
    arq->called = iam.called;
    self.send_ip(self.config_.gk_ip, *arq);
  })
  .on([](H323Gateway& self, const IsupAcm& acm, const Envelope& env) {
    self.relay_transit(env, acm);
  })
  .on([](H323Gateway& self, const IsupAnm& anm, const Envelope& env) {
    self.relay_transit(env, anm);
  })
  .on([](H323Gateway& self, const IsupRel& rel, const Envelope& env) {
    if (self.relay_transit(env, rel)) return;
    // Caller hung up a VoIP-completed call: release the H.323 leg.
    Call* call = self.call_by_cic(rel.cic);
    if (call != nullptr) {
      auto q_rel = pool_message<Q931ReleaseComplete>();
      auto ref = self.by_cic_[rel.cic];
      q_rel->call_ref = ref;
      q_rel->cause = rel.cause;
      self.send_ip(call->remote_signal, *q_rel);
      auto drq = pool_message<RasDrq>();
      drq->endpoint_id = self.endpoint_id_;
      drq->call_ref = ref;
      self.send_ip(self.config_.gk_ip, *drq);
      auto rlc = pool_message<IsupRlc>();
      rlc->cic = rel.cic;
      self.send(env.from, std::move(rlc));
      self.by_cic_.erase(rel.cic);
      self.calls_.erase(ref);
    }
  })
  .on([](H323Gateway& self, const IsupRlc& rlc, const Envelope& env) {
    if (self.relay_transit(env, rlc)) {
      auto it = self.transit_index_.find(rlc.cic);
      if (it != self.transit_index_.end()) {
        const TransitLeg& leg = self.transit_legs_[it->second];
        Cic in_cic = leg.up_cic;
        self.transit_index_.erase(leg.down_cic);
        self.transit_index_.erase(leg.up_cic);
        auto ref = self.by_cic_.find(in_cic);
        if (ref != self.by_cic_.end()) {
          self.calls_.erase(ref->second);
          self.by_cic_.erase(ref);
        }
      }
    }
  })
  .on([](H323Gateway& self, const TrunkVoice& voice, const Envelope& env) {
    if (self.relay_transit(env, voice)) return;
    Call* call = self.call_by_cic(voice.cic);
    if (call != nullptr && call->remote_media.valid()) {
      auto rtp = pool_message<RtpPacket>();
      rtp->ssrc = self.endpoint_id_;
      rtp->seq = voice.seq;
      rtp->origin_us = voice.origin_us;
      self.send_ip(call->remote_media, *rtp);
    }
  });
  return table;
}

// --- IP side --------------------------------------------------------------------

void H323Gateway::on_other_ip(const IpDatagramInfo&, const Message& inner) {
  VG_WARN("gw", name() << ": unhandled " << inner.name());
}

const IpEndpoint::IpHandlers& H323Gateway::ip_table() {
  static const IpHandlers table = IpHandlers{}
  .on([](H323Gateway& self, const RasRcf& rcf) {
    self.endpoint_id_ = rcf.endpoint_id;
  })
  .on([](H323Gateway& self, const RasAcf& acf) {
    Call* call = self.call_by_ref(acf.call_ref);
    if (call == nullptr) return;
    // Callee found in the gatekeeper's table: complete over VoIP
    // (Fig. 8 step (3)).
    call->voip = true;
    ++self.voip_calls_;
    call->remote_signal = acf.dest_call_signal_address.ip();
    auto setup = pool_message<Q931Setup>();
    setup->call_ref = acf.call_ref;
    setup->calling = call->calling;
    setup->called = call->called;
    setup->src_signal_address = TransportAddress(self.ip(),
                                                 self.config_.signal_port);
    setup->media_address = TransportAddress(self.ip(), self.config_.media_port);
    self.send_ip(call->remote_signal, *setup);
  })
  .on([](H323Gateway& self, const RasArj& arj) {
    Call* call = self.call_by_ref(arj.call_ref);
    if (call == nullptr) return;
    // Callee not registered in this zone: instruct normal PSTN routing
    // (Fig. 8 discussion -> international trunk), with a fresh circuit on
    // the outgoing trunk.
    ++self.fallback_calls_;
    Cic out_cic = allocate_cic();
    self.transit_legs_.push_back(
        TransitLeg{call->trunk_peer, call->cic, self.fallback(), out_cic});
    self.transit_index_[call->cic] = self.transit_legs_.size() - 1;
    self.transit_index_[out_cic] = self.transit_legs_.size() - 1;
    auto iam = pool_message<IsupIam>();
    iam->cic = out_cic;
    iam->calling = call->calling;
    iam->called = call->called;
    self.send(self.fallback(), std::move(iam));
  })
  // Listed so they are taken without the "unhandled" warning.
  .on([](H323Gateway&, const Q931CallProceeding&) {
  })
  .on([](H323Gateway& self, const Q931Alerting& alert) {
    Call* call = self.call_by_ref(alert.call_ref);
    if (call == nullptr) return;
    auto acm = pool_message<IsupAcm>();
    acm->cic = call->cic;
    self.send(call->trunk_peer, std::move(acm));
  })
  .on([](H323Gateway& self, const Q931Connect& conn) {
    Call* call = self.call_by_ref(conn.call_ref);
    if (call == nullptr) return;
    call->remote_media = conn.media_address.ip();
    auto anm = pool_message<IsupAnm>();
    anm->cic = call->cic;
    self.send(call->trunk_peer, std::move(anm));
  })
  .on([](H323Gateway& self, const Q931ReleaseComplete& rel) {
    Call* call = self.call_by_ref(rel.call_ref);
    if (call == nullptr) return;
    auto isup_rel = pool_message<IsupRel>();
    isup_rel->cic = call->cic;
    isup_rel->cause = rel.cause;
    self.send(call->trunk_peer, std::move(isup_rel));
    auto drq = pool_message<RasDrq>();
    drq->endpoint_id = self.endpoint_id_;
    drq->call_ref = rel.call_ref;
    self.send_ip(self.config_.gk_ip, *drq);
    self.by_cic_.erase(call->cic);
    self.calls_.erase(rel.call_ref);
  })
  .on([](H323Gateway&, const RasDcf&) {
  })
  .on([](H323Gateway& self, const RtpPacket& rtp, const IpDatagramInfo& dgram) {
    // Media from the VoIP leg toward the PSTN caller.
    for (auto& [ref, call] : self.calls_) {
      (void)ref;
      if (call.remote_media == dgram.src || call.voip) {
        auto voice = pool_message<TrunkVoice>();
        voice->cic = call.cic;
        voice->seq = rtp.seq;
        voice->origin_us = rtp.origin_us;
        self.send(call.trunk_peer, std::move(voice));
        return;
      }
    }
  });
  return table;
}

}  // namespace vgprs
