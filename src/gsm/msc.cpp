#include "gsm/msc.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace vgprs {

NodeId GsmMsc::pstn() const {
  Node* n = net().node_by_name(config_.pstn_name);
  if (n == nullptr) throw std::logic_error(name() + ": no PSTN switch");
  return n->id();
}

NodeId GsmMsc::hlr() const {
  Node* n = net().node_by_name(config_.hlr_name);
  if (n == nullptr) throw std::logic_error(name() + ": no HLR");
  return n->id();
}

bool GsmMsc::is_msrn(const Msisdn& called) const {
  return config_.msrn_prefix != 0 &&
         called.value() / 100000 == config_.msrn_prefix;
}

// --- MO leg: GSM -> ISUP ------------------------------------------------------

void GsmMsc::route_mo_call(MsContext& ctx) {
  Cic cic = allocate_cic();
  call_by_cic_[cic] = ctx.call_ref;
  cic_by_call_[ctx.call_ref] = cic;
  trunk_peer_[cic] = pstn();
  auto iam = pool_message<IsupIam>();
  iam->cic = cic;
  iam->calling = ctx.calling;
  iam->called = ctx.called;
  send(pstn(), std::move(iam));
}

void GsmMsc::release_trunk_leg(MsContext& ctx, ClearCause cause) {
  auto it = cic_by_call_.find(ctx.call_ref);
  if (it == cic_by_call_.end()) return;
  auto rel = pool_message<IsupRel>();
  rel->cic = it->second;
  rel->cause = static_cast<std::uint8_t>(cause);
  send(trunk_peer_[it->second], std::move(rel));
}

void GsmMsc::on_ms_disconnect(MsContext& ctx, ClearCause cause) {
  release_trunk_leg(ctx, cause);
  complete_ms_release(ctx);
}

void GsmMsc::on_call_aborted(MsContext& ctx) {
  release_trunk_leg(ctx, ClearCause::kNetworkFailure);
}

void GsmMsc::on_mt_alerting(MsContext& ctx) {
  auto it = cic_by_call_.find(ctx.call_ref);
  if (it == cic_by_call_.end()) return;
  auto acm = pool_message<IsupAcm>();
  acm->cic = it->second;
  send(trunk_peer_[it->second], std::move(acm));
}

void GsmMsc::on_mt_connected(MsContext& ctx) {
  auto it = cic_by_call_.find(ctx.call_ref);
  if (it == cic_by_call_.end()) return;
  auto anm = pool_message<IsupAnm>();
  anm->cic = it->second;
  send(trunk_peer_[it->second], std::move(anm));
}

void GsmMsc::on_call_cleared(MsContext& ctx) {
  auto it = cic_by_call_.find(ctx.call_ref);
  if (it == cic_by_call_.end()) return;
  call_by_cic_.erase(it->second);
  trunk_peer_.erase(it->second);
  cic_by_call_.erase(it);
}

void GsmMsc::on_uplink_voice(MsContext& ctx, const VoiceFrameInfo& frame) {
  auto it = cic_by_call_.find(ctx.call_ref);
  if (it == cic_by_call_.end()) return;
  auto voice = pool_message<TrunkVoice>();
  voice->cic = it->second;
  voice->seq = frame.seq;
  voice->origin_us = frame.origin_us;
  send(trunk_peer_[it->second], std::move(voice));
}

const MscBase::Handlers& GsmMsc::handler_table() {
  static const Handlers table = Handlers(MscBase::handler_table())
  .on([](GsmMsc& self, const IsupIam& iam, const Envelope& env) {
    if (self.is_msrn(iam.called)) {
      // Terminating leg of GSM call delivery: resolve MSRN -> IMSI at the
      // co-located VLR, then page and set up the call.
      Msrn msrn(iam.called.value());
      self.pending_msrn_[msrn] =
          PendingIncoming{iam.cic, env.from, iam.calling};
      auto query = pool_message<MapSendInfoForIncomingCall>();
      query->msrn = msrn;
      self.send(self.vlr(), std::move(query));
      return;
    }
    if (self.config_.gmsc_role) {
      // Gateway role: interrogate the HLR for the roaming number, then
      // forward the call leg (this is what trombones, Fig. 7).
      self.pending_sri_[iam.called] =
          PendingIncoming{iam.cic, env.from, iam.calling};
      auto sri = pool_message<MapSendRoutingInformation>();
      sri->msisdn = iam.called;
      sri->gmsc_name = self.name();
      self.send(self.hlr(), std::move(sri));
      return;
    }
    auto rel = pool_message<IsupRel>();
    rel->cic = iam.cic;
    rel->cause = 1;  // unallocated number
    self.send(env.from, std::move(rel));
  })
  .on([](GsmMsc& self, const MapSendInfoForIncomingCallAck& ack) {
    auto it = self.pending_msrn_.find(ack.msrn);
    if (it == self.pending_msrn_.end()) return;
    PendingIncoming pending = it->second;
    self.pending_msrn_.erase(it);
    if (!ack.found) {
      auto rel = pool_message<IsupRel>();
      rel->cic = pending.cic;
      rel->cause = 1;
      self.send(pending.from, std::move(rel));
      return;
    }
    CallRef call_ref(0x40000000u | pending.cic);
    self.call_by_cic_[pending.cic] = call_ref;
    self.cic_by_call_[call_ref] = pending.cic;
    self.trunk_peer_[pending.cic] = pending.from;
    if (!self.start_mt_call(ack.imsi, pending.calling, call_ref)) {
      auto rel = pool_message<IsupRel>();
      rel->cic = pending.cic;
      rel->cause = 17;  // busy
      self.send(pending.from, std::move(rel));
    }
  })
  .on([](GsmMsc& self, const MapSendRoutingInformationAck& ack) {
    auto it = self.pending_sri_.find(ack.msisdn);
    if (it == self.pending_sri_.end()) return;
    PendingIncoming pending = it->second;
    self.pending_sri_.erase(it);
    if (!ack.found) {
      auto rel = pool_message<IsupRel>();
      rel->cic = pending.cic;
      rel->cause = 1;
      self.send(pending.from, std::move(rel));
      return;
    }
    // Forward the call toward the serving MSC by dialling the MSRN into
    // the PSTN; we stay in the path as a transit exchange with a fresh
    // circuit on the outgoing trunk.
    Cic out_cic = allocate_cic();
    self.transit_legs_.push_back(
        TransitLeg{pending.from, pending.cic, self.pstn(), out_cic});
    self.transit_index_[pending.cic] = self.transit_legs_.size() - 1;
    self.transit_index_[out_cic] = self.transit_legs_.size() - 1;
    auto iam = pool_message<IsupIam>();
    iam->cic = out_cic;
    iam->calling = pending.calling;
    iam->called = Msisdn(ack.msrn.value(), 12);
    self.send(self.pstn(), std::move(iam));
  })
  .on([](GsmMsc& self, const IsupAcm& acm, const Envelope& env) {
    if (self.relay_transit(env, acm)) return;
    auto it = self.call_by_cic_.find(acm.cic);
    if (it == self.call_by_cic_.end()) return;
    MsContext* ctx = self.context_by_call(it->second);
    if (ctx != nullptr && ctx->proc == Proc::kMoCall) {
      self.notify_mo_alerting(*ctx);
    }
  })
  .on([](GsmMsc& self, const IsupAnm& anm, const Envelope& env) {
    if (self.relay_transit(env, anm)) return;
    auto it = self.call_by_cic_.find(anm.cic);
    if (it == self.call_by_cic_.end()) return;
    MsContext* ctx = self.context_by_call(it->second);
    if (ctx != nullptr && ctx->proc == Proc::kMoCall) {
      self.notify_mo_connect(*ctx);
    }
  })
  .on([](GsmMsc& self, const IsupRel& rel, const Envelope& env) {
    if (self.relay_transit(env, rel)) return;
    auto rlc = pool_message<IsupRlc>();
    rlc->cic = rel.cic;
    self.send(env.from, std::move(rlc));
    auto it = self.call_by_cic_.find(rel.cic);
    if (it == self.call_by_cic_.end()) return;
    if (MsContext* ctx = self.context_by_call(it->second)) {
      self.release_from_network(*ctx, static_cast<ClearCause>(rel.cause));
    }
  })
  .on([](GsmMsc& self, const IsupRlc& rlc, const Envelope& env) {
    if (!self.relay_transit(env, rlc)) return;  // confirmation of our REL
    auto it = self.transit_index_.find(rlc.cic);
    if (it != self.transit_index_.end()) {
      const TransitLeg& leg = self.transit_legs_[it->second];
      self.transit_index_.erase(leg.up_cic == rlc.cic ? leg.down_cic
                                                      : leg.up_cic);
      self.transit_index_.erase(rlc.cic);
    }
  })
  .on([](GsmMsc& self, const TrunkVoice& voice, const Envelope& env) {
    if (self.relay_transit(env, voice)) return;
    auto it = self.call_by_cic_.find(voice.cic);
    if (it == self.call_by_cic_.end()) return;
    if (MsContext* ctx = self.context_by_call(it->second)) {
      self.send_downlink_voice(*ctx, voice.seq, voice.origin_us);
    }
  });
  return table;
}

}  // namespace vgprs
