#include "gsm/vlr.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace vgprs {

const Vlr::VisitorRecord* Vlr::visitor(Imsi imsi) const {
  return records_.find(imsi);
}

NodeId Vlr::hlr() const {
  Node* n = net().node_by_name(config_.hlr_name);
  if (n == nullptr) throw std::logic_error(name() + ": no HLR");
  return n->id();
}

void Vlr::reply_auth_info(NodeId to, Imsi imsi) {
  auto& rec = records_[imsi];
  auto ack = pool_message<MapSendAuthInfoAck>();
  ack->imsi = imsi;
  if (!rec.triplets.empty()) {
    ack->triplets.push_back(rec.triplets.front());
    rec.triplets.pop_front();
  }
  send(to, std::move(ack));
}

const Vlr::Handlers& Vlr::handler_table() {
  static const Handlers table = Handlers{}
  // (V)MSC asks for an authentication vector.
  .on([](Vlr& self, const MapSendAuthInfo& req, const Envelope& env) {
    auto& rec = self.records_[req.imsi];
    if (!rec.triplets.empty()) {
      self.reply_auth_info(env.from, req.imsi);
    } else {
      self.pending_auth_[req.imsi] = env.from;
      auto fwd = pool_message<MapSendAuthInfo>();
      fwd->imsi = req.imsi;
      self.send(self.hlr(), std::move(fwd));
    }
  })
  // HLR returns authentication vectors.
  .on([](Vlr& self, const MapSendAuthInfoAck& ack) {
    auto& rec = self.records_[ack.imsi];
    for (const auto& t : ack.triplets) rec.triplets.push_back(t);
    if (const NodeId* req = self.pending_auth_.find(ack.imsi); req != nullptr) {
      NodeId requester = *req;
      self.pending_auth_.erase(ack.imsi);
      self.reply_auth_info(requester, ack.imsi);
    }
  })
  // (V)MSC registers the subscriber in this VLR's area.
  .on([](Vlr& self, const MapUpdateLocationArea& ula, const Envelope& env) {
    auto& rec = self.records_[ula.imsi];
    rec.lai = ula.lai;
    rec.msc_name = ula.msc_name;
    self.pending_ula_[ula.imsi] = env.from;
    auto ul = pool_message<MapUpdateLocation>();
    ul->imsi = ula.imsi;
    ul->vlr_name = self.name();
    ul->msc_name = ula.msc_name;
    self.send(self.hlr(), std::move(ul));
  })
  // HLR pushes the subscription profile during location updating.
  .on([](Vlr& self, const MapInsertSubsData& isd, const Envelope& env) {
    auto& rec = self.records_[isd.imsi];
    rec.profile = isd.profile;
    rec.profile_valid = true;
    auto ack = pool_message<MapInsertSubsDataAck>();
    ack->imsi = isd.imsi;
    self.send(env.from, std::move(ack));
  })
  .on([](Vlr& self, const MapUpdateLocationAck& ul_ack) {
    const NodeId* pending = self.pending_ula_.find(ul_ack.imsi);
    if (pending == nullptr) return;
    NodeId requester = *pending;
    self.pending_ula_.erase(ul_ack.imsi);
    auto& rec = self.records_[ul_ack.imsi];
    auto ack = pool_message<MapUpdateLocationAreaAck>();
    ack->imsi = ul_ack.imsi;
    ack->success = ul_ack.success;
    ack->cause = ul_ack.cause;
    if (ul_ack.success) {
      rec.registered = true;
      rec.tmsi = Tmsi(self.next_tmsi_++);
      ack->new_tmsi = rec.tmsi;
      if (rec.profile_valid) ack->msisdn = rec.profile.msisdn;
    }
    self.send(requester, std::move(ack));
  })
  // Outgoing-call authorization (paper step 2.2).
  .on([](Vlr& self, const MapSendInfoForOutgoingCall& ocall,
         const Envelope& env) {
    auto ack = pool_message<MapSendInfoForOutgoingCallAck>();
    ack->imsi = ocall.imsi;
    const VisitorRecord* rec = self.records_.find(ocall.imsi);
    if (rec == nullptr || !rec->registered || !rec->profile_valid) {
      ack->success = false;
      ack->cause = 1;  // unidentified subscriber
    } else if (self.config_.country_code != 0 &&
               ocall.called.country_code() != self.config_.country_code &&
               !rec->profile.international_calls_allowed) {
      ack->success = false;
      ack->cause = 2;  // international calls barred
    } else {
      ack->success = true;
    }
    self.send(env.from, std::move(ack));
  })
  // HLR requests a roaming number for call delivery.
  .on([](Vlr& self, const MapProvideRoamingNumber& prn, const Envelope& env) {
    // MSRNs: <prefix> followed by a 5-digit rolling counter.
    Msrn msrn(self.config_.msrn_prefix * 100'000 + self.next_msrn_++);
    self.msrn_map_[msrn] = prn.imsi;
    auto ack = pool_message<MapProvideRoamingNumberAck>();
    ack->imsi = prn.imsi;
    ack->msrn = msrn;
    self.send(env.from, std::move(ack));
  })
  // Serving MSC resolves an MSRN from an incoming IAM.
  .on([](Vlr& self, const MapSendInfoForIncomingCall& icall,
         const Envelope& env) {
    auto ack = pool_message<MapSendInfoForIncomingCallAck>();
    ack->msrn = icall.msrn;
    if (const Imsi* imsi = self.msrn_map_.find(icall.msrn); imsi != nullptr) {
      ack->imsi = *imsi;
      ack->found = true;
      const VisitorRecord* rec = self.records_.find(*imsi);
      if (rec != nullptr && rec->profile_valid) {
        ack->msisdn = rec->profile.msisdn;
      }
      self.msrn_map_.erase(icall.msrn);  // MSRNs are single-use
    }
    self.send(env.from, std::move(ack));
  })
  .on([](Vlr& self, const MapCancelLocation& cancel, const Envelope& env) {
    // Propagate the cancellation to the serving (V)MSC so it can purge its
    // MS table (and, for a VMSC, detach from GPRS and unregister at the
    // gatekeeper).
    const VisitorRecord* rec = self.records_.find(cancel.imsi);
    if (rec != nullptr && !rec->msc_name.empty()) {
      if (Node* msc = self.net().node_by_name(rec->msc_name)) {
        auto fwd = pool_message<MapCancelLocation>();
        fwd->imsi = cancel.imsi;
        self.send(msc->id(), std::move(fwd));
      }
    }
    self.records_.erase(cancel.imsi);
    auto ack = pool_message<MapCancelLocationAck>();
    ack->imsi = cancel.imsi;
    self.send(env.from, std::move(ack));
  });
  return table;
}

void Vlr::on_message(const Envelope& env) {
  if (handler_table().dispatch(*this, *env.msg, env)) return;
  VG_WARN("vlr", name() << ": unhandled " << env.msg->name());
}

}  // namespace vgprs
