#include "gsm/hlr.hpp"

#include "common/log.hpp"
#include "gsm/auth.hpp"

namespace vgprs {

void Hlr::provision(Imsi imsi, std::uint64_t ki, SubscriberProfile profile) {
  by_msisdn_[profile.msisdn] = imsi;
  records_[imsi] = SubscriberRecord{ki, std::move(profile), "", "", ""};
}

const Hlr::SubscriberRecord* Hlr::record(Imsi imsi) const {
  return records_.find(imsi);
}

std::optional<Imsi> Hlr::imsi_of(Msisdn msisdn) const {
  const Imsi* imsi = by_msisdn_.find(msisdn);
  if (imsi == nullptr) return std::nullopt;
  return *imsi;
}

bool Hlr::interrogation_allowed(NodeId requester) {
  if (!imsi_confidentiality_) return true;
  Node* n = net().node(requester);
  if (n != nullptr && trusted_peers_.contains(n->name())) return true;
  ++refused_interrogations_;
  return false;
}

const Hlr::Handlers& Hlr::handler_table() {
  static const Handlers table = Handlers{}
  .on([](Hlr& self, const MapSendAuthInfo& req, const Envelope& env) {
    const SubscriberRecord* rec = self.records_.find(req.imsi);
    auto ack = pool_message<MapSendAuthInfoAck>();
    ack->imsi = req.imsi;
    if (rec != nullptr) {
      for (int i = 0; i < 3; ++i) {
        ack->triplets.push_back(
            make_triplet(rec->ki, self.net().rng().next_u64()));
      }
    }
    self.send(env.from, std::move(ack));
  })
  .on([](Hlr& self, const MapUpdateLocation& ul, const Envelope& env) {
    SubscriberRecord* rec = self.records_.find(ul.imsi);
    if (rec == nullptr) {
      auto nack = pool_message<MapUpdateLocationAck>();
      nack->imsi = ul.imsi;
      nack->success = false;
      nack->cause = 1;  // unknown subscriber
      self.send(env.from, std::move(nack));
      return;
    }
    // Cancel the registration at the previous VLR, if it moved.
    if (!rec->vlr_name.empty() && rec->vlr_name != ul.vlr_name) {
      if (Node* old_vlr = self.net().node_by_name(rec->vlr_name)) {
        auto cancel = pool_message<MapCancelLocation>();
        cancel->imsi = ul.imsi;
        self.send(old_vlr->id(), std::move(cancel));
      }
    }
    rec->vlr_name = ul.vlr_name;
    rec->msc_name = ul.msc_name;
    self.pending_updates_[ul.imsi] = PendingUpdate{env.from, ul.imsi};
    auto isd = pool_message<MapInsertSubsData>();
    isd->imsi = ul.imsi;
    isd->profile = rec->profile;
    self.send(env.from, std::move(isd));
  })
  .on([](Hlr& self, const MapInsertSubsDataAck& ack) {
    const PendingUpdate* pending = self.pending_updates_.find(ack.imsi);
    if (pending == nullptr) return;
    auto done = pool_message<MapUpdateLocationAck>();
    done->imsi = ack.imsi;
    done->success = true;
    self.send(pending->requester, std::move(done));
    self.pending_updates_.erase(ack.imsi);
  })
  .on([](Hlr&, const MapCancelLocationAck&) {
    // nothing pending on it
  })
  .on([](Hlr& self, const MapSendRoutingInformation& sri, const Envelope& env) {
    auto imsi = self.imsi_of(sri.msisdn);
    const SubscriberRecord* rec =
        imsi.has_value() ? self.record(*imsi) : nullptr;
    if (!self.interrogation_allowed(env.from)) rec = nullptr;
    if (rec == nullptr || (rec->vlr_name.empty() && rec->sgsn_name.empty())) {
      auto nack = pool_message<MapSendRoutingInformationAck>();
      nack->msisdn = sri.msisdn;
      nack->found = false;
      self.send(env.from, std::move(nack));
      return;
    }
    if (rec->vlr_name.empty()) {
      // Packet-only registration (3G TR 23.821 style): no roaming number
      // exists; return the IMSI so the requester can drive GPRS-side
      // delivery.  Note this hands the confidential IMSI to whoever asks —
      // the paper's Section 6 objection to the TR architecture.
      auto ack = pool_message<MapSendRoutingInformationAck>();
      ack->msisdn = sri.msisdn;
      ack->imsi = *imsi;
      ack->found = true;
      self.send(env.from, std::move(ack));
      return;
    }
    Node* vlr = self.net().node_by_name(rec->vlr_name);
    if (vlr == nullptr) {
      VG_ERROR("hlr", self.name() << ": VLR " << rec->vlr_name << " missing");
      return;
    }
    self.pending_sri_[*imsi] = PendingSri{env.from, sri.msisdn};
    auto prn = pool_message<MapProvideRoamingNumber>();
    prn->imsi = *imsi;
    prn->msisdn = sri.msisdn;
    self.send(vlr->id(), std::move(prn));
  })
  .on([](Hlr& self, const MapProvideRoamingNumberAck& prn_ack) {
    const PendingSri* pending = self.pending_sri_.find(prn_ack.imsi);
    if (pending == nullptr) return;
    const SubscriberRecord* rec = self.record(prn_ack.imsi);
    auto ack = pool_message<MapSendRoutingInformationAck>();
    ack->msisdn = pending->msisdn;
    ack->imsi = prn_ack.imsi;
    ack->msrn = prn_ack.msrn;
    ack->serving_msc = rec != nullptr ? rec->msc_name : "";
    ack->found = true;
    self.send(pending->requester, std::move(ack));
    self.pending_sri_.erase(prn_ack.imsi);
  })
  .on([](Hlr& self, const MapSendRoutingInfoForGprs& req, const Envelope& env) {
    auto ack = pool_message<MapSendRoutingInfoForGprsAck>();
    ack->imsi = req.imsi;
    const SubscriberRecord* rec = self.record(req.imsi);
    if (!self.interrogation_allowed(env.from)) rec = nullptr;
    if (rec != nullptr && !rec->sgsn_name.empty()) {
      ack->sgsn_name = rec->sgsn_name;
      ack->found = true;
    }
    self.send(env.from, std::move(ack));
  })
  .on([](Hlr& self, const MapUpdateGprsLocation& gprs, const Envelope& env) {
    auto ack = pool_message<MapUpdateGprsLocationAck>();
    ack->imsi = gprs.imsi;
    SubscriberRecord* rec = self.records_.find(gprs.imsi);
    if (rec == nullptr) {
      ack->success = false;
      ack->cause = 1;
    } else {
      rec->sgsn_name = gprs.sgsn_name;
      ack->success = true;
    }
    self.send(env.from, std::move(ack));
  });
  return table;
}

void Hlr::on_message(const Envelope& env) {
  if (handler_table().dispatch(*this, *env.msg, env)) return;
  VG_WARN("hlr", name() << ": unhandled " << env.msg->name());
}

}  // namespace vgprs
