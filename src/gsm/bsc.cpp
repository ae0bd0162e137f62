#include "gsm/bsc.hpp"

#include <stdexcept>

#include "common/log.hpp"
#include "gsm/bts.hpp"

namespace vgprs {

void Bsc::adopt_bts(const Bts& bts) { adopt_bts(bts.id(), bts.cell()); }

void Bsc::adopt_bts(NodeId bts, CellId cell) { bts_by_cell_[cell] = bts; }

void Bsc::initiate_handover(Imsi imsi, CallRef call_ref, CellId target_cell) {
  auto req = pool_message<AHandoverRequired>();
  req->imsi = imsi;
  req->call_ref = call_ref;
  req->target_cell = target_cell;
  send(msc(), std::move(req));
}

NodeId Bsc::msc() const {
  Node* n = net().node_by_name(config_.msc_name);
  if (n == nullptr) {
    throw std::logic_error(name() + ": no MSC " + config_.msc_name);
  }
  return n->id();
}

NodeId Bsc::bts_for(const Imsi& imsi) const {
  auto it = bts_by_imsi_.find(imsi);
  return it == bts_by_imsi_.end() ? NodeId{} : it->second;
}

const Bsc::Handlers& Bsc::handler_table() {
  static const Handlers table = Handlers{}
  // Handlers.
  .on([](Bsc& self, const AbisChannelRequest& cr, const Envelope& env) {
    self.note_ms(cr.imsi, env.from);
    if (self.sdcch_in_use_ >= self.config_.sdcch_channels) {
      VG_WARN("bsc", self.name() << ": SDCCH congestion, request from "
                                 << cr.imsi.to_string() << " dropped");
      return;  // the MS's request timer will expire
    }
    ++self.sdcch_in_use_;
    auto out = pool_message<AbisImmediateAssignment>();
    out->imsi = cr.imsi;
    out->channel = self.next_channel_++;
    self.send(env.from, std::move(out));
  })
  .on([](Bsc& self, const AAssignmentRequest& ar) {
    if (self.tch_in_use_ >= self.config_.tch_channels) {
      VG_WARN("bsc", self.name() << ": TCH congestion for "
                                 << ar.imsi.to_string());
      return;
    }
    ++self.tch_in_use_;
    NodeId bts = self.bts_for(ar.imsi);
    if (!bts.valid()) return;
    auto out = pool_message<AbisAssignmentCommand>();
    out->imsi = ar.imsi;
    out->call_ref = ar.call_ref;
    out->channel = self.next_channel_++;
    self.send(bts, std::move(out));
  })
  .on([](Bsc& self, const AClearCommand& clear) {
    if (self.sdcch_in_use_ > 0) --self.sdcch_in_use_;
    if (self.tch_in_use_ > 0) --self.tch_in_use_;
    auto out = pool_message<AClearComplete>();
    out->imsi = clear.imsi;
    out->call_ref = clear.call_ref;
    self.send(self.msc(), std::move(out));
  })
  .on([](Bsc& self, const APaging& pg) {
    // Page every cell of the location area (all BTSs of this BSC).
    for (const auto& [cell, bts] : self.bts_by_cell_) {
      (void)cell;
      auto out = pool_message<AbisPaging>();
      static_cast<PagingInfo&>(*out) = static_cast<const PagingInfo&>(pg);
      self.send(bts, std::move(out));
    }
  })
  .on([](Bsc& self, const AHandoverRequest& hreq, const Envelope& env) {
    // Target-BSC side of inter-system handoff: reserve a channel in the
    // requested cell and acknowledge to the requesting MSC.
    auto ack = pool_message<AHandoverRequestAck>();
    ack->imsi = hreq.imsi;
    ack->call_ref = hreq.call_ref;
    ack->target_cell = hreq.target_cell;
    if (self.tch_in_use_ >= self.config_.tch_channels ||
        !self.bts_by_cell_.contains(hreq.target_cell)) {
      ack->channel = 0;  // failure indication
    } else {
      ++self.tch_in_use_;
      ack->channel = self.next_channel_++;
    }
    self.send(env.from, std::move(ack));
  })
  .on([](Bsc& self, const AbisHandoverAccess& hacc, const Envelope& env) {
    // The MS arrived on our radio resources: adopt it and tell the MSC.
    self.note_ms(hacc.imsi, env.from);
    auto out = pool_message<AHandoverDetect>();
    out->imsi = hacc.imsi;
    out->call_ref = hacc.call_ref;
    self.send(self.msc(), std::move(out));
  })

  // Uplink: Abis -> A.
  .on<&Bsc::relay_up<AbisLocationUpdate, ALocationUpdate>>()
  .on<&Bsc::relay_up<AbisAuthResponse, AAuthResponse>>()
  .on<&Bsc::relay_up<AbisCipherModeComplete, ACipherModeComplete>>()
  .on<&Bsc::relay_up<AbisCmServiceRequest, ACmServiceRequest>>()
  .on<&Bsc::relay_up<AbisSetup, ASetup>>()
  .on<&Bsc::relay_up<AbisCallProceeding, ACallProceeding>>()
  .on<&Bsc::relay_up<AbisAlerting, AAlerting>>()
  .on<&Bsc::relay_up<AbisConnect, AConnect>>()
  .on<&Bsc::relay_up<AbisConnectAck, AConnectAck>>()
  .on<&Bsc::relay_up<AbisDisconnect, ADisconnect>>()
  .on<&Bsc::relay_up<AbisRelease, ARelease>>()
  .on<&Bsc::relay_up<AbisReleaseComplete, AReleaseComplete>>()
  .on<&Bsc::relay_up<AbisPagingResponse, APagingResponse>>()
  .on<&Bsc::relay_up<AbisAssignmentComplete, AAssignmentComplete>>()
  .on<&Bsc::relay_up<AbisHandoverComplete, AHandoverComplete>>()
  .on<&Bsc::relay_up<AbisVoiceFrame, AVoiceFrame>>()
  .on<&Bsc::relay_up<AbisImsiDetach, AImsiDetach>>()

  // Downlink: A -> Abis.
  .on<&Bsc::relay_down<ALocationUpdateAccept, AbisLocationUpdateAccept>>()
  .on<&Bsc::relay_down<AAuthRequest, AbisAuthRequest>>()
  .on<&Bsc::relay_down<ACipherModeCommand, AbisCipherModeCommand>>()
  .on<&Bsc::relay_down<ACmServiceAccept, AbisCmServiceAccept>>()
  .on<&Bsc::relay_down<ASetup, AbisSetup>>()
  .on<&Bsc::relay_down<ACallProceeding, AbisCallProceeding>>()
  .on<&Bsc::relay_down<AAlerting, AbisAlerting>>()
  .on<&Bsc::relay_down<AConnect, AbisConnect>>()
  .on<&Bsc::relay_down<AConnectAck, AbisConnectAck>>()
  .on<&Bsc::relay_down<ADisconnect, AbisDisconnect>>()
  .on<&Bsc::relay_down<ARelease, AbisRelease>>()
  .on<&Bsc::relay_down<AReleaseComplete, AbisReleaseComplete>>()
  .on<&Bsc::relay_down<AHandoverCommand, AbisHandoverCommand>>()
  .on<&Bsc::relay_down<AVoiceFrame, AbisVoiceFrame>>()
  .on<&Bsc::relay_down<ALocationUpdateReject, AbisLocationUpdateReject>>()
  .on<&Bsc::relay_down<ACmServiceReject, AbisCmServiceReject>>();
  return table;
}

void Bsc::on_message(const Envelope& env) {
  if (handler_table().dispatch(*this, *env.msg, env)) return;
  VG_WARN("bsc", name() << ": unhandled " << env.msg->name());
}

}  // namespace vgprs
