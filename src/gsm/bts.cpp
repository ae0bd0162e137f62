#include "gsm/bts.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace vgprs {

NodeId Bts::bsc() const {
  Node* n = net().node_by_name(bsc_name_);
  if (n == nullptr) throw std::logic_error(name() + ": no BSC " + bsc_name_);
  return n->id();
}

NodeId Bts::ms_node(const Imsi& imsi) const {
  auto it = ms_by_imsi_.find(imsi);
  return it == ms_by_imsi_.end() ? NodeId{} : it->second;
}

void Bts::broadcast_paging(const AbisPaging& info) {
  // The paging channel reaches every MS camped on the cell; each MS filters
  // on its own identity.  One page is one fan-out over the cell: one
  // message, one wire round-trip, one queued entry per shard.
  const NodeId bsc_id = bsc();
  net().neighbors(id(), paged_);
  std::erase(paged_, bsc_id);
  auto out = pool_message<UmPagingRequest>();
  static_cast<PagingInfo&>(*out) = static_cast<const PagingInfo&>(info);
  net().send_each(id(), paged_, std::move(out));
}

const Bts::Handlers& Bts::handler_table() {
  static const Handlers table = Handlers{}
  // Handlers.
  // Stamp the serving cell into uplink location/paging payloads instead of
  // the generic relay (the MS does not know the cell identity; the BTS does).
  .on([](Bts& self, const UmLocationUpdateRequest& lu, const Envelope& env) {
    self.note_ms(lu.imsi, env.from);
    auto out = pool_message<AbisLocationUpdate>();
    static_cast<LocationUpdateInfo&>(*out) =
        static_cast<const LocationUpdateInfo&>(lu);
    out->cell = self.cell_;
    out->lai = self.lai_;
    self.send(self.bsc(), std::move(out));
  })
  .on([](Bts& self, const UmPagingResponse& pr, const Envelope& env) {
    self.note_ms(pr.imsi, env.from);
    auto out = pool_message<AbisPagingResponse>();
    static_cast<PagingResponseInfo&>(*out) =
        static_cast<const PagingResponseInfo&>(pr);
    out->cell = self.cell_;
    self.send(self.bsc(), std::move(out));
  })

  // Handover access arrives at the *target* BTS: adopt the MS.
  .on<&Bts::relay_up<UmHandoverAccess, AbisHandoverAccess>>()
  .on<&Bts::broadcast_paging>()

  // Uplink: Um -> Abis.
  .on<&Bts::relay_up<UmChannelRequest, AbisChannelRequest>>()
  .on<&Bts::relay_up<UmAuthResponse, AbisAuthResponse>>()
  .on<&Bts::relay_up<UmCipherModeComplete, AbisCipherModeComplete>>()
  .on<&Bts::relay_up<UmCmServiceRequest, AbisCmServiceRequest>>()
  .on<&Bts::relay_up<UmSetup, AbisSetup>>()
  .on<&Bts::relay_up<UmCallProceeding, AbisCallProceeding>>()
  .on<&Bts::relay_up<UmAlerting, AbisAlerting>>()
  .on<&Bts::relay_up<UmConnect, AbisConnect>>()
  .on<&Bts::relay_up<UmConnectAck, AbisConnectAck>>()
  .on<&Bts::relay_up<UmDisconnect, AbisDisconnect>>()
  .on<&Bts::relay_up<UmRelease, AbisRelease>>()
  .on<&Bts::relay_up<UmReleaseComplete, AbisReleaseComplete>>()
  .on<&Bts::relay_up<UmAssignmentComplete, AbisAssignmentComplete>>()
  .on<&Bts::relay_up<UmHandoverComplete, AbisHandoverComplete>>()
  .on<&Bts::relay_up<UmVoiceFrame, AbisVoiceFrame>>()
  .on<&Bts::relay_up<UmImsiDetach, AbisImsiDetach>>()

  // Downlink: Abis -> Um.
  .on<&Bts::relay_down<AbisImmediateAssignment, UmImmediateAssignment>>()
  .on<&Bts::relay_down<AbisLocationUpdateAccept, UmLocationUpdateAccept>>()
  .on<&Bts::relay_down<AbisAuthRequest, UmAuthRequest>>()
  .on<&Bts::relay_down<AbisCipherModeCommand, UmCipherModeCommand>>()
  .on<&Bts::relay_down<AbisCmServiceAccept, UmCmServiceAccept>>()
  .on<&Bts::relay_down<AbisSetup, UmSetup>>()
  .on<&Bts::relay_down<AbisCallProceeding, UmCallProceeding>>()
  .on<&Bts::relay_down<AbisAlerting, UmAlerting>>()
  .on<&Bts::relay_down<AbisConnect, UmConnect>>()
  .on<&Bts::relay_down<AbisConnectAck, UmConnectAck>>()
  .on<&Bts::relay_down<AbisDisconnect, UmDisconnect>>()
  .on<&Bts::relay_down<AbisRelease, UmRelease>>()
  .on<&Bts::relay_down<AbisReleaseComplete, UmReleaseComplete>>()
  .on<&Bts::relay_down<AbisAssignmentCommand, UmAssignmentCommand>>()
  .on<&Bts::relay_down<AbisHandoverCommand, UmHandoverCommand>>()
  .on<&Bts::relay_down<AbisVoiceFrame, UmVoiceFrame>>()
  .on<&Bts::relay_down<AbisLocationUpdateReject, UmLocationUpdateReject>>()
  .on<&Bts::relay_down<AbisCmServiceReject, UmCmServiceReject>>();
  return table;
}

void Bts::on_message(const Envelope& env) {
  if (handler_table().dispatch(*this, *env.msg, env)) return;
  VG_WARN("bts", name() << ": unhandled " << env.msg->name());
}

}  // namespace vgprs
