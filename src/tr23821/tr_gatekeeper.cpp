#include "tr23821/tr_gatekeeper.hpp"

#include <stdexcept>

#include "common/log.hpp"
#include "gprs/messages.hpp"

namespace vgprs {

void TrGatekeeper::admit(const RasAdmissionRequestInfo& arq,
                         IpAddress requester, const Registration& reg) {
  if (arq.answer_call) {
    confirm_admission(arq, requester, reg.transport);
    return;
  }
  // Any terminating alias might be a GPRS MS whose PDP context was
  // deactivated while idle; interrogate the HLR for its IMSI first
  // (the TR gatekeeper cannot tell from the alias alone).
  Node* hlr = net().node_by_name(tr_.hlr_name);
  if (hlr == nullptr) throw std::logic_error(name() + ": no HLR");
  pending_by_alias_[arq.called] =
      PendingAdmission{arq, requester, reg.transport, Imsi{}};
  ++hlr_queries_;
  auto sri = pool_message<MapSendRoutingInformation>();
  sri->msisdn = arq.called;
  sri->gmsc_name = name();
  send(hlr->id(), std::move(sri));
}

const IpEndpoint::Handlers& TrGatekeeper::handler_table() {
  static const Handlers table = Handlers(IpEndpoint::handler_table())
  .on([](TrGatekeeper& self, const MapSendRoutingInformationAck& ack) {
    auto it = self.pending_by_alias_.find(ack.msisdn);
    if (it == self.pending_by_alias_.end()) return;
    PendingAdmission& pending = it->second;
    if (!ack.found || !ack.imsi.valid()) {
      // Not a mobile subscriber: a plain H.323 endpoint — admit directly.
      self.confirm_admission(pending.arq, pending.requester, pending.dest);
      self.pending_by_alias_.erase(it);
      return;
    }
    // The IMSI is now known outside the GPRS operator's domain.
    ++self.imsis_learned_;
    pending.imsi = ack.imsi;
    self.alias_by_imsi_[ack.imsi] = ack.msisdn;
    ++self.ggsn_activations_;
    auto act = pool_message<GgsnActivationRequest>();
    act->imsi = ack.imsi;
    self.send_ip(self.tr_.ggsn_control_ip, *act);
  });
  return table;
}

const IpEndpoint::IpHandlers& TrGatekeeper::ip_table() {
  static const IpHandlers table = IpHandlers(Gatekeeper::ip_table())
  .on([](TrGatekeeper& self, const GgsnActivationResponse& rsp) {
    auto alias_it = self.alias_by_imsi_.find(rsp.imsi);
    if (alias_it == self.alias_by_imsi_.end()) return;
    auto it = self.pending_by_alias_.find(alias_it->second);
    self.alias_by_imsi_.erase(alias_it);
    if (it == self.pending_by_alias_.end()) return;
    PendingAdmission pending = it->second;
    self.pending_by_alias_.erase(it);
    if (!rsp.success) {
      self.reject_admission(pending.arq, pending.requester,
                            ArjCause::kResourceUnavailable);
      return;
    }
    self.confirm_admission(pending.arq, pending.requester, pending.dest);
  });
  return table;
}

}  // namespace vgprs
