// TrGatekeeper: the 3G TR 23.821 gatekeeper.  Unlike the standard H.323
// gatekeeper vGPRS uses, it must (a) speak GSM MAP to the HLR to map a
// dialled MSISDN onto an IMSI, and (b) ask the GGSN to re-establish the
// callee's PDP context before admitting a call — both of which the paper
// criticises: a modified gatekeeper, longer call setup, and the IMSI
// leaving the GPRS operator's domain.
#pragma once

#include <string>
#include <unordered_map>

#include "gprs/messages.hpp"
#include "gsm/messages.hpp"
#include "h323/gatekeeper.hpp"

namespace vgprs {

class TrGatekeeper final : public Gatekeeper {
 public:
  struct TrConfig {
    std::string hlr_name;  // direct MAP access (the modification)
    IpAddress ggsn_control_ip;
  };

  /// IpEndpoint's table extended with the MAP answer from the HLR.
  static const Handlers& handler_table();
  /// Gatekeeper's RAS table extended with the GGSN's activation answer.
  static const IpHandlers& ip_table();

  TrGatekeeper(std::string name, IpAddress ip, std::string router_name,
               TrConfig tr)
      : Gatekeeper(std::move(name), ip, std::move(router_name), ip_table(),
                   handler_table()),
        tr_(std::move(tr)) {}

  [[nodiscard]] std::uint64_t hlr_queries() const { return hlr_queries_; }
  [[nodiscard]] std::uint64_t ggsn_activations() const {
    return ggsn_activations_;
  }
  /// IMSIs this (H.323-domain) node has learned — each one is a
  /// confidentiality violation by the paper's argument.
  [[nodiscard]] std::uint64_t imsis_learned() const { return imsis_learned_; }

 protected:
  void admit(const RasAdmissionRequestInfo& arq, IpAddress requester,
             const Registration& reg) override;

 private:
  struct PendingAdmission {
    RasAdmissionRequestInfo arq;
    IpAddress requester;
    TransportAddress dest;
    Imsi imsi;
  };

  TrConfig tr_;
  std::unordered_map<Msisdn, PendingAdmission> pending_by_alias_;
  std::unordered_map<Imsi, Msisdn> alias_by_imsi_;
  std::uint64_t hlr_queries_ = 0;
  std::uint64_t ggsn_activations_ = 0;
  std::uint64_t imsis_learned_ = 0;
};

}  // namespace vgprs
