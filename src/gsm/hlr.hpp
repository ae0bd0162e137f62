// Home Location Register: the permanent subscriber database, including the
// AuC function (triplet generation from Ki) and call-delivery routing
// (MAP_Send_Routing_Information -> Provide_Roaming_Number, the query chain
// behind the Fig. 7 tromboning scenario).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>

#include "gsm/messages.hpp"
#include "sim/network.hpp"
#include "sim/subscriber_pool.hpp"

namespace vgprs {

class Hlr final : public Node {
 public:
  struct SubscriberRecord {
    std::uint64_t ki = 0;
    SubscriberProfile profile;
    std::string vlr_name;   // current serving VLR ("" = not registered)
    std::string msc_name;   // current serving (V)MSC
    std::string sgsn_name;  // current serving SGSN (GPRS attach)
  };

  explicit Hlr(std::string name) : Node(std::move(name)) {}

  /// Creates the permanent subscription (operator provisioning).
  void provision(Imsi imsi, std::uint64_t ki, SubscriberProfile profile);

  /// IMSI confidentiality (the paper's Section 6 business-model argument):
  /// when enabled, MAP interrogations that would reveal subscriber data
  /// (SRI, GPRS routing info) are only answered for explicitly trusted
  /// peers — the operator's own GMSCs and support nodes.  A foreign H.323
  /// gatekeeper (as 3G TR 23.821 requires) is refused.
  void set_imsi_confidentiality(bool on) { imsi_confidentiality_ = on; }
  void trust_map_peer(const std::string& node_name) {
    trusted_peers_.insert(node_name);
  }
  [[nodiscard]] std::uint64_t refused_interrogations() const {
    return refused_interrogations_;
  }

  [[nodiscard]] const SubscriberRecord* record(Imsi imsi) const;
  [[nodiscard]] std::optional<Imsi> imsi_of(Msisdn msisdn) const;

  using Handlers = NodeHandlers<Hlr>;
  /// Wire type -> handler, one entry per message this node accepts.
  static const Handlers& handler_table();

  void on_message(const Envelope& env) override;

 private:
  struct PendingUpdate {
    NodeId requester;
    Imsi imsi;
  };
  struct PendingSri {
    NodeId requester;
    Msisdn msisdn;
  };

  SubscriberTable<Imsi, SubscriberRecord> records_;
  SubscriberTable<Msisdn, Imsi> by_msisdn_;
  [[nodiscard]] bool interrogation_allowed(NodeId requester);

  SubscriberTable<Imsi, PendingUpdate> pending_updates_;
  SubscriberTable<Imsi, PendingSri> pending_sri_;
  bool imsi_confidentiality_ = false;
  std::unordered_set<std::string> trusted_peers_;
  std::uint64_t refused_interrogations_ = 0;
};

}  // namespace vgprs
