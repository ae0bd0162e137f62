// PSTN switch: prefix-based ISUP call routing with trunk-class accounting.
// The international-trunk counters are the measurable core of the paper's
// tromboning argument (Figs. 7-8): classic GSM call delivery to a roamer
// uses two international trunks, vGPRS uses none.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "pstn/messages.hpp"
#include "sim/network.hpp"
#include "sim/stats.hpp"

namespace vgprs {

enum class TrunkClass : std::uint8_t {
  kSubscriberLine = 0,
  kLocal = 1,
  kNational = 2,
  kInternational = 3,
};

[[nodiscard]] constexpr const char* to_string(TrunkClass c) {
  switch (c) {
    case TrunkClass::kSubscriberLine: return "subscriber";
    case TrunkClass::kLocal: return "local";
    case TrunkClass::kNational: return "national";
    case TrunkClass::kInternational: return "international";
  }
  return "?";
}

class PstnSwitch final : public Node {
 public:
  explicit PstnSwitch(std::string name) : Node(std::move(name)) {}

  /// Adds a routing entry: called numbers starting with `prefix` (digits,
  /// no '+') go to node `next_hop` over a trunk of class `klass`.
  /// Longest-prefix match wins.
  void add_route(std::string prefix, std::string next_hop, TrunkClass klass);

  /// Registers a directly attached subscriber line.
  void attach_subscriber(Msisdn number, std::string node_name);

  [[nodiscard]] std::int64_t trunks_used(TrunkClass klass) const;
  [[nodiscard]] const CounterSet& counters() const { return counters_; }

  using Handlers = NodeHandlers<PstnSwitch>;
  /// Wire type -> handler, one entry per message this node accepts.
  static const Handlers& handler_table();

  void on_message(const Envelope& env) override;

 private:
  template <typename M>
  void relay(const M& m, const Envelope& env);

  struct Route {
    std::string prefix;
    std::string next_hop;
    TrunkClass klass;
  };
  struct Leg {
    NodeId upstream;    // where the IAM came from
    NodeId downstream;  // where we forwarded it
  };

  [[nodiscard]] const Route* best_route(const Msisdn& called) const;

  std::vector<Route> routes_;
  std::unordered_map<Msisdn, std::string> subscribers_;
  std::unordered_map<Cic, Leg> legs_;
  CounterSet counters_;
};

}  // namespace vgprs
