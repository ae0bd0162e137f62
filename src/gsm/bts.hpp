// Base Transceiver Station: terminates the Um air interface and relays
// signaling to/from its BSC over Abis.  One BTS serves one cell.  The BTS
// learns which simulated MS node carries which IMSI from uplink traffic and
// uses that to address downlink messages; paging is broadcast to every MS
// in the cell, as on a real paging channel.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "gsm/messages.hpp"
#include "sim/network.hpp"

namespace vgprs {

class Bts final : public Node {
 public:
  Bts(std::string name, CellId cell, LocationAreaId lai, std::string bsc_name)
      : Node(std::move(name)),
        cell_(cell),
        lai_(lai),
        bsc_name_(std::move(bsc_name)) {}

  [[nodiscard]] CellId cell() const { return cell_; }
  [[nodiscard]] LocationAreaId lai() const { return lai_; }

  using Handlers = NodeHandlers<Bts>;
  /// Wire type -> handler, one entry per message this node accepts.
  static const Handlers& handler_table();

  void on_message(const Envelope& env) override;

 private:
  [[nodiscard]] NodeId bsc() const;
  void note_ms(const Imsi& imsi, NodeId node) { ms_by_imsi_[imsi] = node; }
  [[nodiscard]] NodeId ms_node(const Imsi& imsi) const;

  void broadcast_paging(const AbisPaging& info);

  /// Relays `m` to `dest` as a `To` carrying the same payload.
  template <typename From, typename To>
  void relay(const From& m, NodeId dest) {
    auto out = pool_message<To>();
    static_cast<typename To::payload_type&>(*out) =
        static_cast<const typename From::payload_type&>(m);
    send(dest, std::move(out));
  }

  /// Uplink: also records the MS node for downlink addressing.
  template <typename From, typename To>
  void relay_up(const From& m, const Envelope& env) {
    note_ms(m.imsi, env.from);
    relay<From, To>(m, bsc());
  }

  /// Downlink: dropped when the MS left the cell.
  template <typename From, typename To>
  void relay_down(const From& m) {
    NodeId ms = ms_node(m.imsi);
    if (ms.valid()) relay<From, To>(m, ms);
  }

  CellId cell_;
  LocationAreaId lai_;
  std::string bsc_name_;
  std::unordered_map<Imsi, NodeId> ms_by_imsi_;
  std::vector<NodeId> paged_;  // broadcast_paging's reused member buffer
};

}  // namespace vgprs
