// The control-plane state machines declared as data, so vgprs_lint and
// vgprs_verify can machine-check them: every state reachable from the
// initial state, every non-terminal state with a way out, every transition
// endpoint declared, and — via vgprs_verify's product-state exploration —
// every reachable (state, message) pair handled under delay and reorder.
//
// Six machines are declared:
//  * "msc-call":       the MscBase registration / MO / MT / clearing FSM
//                      (MscBase::Step), shared by the MSC and the VMSC;
//  * "vmsc-endpoint":  the VMSC's per-MS vGPRS lifecycle (attach -> PDP ->
//                      RAS -> ready; Vmsc::VgprsState::Phase);
//  * "pdp-context":    the GPRS data MS / PDP-context lifecycle
//                      (GprsDataMs::State);
//  * "handoff-anchor": the anchor MSC's inter-system handoff overlay
//                      (Fig. 9 / MscBase handoff handlers, anchor role);
//  * "handoff-target": the target MSC's reservation overlay (same code,
//                      target role);
//  * "tr-ms":          the TR 23.821 baseline handset
//                      (TrMobileStation::State).
//
// The state lists are generated from the real enums via exhaustive switch
// functions (no default case), so adding an enum value without updating the
// table is a compile error, and removing a transition leaves the lint's
// reachability check to catch the newly dead state.
//
// Completeness metadata, consumed by vgprs_verify:
//  * FsmTransition::emits names the wire messages the node sends when the
//    transition fires, so every flow step sourced at a bound node can be
//    traced back to a declared transition (check "flow-cover");
//  * FsmTable::timers declares which waiting states are supervised by a
//    timer (procedure guard or Retransmitter give-up) and which transition
//    event fires on expiry (check "timer");
//  * FsmTable::stable lists the states allowed to rest with no timer
//    armed; a reachable product state stuck in any other state with no
//    enabled transition is a deadlock (check "deadlock").
#pragma once

#include <string_view>
#include <vector>

namespace vgprs {

struct FsmTransition {
  std::string_view from;
  std::string_view event;
  std::string_view to;
  /// Wire messages sent when this transition fires (flow-cover metadata).
  std::vector<std::string_view> emits{};
};

/// A timer held while in `state`: on expiry the machine takes the
/// transition whose event base-name matches `expiry_event`.  When the timer
/// backs a request retransmission, `retransmits` names the request, which
/// must carry a row in all_retransmission_policies().
struct FsmTimer {
  std::string_view state;
  std::string_view expiry_event;
  std::string_view retransmits;
};

struct FsmTable {
  std::string_view name;
  std::string_view initial;
  std::vector<std::string_view> states;
  /// States allowed to have no outgoing transition.
  std::vector<std::string_view> terminal;
  std::vector<FsmTransition> transitions;
  /// States that may rest indefinitely with no timer armed.
  std::vector<std::string_view> stable;
  /// Timer supervision for the non-stable states.
  std::vector<FsmTimer> timers;
};

/// All declared control-plane machines, for vgprs_lint's FSM sweep and
/// vgprs_verify's product-state exploration.
const std::vector<FsmTable>& conformance_fsm_tables();

}  // namespace vgprs
