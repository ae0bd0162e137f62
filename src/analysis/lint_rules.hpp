// The vgprs_lint rule families, factored out of the old monolithic tool so
// tests and other drivers can run individual checks against arbitrary
// inputs (the self-test harness seeds defects exactly this way).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/driver.hpp"
#include "analysis/report.hpp"
#include "sim/message.hpp"
#include "vgprs/flows.hpp"
#include "vgprs/fsm_tables.hpp"

namespace vgprs::analysis {

void check_registry(const MessageRegistry& reg, Report& report);
void check_codec(const MessageRegistry& reg, Report& report);
void check_flows(const MessageRegistry& reg,
                 const std::vector<NamedFlow>& flows, Report& report);
void check_correlation(const MessageRegistry& reg,
                       const std::vector<NamedFlow>& flows, Report& report);
void check_retransmission(const MessageRegistry& reg,
                          const std::vector<NamedFlow>& flows,
                          const std::vector<RetransmissionPolicy>& policies,
                          Report& report);
void check_fsm(const MessageRegistry& reg,
               const std::vector<FsmTable>& tables, Report& report);
void check_sharding_text(const std::string& rel_path, std::string_view text,
                         Report& report);
void check_sharding(const std::string& source_root, Report& report);

/// C++ alias -> wire name of every registered message declared in `text` as
/// `using Alias = ProtoMessage<Payload, 0xNNNN, "Wire_Name">`.
void collect_message_aliases(const MessageRegistry& reg,
                             std::string_view text,
                             std::map<std::string, std::string>& out);
/// Flags every dynamic_cast whose target is one of `messages`.
void check_message_downcast_text(
    const std::string& rel_path, std::string_view text,
    const std::map<std::string, std::string>& messages, Report& report);
/// Scans all of `source_root` (src/): handlers find their message through a
/// HandlerTable, never through a dynamic_cast chain.
void check_message_downcast(const std::string& source_root,
                            const MessageRegistry& reg, Report& report);

/// A node class bound to an FSM table, with the wire types its handler
/// tables list (node table plus any tunnel table) and the bound class its
/// table extends, if any.
struct HandlerBinding {
  std::string_view fsm;
  std::string_view node;
  std::vector<std::uint16_t> handled;
  std::string_view base{};
};
std::vector<HandlerBinding> handler_bindings();
/// Every event of a bound FSM table that is a registered wire name must
/// have an entry in the bound class's handler tables.  Handled types no
/// bound table declares are printed as notes.
void check_handler_tables(const MessageRegistry& reg,
                          const std::vector<FsmTable>& tables,
                          const std::vector<HandlerBinding>& bindings,
                          Report& report);

/// The nine lint families with their self-test seeds, ready for
/// tool_main().  `source_root` points at the protocol sources (src/) for
/// the sharding scan.  Registers the message catalog as a side effect.
std::vector<RuleFamily> lint_rule_families(const std::string& source_root);

}  // namespace vgprs::analysis
