// Handler dispatch sweep: every registered wire type is delivered to a
// fresh instance of every protocol node class — as a plain message, inside
// an IP datagram, and inside a Gb frame carrying that datagram — and what
// the node does is recorded: the messages it sends (every peer name the
// node knows resolves to one linked probe node), what it logs at debug
// level, and any exception.  The record is compared with a golden taken
// from the same sweep, so a change to how handlers are found cannot change
// what any node does with any message, listed or not.  It is the dispatch
// counterpart of test_codec_robustness.
//
// Regenerate the golden (only when a behaviour change is intended) with:
//   VGPRS_UPDATE_GOLDEN=1 ./test_dispatch
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "gprs/data_ms.hpp"
#include "gprs/ggsn.hpp"
#include "gprs/ip.hpp"
#include "gprs/messages.hpp"
#include "gprs/sgsn.hpp"
#include "gsm/bsc.hpp"
#include "gsm/bts.hpp"
#include "gsm/hlr.hpp"
#include "gsm/mobile_station.hpp"
#include "gsm/msc.hpp"
#include "gsm/vlr.hpp"
#include "h323/gatekeeper.hpp"
#include "h323/gateway.hpp"
#include "h323/terminal.hpp"
#include "pstn/phone.hpp"
#include "pstn/switch.hpp"
#include "tr23821/tr_gatekeeper.hpp"
#include "tr23821/tr_ms.hpp"
#include "vgprs/scenario.hpp"
#include "vgprs/vmsc.hpp"

namespace vgprs {
namespace {

constexpr const char* kPeer = "PEER";
const IpAddress kNodeIp(10, 9, 9, 9);
const IpAddress kPeerIp(10, 0, 0, 2);

/// Stands in for every neighbour: records what the node under test sends.
class Probe final : public Node {
 public:
  using Node::Node;
  void on_message(const Envelope& env) override {
    received.push_back(env.msg->summary());
  }
  std::vector<std::string> received;
};

struct NodeClass {
  const char* name;
  std::function<Node&(Network&)> add;
};

std::vector<NodeClass> node_classes() {
  MscBase::Config msc;
  msc.vlr_name = kPeer;
  return {
      {"MobileStation",
       [](Network& n) -> Node& {
         MobileStation::Config c;
         c.bts_name = kPeer;
         return n.add<MobileStation>("N", c);
       }},
      {"Bts",
       [](Network& n) -> Node& {
         return n.add<Bts>("N", CellId(1), LocationAreaId(1), kPeer);
       }},
      {"Bsc",
       [](Network& n) -> Node& {
         Bsc::Config c;
         c.msc_name = kPeer;
         return n.add<Bsc>("N", c);
       }},
      {"GsmMsc",
       [msc](Network& n) -> Node& {
         GsmMsc::MscConfig c;
         c.base = msc;
         c.pstn_name = kPeer;
         c.hlr_name = kPeer;
         return n.add<GsmMsc>("N", c);
       }},
      {"Vmsc",
       [msc](Network& n) -> Node& {
         Vmsc::VmscConfig c;
         c.base = msc;
         c.sgsn_name = kPeer;
         c.gk_ip = kPeerIp;
         return n.add<Vmsc>("N", c);
       }},
      {"Vlr",
       [](Network& n) -> Node& {
         Vlr::Config c;
         c.hlr_name = kPeer;
         return n.add<Vlr>("N", c);
       }},
      {"Hlr", [](Network& n) -> Node& { return n.add<Hlr>("N"); }},
      {"Sgsn",
       [](Network& n) -> Node& {
         Sgsn::Config c;
         c.ggsn_name = kPeer;
         c.hlr_name = kPeer;
         return n.add<Sgsn>("N", c);
       }},
      {"Ggsn",
       [](Network& n) -> Node& {
         Ggsn::Config c;
         c.router_name = kPeer;
         c.hlr_name = kPeer;
         return n.add<Ggsn>("N", c);
       }},
      {"IpRouter", [](Network& n) -> Node& { return n.add<IpRouter>("N"); }},
      {"GprsDataMs",
       [](Network& n) -> Node& {
         GprsDataMs::Config c;
         c.sgsn_name = kPeer;
         return n.add<GprsDataMs>("N", c);
       }},
      {"EchoServer",
       [](Network& n) -> Node& {
         return n.add<EchoServer>("N", kNodeIp, kPeer);
       }},
      {"Gatekeeper",
       [](Network& n) -> Node& {
         return n.add<Gatekeeper>("N", kNodeIp, kPeer);
       }},
      {"H323Terminal",
       [](Network& n) -> Node& {
         H323Terminal::Config c;
         c.ip = kNodeIp;
         c.gk_ip = kPeerIp;
         c.router_name = kPeer;
         return n.add<H323Terminal>("N", c);
       }},
      {"H323Gateway",
       [](Network& n) -> Node& {
         H323Gateway::Config c;
         c.ip = kNodeIp;
         c.gk_ip = kPeerIp;
         c.router_name = kPeer;
         c.pstn_name = kPeer;
         c.fallback_pstn_name = kPeer;
         return n.add<H323Gateway>("N", c);
       }},
      {"TrGatekeeper",
       [](Network& n) -> Node& {
         TrGatekeeper::TrConfig c;
         c.hlr_name = kPeer;
         c.ggsn_control_ip = kPeerIp;
         return n.add<TrGatekeeper>("N", kNodeIp, kPeer, c);
       }},
      {"TrMobileStation",
       [](Network& n) -> Node& {
         TrMobileStation::Config c;
         c.sgsn_name = kPeer;
         c.gk_ip = kPeerIp;
         return n.add<TrMobileStation>("N", c);
       }},
      {"PstnSwitch", [](Network& n) -> Node& { return n.add<PstnSwitch>("N"); }},
      {"PstnPhone",
       [](Network& n) -> Node& {
         PstnPhone::Config c;
         c.switch_name = kPeer;
         return n.add<PstnPhone>("N", c);
       }},
  };
}

enum class Wrap { kPlain, kIp, kGb };

MessagePtr wrapped(std::uint16_t wire_type, Wrap wrap) {
  MessagePtr msg(MessageRegistry::instance().create(wire_type));
  if (wrap == Wrap::kPlain) return msg;
  MessagePtr dgram = make_ip_datagram(kPeerIp, kNodeIp, *msg);
  if (wrap == Wrap::kIp) return dgram;
  auto frame = pool_message<GbUnitData>();
  frame->payload = dgram->encode();
  return frame;
}

/// Delivers one message to a fresh node, lets the consequences run for
/// five simulated minutes, and renders what the node did (empty: nothing).
std::string deliver(const NodeClass& cls, std::uint16_t wire_type,
                    Wrap wrap) {
  Network net(3);
  Probe& peer = net.add<Probe>(kPeer);
  Node& node = cls.add(net);
  net.connect(node, peer, LinkProfile{});
  std::string outcome;
  std::fputs("@@\n", stderr);
  std::fflush(stderr);
  try {
    node.on_message(Envelope{net.now(), peer.id(), node.id(),
                             wrapped(wire_type, wrap)});
    net.run_for(SimDuration::seconds(300));
  } catch (const std::exception& e) {
    outcome += " throws: ";
    outcome += e.what();
  }
  for (const std::string& sent : peer.received) outcome += " | " + sent;
  return outcome;
}

struct Row {
  std::string node;  // class, plus the wrapping (" ip", " gb")
  std::string type;
  std::string outcome;
};

/// `text` with every occurrence of `name` replaced by '%'.
std::string anonymised(std::string text, std::string_view name) {
  for (std::size_t p = text.find(name); p != std::string::npos;
       p = text.find(name, p + 1)) {
    text.replace(p, name.size(), "%");
  }
  return text;
}

std::string sweep() {
  const MessageRegistry& reg = MessageRegistry::instance();
  std::vector<Row> rows;
  const LogLevel saved = Logger::instance().level();
  Logger::instance().set_level(LogLevel::kDebug);
  testing::internal::CaptureStderr();
  for (const NodeClass& cls : node_classes()) {
    for (Wrap wrap : {Wrap::kPlain, Wrap::kIp, Wrap::kGb}) {
      const char* tag =
          wrap == Wrap::kPlain ? "" : (wrap == Wrap::kIp ? " ip" : " gb");
      for (std::uint16_t type : reg.types()) {
        rows.push_back({std::string(cls.name) + tag,
                        std::string(reg.name_of(type)),
                        deliver(cls, type, wrap)});
      }
    }
  }
  const std::string log = testing::internal::GetCapturedStderr();
  Logger::instance().set_level(saved);

  // Attach each delivery's log lines to its row.
  std::istringstream in(log);
  std::string line;
  std::size_t row = -1;
  while (std::getline(in, line)) {
    if (line == "@@") {
      ++row;
    } else if (row < rows.size()) {
      rows[row].outcome += " | log " + line;
    }
  }
  // One line per run of consecutive wire types with the same outcome, the
  // type's own name written as '%', so the many "unhandled X" rows of a
  // node collapse into a few.
  for (Row& r : rows) r.outcome = anonymised(r.outcome, r.type);
  std::string out;
  for (std::size_t i = 0; i < rows.size();) {
    std::size_t j = i + 1;
    while (j < rows.size() && rows[j].node == rows[i].node &&
           rows[j].outcome == rows[i].outcome) {
      ++j;
    }
    out += rows[i].node + " " + rows[i].type;
    if (j - i > 1) {
      out += ".." + rows[j - 1].type + " (" + std::to_string(j - i) + ")";
    }
    out += ":" + rows[i].outcome + "\n";
    i = j;
  }
  return out;
}

TEST(DispatchSweep, EveryWireTypeAtEveryNodeClassBehavesAsRecorded) {
  register_all_messages();
  const std::string actual = sweep();
  const std::string path =
      std::string(VGPRS_GOLDEN_DIR) + "/dispatch_sweep.txt";
  if (std::getenv("VGPRS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string w;
  std::string g;
  std::size_t lineno = 0;
  while (true) {
    const bool hw = static_cast<bool>(std::getline(want, w));
    const bool hg = static_cast<bool>(std::getline(got, g));
    ++lineno;
    if (!hw && !hg) break;
    ASSERT_TRUE(hw && hg && w == g)
        << "first divergence at row " << lineno << "\n  golden: "
        << (hw ? w : "<end>") << "\n  actual: " << (hg ? g : "<end>");
  }
}

// Every handler table — node tables, subclass extensions, tunnel and IP
// tables — lists each wire type at most once, and only registered types
// under their registered names.
TEST(DispatchTables, WireTypesAreUniqueAndRegistered) {
  register_all_messages();
  const std::size_t registered = MessageRegistry::instance().types().size();
  const std::vector<std::pair<const char*, std::vector<std::uint16_t>>>
      tables = {
          {"MobileStation", MobileStation::handler_table().wire_types()},
          {"Bts", Bts::handler_table().wire_types()},
          {"Bsc", Bsc::handler_table().wire_types()},
          {"MscBase", MscBase::handler_table().wire_types()},
          {"GsmMsc", GsmMsc::handler_table().wire_types()},
          {"Vmsc", Vmsc::handler_table().wire_types()},
          {"Vmsc tunnel", Vmsc::tunnel_table().wire_types()},
          {"Vlr", Vlr::handler_table().wire_types()},
          {"Hlr", Hlr::handler_table().wire_types()},
          {"Sgsn", Sgsn::handler_table().wire_types()},
          {"Ggsn", Ggsn::handler_table().wire_types()},
          {"IpRouter", IpRouter::handler_table().wire_types()},
          {"GprsDataMs", GprsDataMs::handler_table().wire_types()},
          {"EchoServer", EchoServer::handler_table().wire_types()},
          {"IpEndpoint", IpEndpoint::handler_table().wire_types()},
          {"Gatekeeper ip", Gatekeeper::ip_table().wire_types()},
          {"H323Terminal ip", H323Terminal::ip_table().wire_types()},
          {"H323Gateway", H323Gateway::handler_table().wire_types()},
          {"H323Gateway ip", H323Gateway::ip_table().wire_types()},
          {"TrGatekeeper", TrGatekeeper::handler_table().wire_types()},
          {"TrGatekeeper ip", TrGatekeeper::ip_table().wire_types()},
          {"TrMobileStation", TrMobileStation::handler_table().wire_types()},
          {"TrMobileStation tunnel",
           TrMobileStation::tunnel_table().wire_types()},
          {"PstnSwitch", PstnSwitch::handler_table().wire_types()},
          {"PstnPhone", PstnPhone::handler_table().wire_types()},
      };
  for (const auto& [name, types] : tables) {
    EXPECT_FALSE(types.empty()) << name;
    std::set<std::uint16_t> seen;
    for (std::uint16_t type : types) {
      EXPECT_TRUE(seen.insert(type).second) << name << " lists " << type
                                            << " twice";
      EXPECT_TRUE(MessageRegistry::instance().known(type)) << name;
    }
  }
  // Building the tables registered nothing new: every handled type is in
  // the protocol catalogs.
  EXPECT_EQ(MessageRegistry::instance().types().size(), registered);
}

struct Counter final : public Node {
  using Node::Node;
  void on_message(const Envelope&) override {}
  void on_setup(const ASetup&) { ++setups; }
  int setups = 0;
  NodeId last_from;
};

// The table itself: one handler per type, member or lambda, unlisted types
// are reported to the caller, and a second handler for a type is a
// programming error.
TEST(DispatchTables, LookupAndDuplicateRejection) {
  register_all_messages();
  NodeHandlers<Counter> table;
  table.on<&Counter::on_setup>().on(
      [](Counter& self, const AConnect&, const Envelope& env) {
        self.last_from = env.from;
      });
  Counter node("C");
  const Envelope env{SimTime{}, NodeId(7), NodeId(1), nullptr};
  EXPECT_TRUE(table.dispatch(node, ASetup{}, env));
  EXPECT_TRUE(table.dispatch(node, AConnect{}, env));
  EXPECT_FALSE(table.dispatch(node, AAlerting{}, env));
  EXPECT_EQ(node.setups, 1);
  EXPECT_EQ(node.last_from, NodeId(7));
  EXPECT_THROW(table.on<&Counter::on_setup>(), std::logic_error);
  EXPECT_THROW(table.on([](Counter&, const AConnect&) {}), std::logic_error);
  const ASetup setup;
  const Message& as_message = setup;
  EXPECT_EQ(message_cast<ASetup>(&as_message), &setup);
  EXPECT_EQ(message_cast<AAlerting>(&as_message), nullptr);
}

}  // namespace
}  // namespace vgprs
