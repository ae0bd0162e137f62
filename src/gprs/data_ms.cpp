#include "gprs/data_ms.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace vgprs {

void register_data_messages() { register_message<DataPing>(); }

NodeId GprsDataMs::sgsn() const {
  Node* n = net().node_by_name(config_.sgsn_name);
  if (n == nullptr) throw std::logic_error(name() + ": no SGSN");
  return n->id();
}

void GprsDataMs::power_on() {
  if (state_ != State::kDetached) return;
  state_ = State::kAttaching;
  auto attach = pool_message<GprsAttachRequest>();
  attach->imsi = config_.imsi;
  send(sgsn(), std::move(attach));
}

void GprsDataMs::start_pings(IpAddress server, std::uint32_t count,
                             SimDuration interval) {
  server_ = server;
  pings_remaining_ = count;
  ping_interval_ = interval;
  if (state_ == State::kOnline) send_ping();
}

void GprsDataMs::send_ping() {
  if (pings_remaining_ == 0 || state_ != State::kOnline) return;
  --pings_remaining_;
  DataPing ping;
  ping.seq = ++ping_seq_;
  ping.origin_us = now().count_micros();
  auto dgram = make_ip_datagram(address_, server_, ping);
  auto frame = pool_message<GbUnitData>();
  frame->imsi = config_.imsi;
  frame->payload = dgram->encode();
  send(sgsn(), std::move(frame));
  if (pings_remaining_ > 0) set_timer(ping_interval_);
}

void GprsDataMs::on_timer(TimerId, std::uint64_t) { send_ping(); }

const GprsDataMs::Handlers& GprsDataMs::handler_table() {
  static const Handlers table = Handlers{}
  .on([](GprsDataMs& self, const GprsAttachAccept&) {
    if (self.state_ != State::kAttaching) return;
    self.state_ = State::kActivating;
    auto req = pool_message<ActivatePdpContextRequest>();
    req->imsi = self.config_.imsi;
    req->nsapi = Nsapi(5);
    req->qos = self.config_.qos;
    req->apn = "internet";
    self.send(self.sgsn(), std::move(req));
  })
  .on([](GprsDataMs& self, const GprsAttachReject&) {
    self.state_ = State::kDetached;
  })
  .on([](GprsDataMs& self, const ActivatePdpContextAccept& acc) {
    if (self.state_ != State::kActivating) return;
    self.address_ = acc.address;
    self.state_ = State::kOnline;
    if (self.on_online) self.on_online();
    if (self.pings_remaining_ > 0) self.send_ping();
  })
  .on([](GprsDataMs& self, const ActivatePdpContextReject&) {
    // Without this the MS wedged in kActivating forever: attached but
    // never online, and a later power_on() refused to restart the attach.
    if (self.state_ == State::kActivating) self.state_ = State::kDetached;
  })
  .on([](GprsDataMs& self, const GprsDetachRequest&) {
    // Network-initiated detach (e.g. SGSN restart recovery).
    if (self.state_ == State::kOnline) self.state_ = State::kDetached;
  })
  .on([](GprsDataMs& self, const GbUnitData& frame) {
    auto decoded = MessageRegistry::instance().decode(frame.payload);
    if (!decoded.ok()) return;
    const auto* dgram = message_cast<IpDatagram>(decoded.value().get());
    if (dgram == nullptr) return;
    auto inner = ip_payload(*dgram);
    if (!inner.ok()) return;
    if (const auto* ping = message_cast<DataPing>(inner.value().get());
        ping != nullptr && ping->response) {
      ++self.echoes_;
      self.rtt_.add(SimDuration::micros(self.now().count_micros() -
                                        ping->origin_us));
    }
  });
  return table;
}

void GprsDataMs::on_message(const Envelope& env) {
  if (handler_table().dispatch(*this, *env.msg, env)) return;
  VG_DEBUG("data-ms", name() << ": ignoring " << env.msg->name());
}

const EchoServer::Handlers& EchoServer::handler_table() {
  static const Handlers table = Handlers{}
  .on([](EchoServer& self, const IpDatagram& dgram) {
    auto inner = ip_payload(dgram);
    if (!inner.ok()) return;
    const auto* ping = message_cast<DataPing>(inner.value().get());
    if (ping == nullptr || ping->response) return;
    ++self.served_;
    DataPing echo = *ping;
    echo.response = true;
    Node* router = self.net().node_by_name(self.router_name_);
    if (router == nullptr) return;
    self.send(router->id(), make_ip_datagram(self.ip_, dgram.src, echo));
  });
  return table;
}

void EchoServer::on_message(const Envelope& env) {
  handler_table().dispatch(*this, *env.msg, env);
}

}  // namespace vgprs
