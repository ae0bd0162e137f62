#include "pstn/switch.hpp"

#include <atomic>

#include "common/log.hpp"

namespace vgprs {

Cic allocate_cic() {
  static std::atomic<Cic> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void register_pstn_messages() {
  register_message<IsupIam>();
  register_message<IsupAcm>();
  register_message<IsupAnm>();
  register_message<IsupRel>();
  register_message<IsupRlc>();
  register_message<TrunkVoice>();
}

void PstnSwitch::add_route(std::string prefix, std::string next_hop,
                           TrunkClass klass) {
  routes_.push_back(Route{std::move(prefix), std::move(next_hop), klass});
}

void PstnSwitch::attach_subscriber(Msisdn number, std::string node_name) {
  subscribers_[number] = std::move(node_name);
}

std::int64_t PstnSwitch::trunks_used(TrunkClass klass) const {
  return counters_.get(std::string("iam.") + to_string(klass));
}

const PstnSwitch::Route* PstnSwitch::best_route(const Msisdn& called) const {
  // Msisdn::to_string renders "+<digits>"; strip the '+'.
  std::string digits = called.to_string().substr(1);
  const Route* best = nullptr;
  for (const auto& route : routes_) {
    if (digits.starts_with(route.prefix) &&
        (best == nullptr || route.prefix.size() > best->prefix.size())) {
      best = &route;
    }
  }
  return best;
}

// Everything else relays along the established legs: backward messages
// (ACM/ANM) go upstream, REL/RLC/voice go to the peer of the sender.
template <typename M>
void PstnSwitch::relay(const M& m, const Envelope& env) {
  auto it = legs_.find(m.cic);
  if (it == legs_.end()) return;
  NodeId peer = env.from == it->second.upstream ? it->second.downstream
                                                : it->second.upstream;
  send(peer, MessagePtr(m.clone()));
}

const PstnSwitch::Handlers& PstnSwitch::handler_table() {
  static const Handlers table = Handlers{}
  .on([](PstnSwitch& self, const IsupIam& iam, const Envelope& env) {
    NodeId next;
    TrunkClass klass = TrunkClass::kSubscriberLine;
    if (auto sub = self.subscribers_.find(iam.called);
        sub != self.subscribers_.end()) {
      Node* phone = self.net().node_by_name(sub->second);
      if (phone != nullptr) next = phone->id();
    } else if (const Route* route = self.best_route(iam.called)) {
      Node* hop = self.net().node_by_name(route->next_hop);
      if (hop != nullptr) {
        next = hop->id();
        klass = route->klass;
      }
    }
    if (!next.valid()) {
      VG_WARN("pstn", self.name() << ": no route to "
                                  << iam.called.to_string());
      auto rel = pool_message<IsupRel>();
      rel->cic = iam.cic;
      rel->cause = 1;  // unallocated number
      self.send(env.from, std::move(rel));
      return;
    }
    self.counters_.bump(std::string("iam.") + to_string(klass));
    self.legs_[iam.cic] = Leg{env.from, next};
    self.send(next, MessagePtr(iam.clone()));
  })
  .on<&PstnSwitch::relay<IsupAcm>>()
  .on<&PstnSwitch::relay<IsupAnm>>()
  .on<&PstnSwitch::relay<IsupRel>>()
  .on([](PstnSwitch& self, const IsupRlc& rlc, const Envelope& env) {
    self.relay(rlc, env);
    self.legs_.erase(rlc.cic);
  })
  .on<&PstnSwitch::relay<TrunkVoice>>();
  return table;
}

void PstnSwitch::on_message(const Envelope& env) {
  if (handler_table().dispatch(*this, *env.msg, env)) return;
  VG_WARN("pstn", name() << ": unhandled " << env.msg->name());
}

}  // namespace vgprs
