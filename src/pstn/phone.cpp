#include "pstn/phone.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace vgprs {

namespace {
constexpr std::uint64_t kAnswerKind = 1;
constexpr std::uint64_t kVoiceKind = 3;
constexpr std::uint64_t make_cookie(std::uint64_t kind, std::uint64_t epoch) {
  return (kind << 56) | (epoch & 0x00FFFFFFFFFFFFFFULL);
}
}  // namespace

NodeId PstnPhone::exchange() const {
  Node* n = net().node_by_name(config_.switch_name);
  if (n == nullptr) throw std::logic_error(name() + ": no switch");
  return n->id();
}

void PstnPhone::place_call(Msisdn called) {
  if (state_ != State::kIdle) return;
  state_ = State::kDialing;
  ++epoch_;
  cic_ = allocate_cic();
  auto iam = pool_message<IsupIam>();
  iam->cic = cic_;
  iam->calling = config_.number;
  iam->called = called;
  send(exchange(), std::move(iam));
}

void PstnPhone::answer() {
  if (state_ != State::kIncoming) return;
  state_ = State::kConnected;
  ++epoch_;
  auto anm = pool_message<IsupAnm>();
  anm->cic = cic_;
  send(exchange(), std::move(anm));
  if (on_connected) on_connected();
  if (voice_remaining_ > 0) send_voice_frame();
}

void PstnPhone::hangup() {
  if (state_ == State::kIdle) return;
  state_ = State::kReleasing;
  ++epoch_;
  auto rel = pool_message<IsupRel>();
  rel->cic = cic_;
  send(exchange(), std::move(rel));
}

void PstnPhone::start_voice(std::uint32_t count, SimDuration interval) {
  voice_remaining_ = count;
  voice_interval_ = interval;
  if (state_ == State::kConnected) send_voice_frame();
}

void PstnPhone::send_voice_frame() {
  if (voice_remaining_ == 0 || state_ != State::kConnected) return;
  --voice_remaining_;
  auto frame = pool_message<TrunkVoice>();
  frame->cic = cic_;
  frame->seq = ++voice_seq_;
  frame->origin_us = now().count_micros();
  send(exchange(), std::move(frame));
  if (voice_remaining_ > 0) {
    set_timer(voice_interval_, make_cookie(kVoiceKind, epoch_));
  }
}

void PstnPhone::on_timer(TimerId, std::uint64_t cookie) {
  std::uint64_t kind = cookie >> 56;
  std::uint64_t epoch = cookie & 0x00FFFFFFFFFFFFFFULL;
  if (epoch != epoch_) return;
  if (kind == kAnswerKind) answer();
  if (kind == kVoiceKind) send_voice_frame();
}

const PstnPhone::Handlers& PstnPhone::handler_table() {
  static const Handlers table = Handlers{}
  .on([](PstnPhone& self, const IsupIam& iam, const Envelope& env) {
    if (self.state_ != State::kIdle) {
      auto rel = pool_message<IsupRel>();
      rel->cic = iam.cic;
      rel->cause = 17;  // user busy
      self.send(env.from, std::move(rel));
      return;
    }
    self.state_ = State::kIncoming;
    ++self.epoch_;
    self.cic_ = iam.cic;
    auto acm = pool_message<IsupAcm>();
    acm->cic = self.cic_;
    self.send(env.from, std::move(acm));
    if (self.on_incoming) self.on_incoming(iam.calling);
    if (self.config_.auto_answer) {
      self.set_timer(self.config_.answer_delay,
                     make_cookie(kAnswerKind, self.epoch_));
    }
  })
  .on([](PstnPhone& self, const IsupAcm& acm) {
    if (self.state_ == State::kDialing && acm.cic == self.cic_) {
      self.state_ = State::kRinging;
      if (self.on_ringback) self.on_ringback();
    }
  })
  .on([](PstnPhone& self, const IsupAnm& anm) {
    if (self.state_ == State::kRinging && anm.cic == self.cic_) {
      self.state_ = State::kConnected;
      if (self.on_connected) self.on_connected();
      if (self.voice_remaining_ > 0) self.send_voice_frame();
    }
  })
  .on([](PstnPhone& self, const IsupRel& rel, const Envelope& env) {
    if (rel.cic != self.cic_) return;
    auto rlc = pool_message<IsupRlc>();
    rlc->cic = self.cic_;
    self.send(env.from, std::move(rlc));
    self.state_ = State::kIdle;
    ++self.epoch_;
    if (self.on_released) self.on_released();
  })
  .on([](PstnPhone& self, const IsupRlc& rlc) {
    if (rlc.cic == self.cic_ && self.state_ == State::kReleasing) {
      self.state_ = State::kIdle;
      ++self.epoch_;
      if (self.on_released) self.on_released();
    }
  })
  .on([](PstnPhone& self, const TrunkVoice& voice) {
    if (voice.cic == self.cic_ && self.state_ == State::kConnected) {
      self.voice_latency_.add(
          SimDuration::micros(self.now().count_micros() - voice.origin_us));
    }
  });
  return table;
}

void PstnPhone::on_message(const Envelope& env) {
  if (handler_table().dispatch(*this, *env.msg, env)) return;
  VG_DEBUG("phone", name() << ": ignoring " << env.msg->name());
}

}  // namespace vgprs
