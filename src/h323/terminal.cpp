#include "h323/terminal.hpp"

#include "common/log.hpp"

namespace vgprs {

namespace {
constexpr std::uint64_t kAnswerKind = 1;
constexpr std::uint64_t kVoiceKind = 3;
constexpr std::uint64_t make_cookie(std::uint64_t kind, std::uint64_t epoch) {
  return (kind << 56) | (epoch & 0x00FFFFFFFFFFFFFFULL);
}
}  // namespace

void H323Terminal::enter(State s) {
  state_ = s;
  ++epoch_;
}

void H323Terminal::register_endpoint() {
  if (state_ != State::kIdle) return;
  enter(State::kRegistering);
  net().spans().open(SpanKind::kRegistration, config_.alias.value(), name(),
                     now());
  auto rrq = pool_message<RasRrq>();
  rrq->call_signal_address = TransportAddress(ip(), config_.signal_port);
  rrq->alias = config_.alias;
  send_ip(config_.gk_ip, *rrq);
  retx_.arm(
      retx_key(RetxKind::kRrq),
      [this] {
        if (state_ != State::kRegistering) return;
        auto again = pool_message<RasRrq>();
        again->call_signal_address =
            TransportAddress(ip(), config_.signal_port);
        again->alias = config_.alias;
        send_ip(config_.gk_ip, *again);
      },
      [this] {
        if (state_ != State::kRegistering) return;
        net().spans().close(SpanKind::kRegistration, config_.alias.value(),
                            SpanOutcome::kTimeout, now());
        enter(State::kIdle);
        if (on_failure) on_failure("registration timed out");
      });
}

void H323Terminal::place_call(Msisdn called) {
  if (state_ != State::kRegistered) {
    if (on_failure) on_failure("place_call while not registered");
    return;
  }
  peer_number_ = called;
  call_ref_ = CallRef((endpoint_id_ << 16) | ++call_seq_);
  enter(State::kArqSent);
  net().spans().open(SpanKind::kOrigination, call_ref_.value(), name(), now());
  auto arq = pool_message<RasArq>();
  arq->endpoint_id = endpoint_id_;
  arq->call_ref = call_ref_;
  arq->calling = config_.alias;
  arq->called = called;
  send_ip(config_.gk_ip, *arq);
  retx_.arm(
      retx_key(RetxKind::kArq),
      [this, called] {
        if (state_ != State::kArqSent) return;
        auto again = pool_message<RasArq>();
        again->endpoint_id = endpoint_id_;
        again->call_ref = call_ref_;
        again->calling = config_.alias;
        again->called = called;
        send_ip(config_.gk_ip, *again);
      },
      [this] {
        if (state_ != State::kArqSent) return;
        net().spans().close(SpanKind::kOrigination, call_ref_.value(),
                            SpanOutcome::kTimeout, now());
        enter(State::kRegistered);
        if (on_failure) on_failure("admission timed out");
        if (on_released) on_released(call_ref_);
      });
}

void H323Terminal::answer() {
  if (state_ != State::kRinging) return;
  auto conn = pool_message<Q931Connect>();
  conn->call_ref = call_ref_;
  conn->media_address = TransportAddress(ip(), config_.media_port);
  send_ip(remote_signal_, *conn);
  enter(State::kConnected);
  if (on_connected) on_connected(call_ref_);
  if (voice_remaining_ > 0) send_voice_frame();
}

void H323Terminal::hangup() {
  if (state_ != State::kConnected && state_ != State::kRingback &&
      state_ != State::kCalling && state_ != State::kRinging) {
    return;
  }
  if (state_ == State::kCalling || state_ == State::kRingback) {
    // Abandoning our own setup before the far end answered.
    net().spans().close(SpanKind::kOrigination, call_ref_.value(),
                        SpanOutcome::kRejected, now());
  }
  auto rel = pool_message<Q931ReleaseComplete>();
  rel->call_ref = call_ref_;
  send_ip(remote_signal_, *rel);
  release_local(call_ref_);
}

void H323Terminal::release_local(CallRef call_ref) {
  // Whatever request was outstanding for this call is moot now.
  retx_.ack(retx_key(RetxKind::kArq));
  retx_.ack(retx_key(RetxKind::kSetup));
  if (config_.disengage_on_release && endpoint_id_ != 0) {
    auto drq = pool_message<RasDrq>();
    drq->endpoint_id = endpoint_id_;
    drq->call_ref = call_ref;
    send_ip(config_.gk_ip, *drq);
  }
  enter(State::kRegistered);
  if (on_released) on_released(call_ref);
}

void H323Terminal::start_voice(std::uint32_t count, SimDuration interval) {
  voice_remaining_ = count;
  voice_interval_ = interval;
  if (state_ == State::kConnected) send_voice_frame();
}

void H323Terminal::send_voice_frame() {
  if (voice_remaining_ == 0 || state_ != State::kConnected ||
      !remote_media_.valid()) {
    return;
  }
  --voice_remaining_;
  auto rtp = pool_message<RtpPacket>();
  rtp->ssrc = endpoint_id_;
  rtp->seq = ++voice_seq_;
  rtp->timestamp = voice_seq_ * 160;  // 20 ms at 8 kHz
  rtp->origin_us = now().count_micros();
  send_ip(remote_media_, *rtp);
  if (voice_remaining_ > 0) {
    set_timer(voice_interval_, make_cookie(kVoiceKind, epoch_));
  }
}

void H323Terminal::on_timer(TimerId, std::uint64_t cookie) {
  if (retx_.on_timer(cookie)) return;
  std::uint64_t kind = cookie >> 56;
  std::uint64_t epoch = cookie & 0x00FFFFFFFFFFFFFFULL;
  if (epoch != epoch_) return;
  if (kind == kAnswerKind && state_ == State::kRinging) answer();
  if (kind == kVoiceKind) send_voice_frame();
}

void H323Terminal::on_other_ip(const IpDatagramInfo& dgram,
                               const Message& inner) {
  VG_DEBUG("h323", name() << ": ignoring " << inner.name() << " from "
                          << dgram.src.to_string());
}

const IpEndpoint::IpHandlers& H323Terminal::ip_table() {
  static const IpHandlers table = IpHandlers{}
  .on([](H323Terminal& self, const RasRcf& rcf) {
    self.retx_.ack(retx_key(RetxKind::kRrq));
    if (self.state_ != State::kRegistering) return;
    self.net().spans().close(SpanKind::kRegistration,
                             self.config_.alias.value(), SpanOutcome::kOk,
                             self.now());
    self.endpoint_id_ = rcf.endpoint_id;
    self.enter(State::kRegistered);
    if (self.on_registered) self.on_registered();
  })
  .on([](H323Terminal& self, const RasRrj& rrj) {
    self.retx_.ack(retx_key(RetxKind::kRrq));
    if (self.state_ == State::kRegistering) {
      self.net().spans().close(SpanKind::kRegistration,
                               self.config_.alias.value(),
                               SpanOutcome::kRejected, self.now());
      self.enter(State::kIdle);
      if (self.on_failure) {
        self.on_failure("registration rejected, cause " +
                        std::to_string(rrj.cause));
      }
    }
  })
  .on([](H323Terminal& self, const RasAcf& acf) {
    self.retx_.ack(retx_key(RetxKind::kArq));
    if (self.state_ == State::kArqSent && acf.call_ref == self.call_ref_) {
      // Admission granted for our originating call: send Setup.
      self.remote_signal_ = acf.dest_call_signal_address.ip();
      self.enter(State::kCalling);
      auto setup = pool_message<Q931Setup>();
      setup->call_ref = self.call_ref_;
      setup->calling = self.config_.alias;
      setup->called = self.peer_number_;
      setup->src_signal_address =
          TransportAddress(self.ip(), self.config_.signal_port);
      setup->media_address = TransportAddress(self.ip(),
                                              self.config_.media_port);
      self.send_ip(self.remote_signal_, *setup);
      self.retx_.arm(
          retx_key(RetxKind::kSetup),
          [&self] {
            if (self.state_ != State::kCalling) return;
            auto again = pool_message<Q931Setup>();
            again->call_ref = self.call_ref_;
            again->calling = self.config_.alias;
            again->called = self.peer_number_;
            again->src_signal_address =
                TransportAddress(self.ip(), self.config_.signal_port);
            again->media_address =
                TransportAddress(self.ip(), self.config_.media_port);
            self.send_ip(self.remote_signal_, *again);
          },
          [&self] {
            if (self.state_ != State::kCalling) return;
            self.net().spans().close(SpanKind::kOrigination,
                                     self.call_ref_.value(),
                                     SpanOutcome::kTimeout, self.now());
            self.release_local(self.call_ref_);
          });
      return;
    }
    if (self.state_ == State::kIncomingArq && acf.call_ref == self.call_ref_) {
      // Admission granted for the call we are answering (paper step 2.5):
      // generate local ringing and alert the caller (step 2.6).
      self.enter(State::kRinging);
      auto alert = pool_message<Q931Alerting>();
      alert->call_ref = self.call_ref_;
      self.send_ip(self.remote_signal_, *alert);
      if (self.on_incoming) self.on_incoming(self.call_ref_, self.peer_number_);
      if (self.config_.auto_answer) {
        self.set_timer(self.config_.answer_delay,
                       make_cookie(kAnswerKind, self.epoch_));
      }
      return;
    }
  })
  .on([](H323Terminal& self, const RasArj& arj) {
    self.retx_.ack(retx_key(RetxKind::kArq));
    if (arj.call_ref != self.call_ref_) return;
    if (self.state_ == State::kArqSent) {
      self.net().spans().close(SpanKind::kOrigination, self.call_ref_.value(),
                               SpanOutcome::kRejected, self.now());
      self.enter(State::kRegistered);
      if (self.on_failure) {
        self.on_failure("admission rejected, cause " +
                        std::to_string(arj.cause));
      }
      if (self.on_released) self.on_released(arj.call_ref);
      return;
    }
    if (self.state_ == State::kIncomingArq) {
      // Step 2.5: admission rejected while answering -> release the call.
      auto rel = pool_message<Q931ReleaseComplete>();
      rel->call_ref = self.call_ref_;
      rel->cause = 47;  // resource unavailable
      self.send_ip(self.remote_signal_, *rel);
      self.enter(State::kRegistered);
      if (self.on_released) self.on_released(arj.call_ref);
      return;
    }
  })
  .on([](H323Terminal&, const RasDcf&) {
    // disengage confirmed
  })
  .on([](H323Terminal& self, const Q931Setup& setup) {
    if (self.state_ != State::kRegistered) {
      if (setup.call_ref == self.call_ref_ &&
          setup.src_signal_address.ip() == self.remote_signal_) {
        // Duplicate Setup for the call we are already handling
        // (retransmission after a lost CallProceeding): re-confirm rather
        // than busy-releasing our own call.
        auto proceed = pool_message<Q931CallProceeding>();
        proceed->call_ref = self.call_ref_;
        self.send_ip(self.remote_signal_, *proceed);
        return;
      }
      auto rel = pool_message<Q931ReleaseComplete>();
      rel->call_ref = setup.call_ref;
      rel->cause = 17;  // busy
      self.send_ip(setup.src_signal_address.ip(), *rel);
      return;
    }
    self.call_ref_ = setup.call_ref;
    self.peer_number_ = setup.calling;
    self.remote_signal_ = setup.src_signal_address.ip();
    self.remote_media_ = setup.media_address.ip();
    // Step 2.4: confirm sufficient routing information.
    auto proceed = pool_message<Q931CallProceeding>();
    proceed->call_ref = self.call_ref_;
    self.send_ip(self.remote_signal_, *proceed);
    // Step 2.5: ask the gatekeeper for admission before alerting.
    self.enter(State::kIncomingArq);
    auto arq = pool_message<RasArq>();
    arq->endpoint_id = self.endpoint_id_;
    arq->call_ref = self.call_ref_;
    arq->calling = setup.calling;
    arq->called = self.config_.alias;
    arq->answer_call = true;
    self.send_ip(self.config_.gk_ip, *arq);
    self.retx_.arm(
        retx_key(RetxKind::kArq),
        [&self] {
          if (self.state_ != State::kIncomingArq) return;
          auto again = pool_message<RasArq>();
          again->endpoint_id = self.endpoint_id_;
          again->call_ref = self.call_ref_;
          again->calling = self.peer_number_;
          again->called = self.config_.alias;
          again->answer_call = true;
          self.send_ip(self.config_.gk_ip, *again);
        },
        [&self] {
          if (self.state_ != State::kIncomingArq) return;
          // No admission decision: clear the incoming leg toward the
          // caller and return to service.
          auto rel = pool_message<Q931ReleaseComplete>();
          rel->call_ref = self.call_ref_;
          rel->cause = 47;  // resource unavailable
          self.send_ip(self.remote_signal_, *rel);
          self.enter(State::kRegistered);
          if (self.on_released) self.on_released(self.call_ref_);
        });
  })
  .on([](H323Terminal& self, const Q931CallProceeding& proceeding) {
    // The far end has our Setup: stop retransmitting it.
    if (proceeding.call_ref == self.call_ref_) {
      self.retx_.ack(retx_key(RetxKind::kSetup));
    }
  })
  .on([](H323Terminal& self, const Q931Alerting& alert) {
    if (self.state_ == State::kCalling && alert.call_ref == self.call_ref_) {
      self.enter(State::kRingback);
      if (self.on_ringback) self.on_ringback(self.call_ref_);
    }
  })
  .on([](H323Terminal& self, const Q931Connect& conn) {
    if ((self.state_ == State::kRingback || self.state_ == State::kCalling) &&
        conn.call_ref == self.call_ref_) {
      self.net().spans().close(SpanKind::kOrigination, self.call_ref_.value(),
                               SpanOutcome::kOk, self.now());
      self.remote_media_ = conn.media_address.ip();
      self.enter(State::kConnected);
      if (self.on_connected) self.on_connected(self.call_ref_);
      if (self.voice_remaining_ > 0) self.send_voice_frame();
    }
  })
  .on([](H323Terminal& self, const Q931ReleaseComplete& rel) {
    if (rel.call_ref == self.call_ref_ && self.state_ != State::kIdle &&
        self.state_ != State::kRegistered) {
      if (self.state_ == State::kCalling || self.state_ == State::kRingback) {
        // Far end cleared before answering our setup.
        self.net().spans().close(SpanKind::kOrigination, self.call_ref_.value(),
                                 SpanOutcome::kRejected, self.now());
      }
      self.release_local(rel.call_ref);
    }
  })
  .on([](H323Terminal& self, const RtpPacket& rtp) {
    ++self.voice_rx_;
    self.voice_latency_.add(
        SimDuration::micros(self.now().count_micros() - rtp.origin_us));
  });
  return table;
}

}  // namespace vgprs
