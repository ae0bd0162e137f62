#include "tr23821/tr_ms.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace vgprs {

namespace {
constexpr std::uint64_t kAnswerKind = 1;
constexpr std::uint64_t kRingbackKind = 2;
constexpr std::uint64_t kVoiceKind = 3;
constexpr std::uint64_t make_cookie(std::uint64_t kind, std::uint64_t epoch) {
  return (kind << 56) | (epoch & 0x00FFFFFFFFFFFFFFULL);
}

}  // namespace

void TrMobileStation::enter(State s) {
  state_ = s;
  ++epoch_;
}

NodeId TrMobileStation::sgsn() const {
  Node* n = net().node_by_name(config_.sgsn_name);
  if (n == nullptr) throw std::logic_error(name() + ": no SGSN");
  return n->id();
}

void TrMobileStation::send_tunneled(IpAddress dst, const Message& inner) {
  auto dgram = make_ip_datagram(pdp_address_, dst, inner);
  auto frame = pool_message<GbUnitData>();
  frame->imsi = config_.imsi;
  frame->payload = dgram->encode();
  send(sgsn(), std::move(frame));
}

void TrMobileStation::activate_pdp() {
  ++pdp_activations_;
  net().spans().open(SpanKind::kPdpActivation, config_.imsi.value(), name(),
                     now());
  auto req = pool_message<ActivatePdpContextRequest>();
  req->imsi = config_.imsi;
  req->nsapi = Nsapi(5);
  req->qos = QosProfile{QosClass::kConversational, 13, 1};
  req->requested_address = config_.static_pdp_address;
  send(sgsn(), std::move(req));
  retx_.arm(
      retx_key(RetxKind::kPdpActivate),
      [this] {
        // Re-emit without re-arming (arm() would restart the backoff).
        if (pdp_active_ || (state_ != State::kActivatingInitial &&
                            state_ != State::kActivatingForCall)) {
          return;
        }
        auto again = pool_message<ActivatePdpContextRequest>();
        again->imsi = config_.imsi;
        again->nsapi = Nsapi(5);
        again->qos = QosProfile{QosClass::kConversational, 13, 1};
        again->requested_address = config_.static_pdp_address;
        send(sgsn(), std::move(again));
      },
      [this] { give_up_pdp_activation(); });
}

void TrMobileStation::give_up_pdp_activation() {
  if (state_ != State::kActivatingInitial &&
      state_ != State::kActivatingForCall &&
      state_ != State::kActivatingForPage) {
    return;
  }
  net().spans().close(SpanKind::kPdpActivation, config_.imsi.value(),
                      SpanOutcome::kTimeout, now());
  pending_setup_ = nullptr;
  if (state_ == State::kActivatingInitial) {
    net().spans().close(SpanKind::kRegistration, config_.imsi.value(),
                        SpanOutcome::kTimeout, now());
  } else if (state_ == State::kActivatingForCall) {
    net().spans().close(SpanKind::kOrigination, config_.imsi.value(),
                        SpanOutcome::kTimeout, now());
  }
  if (on_failure) on_failure("PDP activation timed out");
  enter(attached_ ? State::kIdle : State::kDetached);
  pdp_active_ = false;
}

void TrMobileStation::deactivate_pdp(State next) {
  ++pdp_deactivations_;
  net().spans().open(SpanKind::kPdpDeactivation, config_.imsi.value(), name(),
                     now());
  enter(next);
  auto req = pool_message<DeactivatePdpContextRequest>();
  req->imsi = config_.imsi;
  req->nsapi = Nsapi(5);
  send(sgsn(), std::move(req));
  retx_.arm(
      retx_key(RetxKind::kPdpDeactivate),
      [this] {
        if (state_ != State::kDeactivatingIdle &&
            state_ != State::kDeactivatingAfterCall) {
          return;
        }
        auto again = pool_message<DeactivatePdpContextRequest>();
        again->imsi = config_.imsi;
        again->nsapi = Nsapi(5);
        send(sgsn(), std::move(again));
      },
      [this] {
        if (state_ != State::kDeactivatingIdle &&
            state_ != State::kDeactivatingAfterCall) {
          return;
        }
        // SGSN never confirmed: drop the context locally and move on.
        net().spans().close(SpanKind::kPdpDeactivation, config_.imsi.value(),
                            SpanOutcome::kTimeout, now());
        pdp_active_ = false;
        pdp_address_ = IpAddress{};
        enter(State::kIdle);
      });
}

void TrMobileStation::power_on() {
  if (state_ != State::kDetached) return;
  enter(State::kAttaching);
  // The TR 23.821 "registration" spans the whole Fig. 7 chain: GPRS attach,
  // initial PDP activation, and H.323 RAS registration at the gatekeeper.
  net().spans().open(SpanKind::kRegistration, config_.imsi.value(), name(),
                     now());
  auto attach = pool_message<GprsAttachRequest>();
  attach->imsi = config_.imsi;
  send(sgsn(), std::move(attach));
  retx_.arm(
      retx_key(RetxKind::kAttach),
      [this] {
        if (state_ != State::kAttaching) return;
        auto again = pool_message<GprsAttachRequest>();
        again->imsi = config_.imsi;
        send(sgsn(), std::move(again));
      },
      [this] {
        if (state_ != State::kAttaching) return;
        net().spans().close(SpanKind::kRegistration, config_.imsi.value(),
                            SpanOutcome::kTimeout, now());
        enter(State::kDetached);
        if (on_failure) on_failure("GPRS attach timed out");
      });
}

void TrMobileStation::dial(Msisdn called) {
  if (state_ != State::kIdle) {
    if (on_failure) on_failure("dial while busy");
    return;
  }
  peer_number_ = called;
  call_ref_ = CallRef((static_cast<std::uint32_t>(config_.imsi.value()) &
                       0xFFFFu) << 12 | ++call_seq_);
  net().spans().open(SpanKind::kOrigination, config_.imsi.value(), name(),
                     now());
  if (!pdp_active_) {
    // TR 23.821: the context was deactivated while idle and must be
    // rebuilt before any call signaling can flow.
    enter(State::kActivatingForCall);
    activate_pdp();
    return;
  }
  enter(State::kArqSent);
  send_arq();
}

void TrMobileStation::send_arq() {
  auto arq = pool_message<RasArq>();
  arq->endpoint_id = endpoint_id_;
  arq->call_ref = call_ref_;
  arq->calling = config_.msisdn;
  arq->called = peer_number_;
  send_tunneled(config_.gk_ip, *arq);
  retx_.arm(
      retx_key(RetxKind::kArq),
      [this] {
        // Re-emit without re-arming (arm() would restart the backoff).
        if (state_ != State::kArqSent) return;
        auto again = pool_message<RasArq>();
        again->endpoint_id = endpoint_id_;
        again->call_ref = call_ref_;
        again->calling = config_.msisdn;
        again->called = peer_number_;
        send_tunneled(config_.gk_ip, *again);
      },
      [this] {
        if (state_ != State::kArqSent) return;
        if (on_failure) on_failure("admission timed out");
        release_call(false, 102);
      });
}

void TrMobileStation::answer() {
  if (state_ != State::kRinging) return;
  net().spans().close(SpanKind::kTermination, config_.imsi.value(),
                      SpanOutcome::kOk, now());
  auto conn = pool_message<Q931Connect>();
  conn->call_ref = call_ref_;
  conn->media_address = TransportAddress(pdp_address_, config_.media_port);
  send_tunneled(remote_signal_, *conn);
  enter(State::kConnected);
  if (on_connected) on_connected(call_ref_);
  if (voice_remaining_ > 0) send_voice_frame();
}

void TrMobileStation::hangup() {
  if (state_ != State::kConnected && state_ != State::kRingback &&
      state_ != State::kCalling && state_ != State::kRinging) {
    return;
  }
  release_call(true, 16);
}

void TrMobileStation::release_call(bool notify_far_end, std::uint8_t cause) {
  // Whatever call-scoped request was outstanding is moot now.
  retx_.ack(retx_key(RetxKind::kArq));
  retx_.ack(retx_key(RetxKind::kSetup));
  if (state_ == State::kArqSent || state_ == State::kCalling ||
      state_ == State::kRingback) {
    // Our own setup ended before the far end answered.
    net().spans().close(SpanKind::kOrigination, config_.imsi.value(),
                        SpanOutcome::kRejected, now());
  } else if (state_ == State::kIncomingArq || state_ == State::kRinging) {
    // An incoming call collapsed before we answered it.
    net().spans().close(SpanKind::kTermination, config_.imsi.value(),
                        SpanOutcome::kRejected, now());
  }
  if (notify_far_end && remote_signal_.valid()) {
    auto rel = pool_message<Q931ReleaseComplete>();
    rel->call_ref = call_ref_;
    rel->cause = cause;
    send_tunneled(remote_signal_, *rel);
  }
  auto drq = pool_message<RasDrq>();
  drq->endpoint_id = endpoint_id_;
  drq->call_ref = call_ref_;
  send_tunneled(config_.gk_ip, *drq);
  CallRef drq_ref = call_ref_;
  retx_.arm(
      retx_key(RetxKind::kDrq),
      [this, drq_ref] {
        if (!pdp_active_) return;
        auto again = pool_message<RasDrq>();
        again->endpoint_id = endpoint_id_;
        again->call_ref = drq_ref;
        send_tunneled(config_.gk_ip, *again);
      },
      [this] {
        // GK never confirmed the disengage: run the deferred teardown
        // anyway so the handset is not parked in kAwaitDcf forever.
        if (state_ == State::kAwaitDcf) {
          deactivate_pdp(State::kDeactivatingAfterCall);
        }
      });
  remote_signal_ = IpAddress{};
  remote_media_ = IpAddress{};
  CallRef released = call_ref_;
  if (config_.deactivate_pdp_when_idle) {
    // Deactivate only after the DCF confirms the disengage: tearing the
    // context down immediately could outrun the release signaling still in
    // flight on the (jittery) packet radio path.
    enter(State::kAwaitDcf);
  } else {
    enter(State::kIdle);
  }
  if (on_released) on_released(released);
}

void TrMobileStation::start_voice(std::uint32_t count, SimDuration interval) {
  voice_remaining_ = count;
  voice_interval_ = interval;
  if (state_ == State::kConnected) send_voice_frame();
}

void TrMobileStation::send_voice_frame() {
  if (voice_remaining_ == 0 || state_ != State::kConnected ||
      !remote_media_.valid()) {
    return;
  }
  --voice_remaining_;
  auto rtp = pool_message<RtpPacket>();
  rtp->ssrc = endpoint_id_;
  rtp->seq = ++voice_seq_;
  rtp->timestamp = voice_seq_ * 160;
  rtp->origin_us = now().count_micros();
  send_tunneled(remote_media_, *rtp);
  if (voice_remaining_ > 0) {
    set_timer(voice_interval_, make_cookie(kVoiceKind, epoch_));
  }
}

void TrMobileStation::on_timer(TimerId, std::uint64_t cookie) {
  if (retx_.on_timer(cookie)) return;
  std::uint64_t kind = cookie >> 56;
  std::uint64_t epoch = cookie & 0x00FFFFFFFFFFFFFFULL;
  if (epoch != epoch_) return;
  if (kind == kAnswerKind && state_ == State::kRinging) answer();
  if (kind == kRingbackKind && state_ == State::kRingback) {
    // release_call closes the origination span for us (kRingback branch).
    if (on_failure) on_failure("ringback timed out");
    release_call(true, 102);
  }
  if (kind == kVoiceKind) send_voice_frame();
}

// A real MS filters on its own identity: a response echoing someone else's
// IMSI (e.g. a corrupted-but-decodable request bounced back as a reject for
// the garbled identity) must not drive our state machine, so every handler
// above starts by checking it.
const TrMobileStation::Handlers& TrMobileStation::handler_table() {
  static const Handlers table = Handlers{}
  .on([](TrMobileStation& self, const GprsAttachAccept& acc) {
    if (acc.imsi != self.config_.imsi) return;
    self.retx_.ack(retx_key(RetxKind::kAttach));
    if (self.state_ != State::kAttaching) return;
    self.attached_ = true;
    self.enter(State::kActivatingInitial);
    self.activate_pdp();
  })
  .on([](TrMobileStation& self, const GprsAttachReject& rej) {
    if (rej.imsi != self.config_.imsi) return;
    self.retx_.ack(retx_key(RetxKind::kAttach));
    if (self.state_ != State::kAttaching) return;
    self.net().spans().close(SpanKind::kRegistration, self.config_.imsi.value(),
                             SpanOutcome::kRejected, self.now());
    self.enter(State::kDetached);
    if (self.on_failure) self.on_failure("GPRS attach rejected");
  })
  .on([](TrMobileStation& self, const ActivatePdpContextAccept& acc) {
    if (acc.imsi != self.config_.imsi) return;
    self.retx_.ack(retx_key(RetxKind::kPdpActivate));
    if (self.state_ != State::kActivatingInitial &&
        self.state_ != State::kActivatingForCall &&
        self.state_ != State::kActivatingForPage) {
      return;  // duplicate accept after the span already closed
    }
    self.net().spans().close(SpanKind::kPdpActivation,
                             self.config_.imsi.value(), SpanOutcome::kOk,
                             self.now());
    self.pdp_active_ = true;
    self.pdp_address_ = acc.address;
    if (self.state_ == State::kActivatingInitial) {
      self.enter(State::kRasRegistering);
      auto rrq = pool_message<RasRrq>();
      rrq->call_signal_address =
          TransportAddress(self.pdp_address_, self.config_.signal_port);
      rrq->alias = self.config_.msisdn;
      self.send_tunneled(self.config_.gk_ip, *rrq);
      self.retx_.arm(
          retx_key(RetxKind::kRrq),
          [&self] {
            if (self.state_ != State::kRasRegistering) return;
            auto again = pool_message<RasRrq>();
            again->call_signal_address =
                TransportAddress(self.pdp_address_, self.config_.signal_port);
            again->alias = self.config_.msisdn;
            self.send_tunneled(self.config_.gk_ip, *again);
          },
          [&self] {
            if (self.state_ != State::kRasRegistering) return;
            self.net().spans().close(SpanKind::kRegistration,
                                     self.config_.imsi.value(),
                                     SpanOutcome::kTimeout, self.now());
            if (self.on_failure) self.on_failure("RAS registration timed out");
            if (self.config_.deactivate_pdp_when_idle) {
              self.deactivate_pdp(State::kDeactivatingIdle);
            } else {
              self.enter(State::kIdle);
            }
          });
      return;
    }
    if (self.state_ == State::kActivatingForCall) {
      self.enter(State::kArqSent);
      self.send_arq();
      return;
    }
    if (self.state_ == State::kActivatingForPage) {
      // Routing path re-established; the caller's Setup will now reach us
      // (or already did and was held).
      self.enter(State::kIdle);
      if (self.pending_setup_ != nullptr) {
        auto held = std::move(self.pending_setup_);
        self.pending_setup_ = nullptr;
        self.handle_tunneled(*held);
      }
      return;
    }
  })
  .on([](TrMobileStation& self, const ActivatePdpContextReject&) {
    self.retx_.ack(retx_key(RetxKind::kPdpActivate));
    if (self.state_ != State::kActivatingInitial &&
        self.state_ != State::kActivatingForCall &&
        self.state_ != State::kActivatingForPage) {
      return;
    }
    self.net().spans().close(SpanKind::kPdpActivation,
                             self.config_.imsi.value(), SpanOutcome::kRejected,
                             self.now());
    // the held caller's Setup cannot be serviced
    self.pending_setup_ = nullptr;
    if (self.state_ == State::kActivatingInitial) {
      self.net().spans().close(SpanKind::kRegistration,
                               self.config_.imsi.value(),
                               SpanOutcome::kRejected, self.now());
    } else if (self.state_ == State::kActivatingForCall) {
      self.net().spans().close(SpanKind::kOrigination,
                               self.config_.imsi.value(),
                               SpanOutcome::kRejected, self.now());
    }
    if (self.on_failure) self.on_failure("PDP activation rejected");
    self.enter(self.attached_ ? State::kIdle : State::kDetached);
    self.pdp_active_ = false;
  })
  .on([](TrMobileStation& self, const DeactivatePdpContextAccept&) {
    self.retx_.ack(retx_key(RetxKind::kPdpDeactivate));
    if (self.state_ != State::kDeactivatingIdle &&
        self.state_ != State::kDeactivatingAfterCall) {
      return;
    }
    self.net().spans().close(SpanKind::kPdpDeactivation,
                             self.config_.imsi.value(), SpanOutcome::kOk,
                             self.now());
    self.pdp_active_ = false;
    self.pdp_address_ = IpAddress{};
    if (self.state_ == State::kDeactivatingIdle ||
        self.state_ == State::kDeactivatingAfterCall) {
      self.enter(State::kIdle);
    }
  })
  .on([](TrMobileStation& self, const RequestPdpContextActivation& req) {
    if (req.imsi != self.config_.imsi) return;
    // Network-initiated activation for a terminating call (3G TR 23.821).
    if (self.state_ != State::kIdle || self.pdp_active_) return;
    self.enter(State::kActivatingForPage);
    ++self.pdp_activations_;
    self.net().spans().open(SpanKind::kPdpActivation, self.config_.imsi.value(),
                            self.name(), self.now());
    auto act = pool_message<ActivatePdpContextRequest>();
    act->imsi = self.config_.imsi;
    act->nsapi = req.nsapi;
    act->qos = QosProfile{QosClass::kConversational, 13, 1};
    act->requested_address = req.address;
    self.send(self.sgsn(), std::move(act));
    Nsapi page_nsapi = req.nsapi;
    IpAddress page_address = req.address;
    self.retx_.arm(
        retx_key(RetxKind::kPdpActivate),
        [&self, page_nsapi, page_address] {
          if (self.pdp_active_ ||
              self.state_ != State::kActivatingForPage) {
            return;
          }
          auto again = pool_message<ActivatePdpContextRequest>();
          again->imsi = self.config_.imsi;
          again->nsapi = page_nsapi;
          again->qos = QosProfile{QosClass::kConversational, 13, 1};
          again->requested_address = page_address;
          self.send(self.sgsn(), std::move(again));
        },
        [&self] { self.give_up_pdp_activation(); });
  })
  .on([](TrMobileStation& self, const GbUnitData& frame) {
    if (frame.imsi != self.config_.imsi) return;
    auto decoded = MessageRegistry::instance().decode(frame.payload);
    if (!decoded.ok()) return;
    const auto* dgram = message_cast<IpDatagram>(decoded.value().get());
    if (dgram == nullptr) return;
    auto inner = ip_payload(*dgram);
    if (!inner.ok()) return;
    self.handle_tunneled(*inner.value());
  });
  return table;
}

void TrMobileStation::on_message(const Envelope& env) {
  if (handler_table().dispatch(*this, *env.msg, env)) return;
  VG_DEBUG("tr-ms", name() << ": ignoring " << env.msg->name());
}

void TrMobileStation::handle_tunneled(const Message& inner) {
  if (tunnel_table().dispatch(*this, inner)) return;
  VG_DEBUG("tr-ms", name() << ": ignoring tunneled " << inner.name());
}

const TrMobileStation::TunnelHandlers& TrMobileStation::tunnel_table() {
  static const TunnelHandlers table = TunnelHandlers{}
  .on([](TrMobileStation& self, const RasRcf& rcf) {
    self.retx_.ack(retx_key(RetxKind::kRrq));
    if (self.state_ != State::kRasRegistering) return;
    self.net().spans().close(SpanKind::kRegistration, self.config_.imsi.value(),
                             SpanOutcome::kOk, self.now());
    self.endpoint_id_ = rcf.endpoint_id;
    // Step 6 of TR 23.821 Fig. 7: deactivate the context once registered.
    if (self.config_.deactivate_pdp_when_idle) {
      self.deactivate_pdp(State::kDeactivatingIdle);
    } else {
      self.enter(State::kIdle);
    }
    if (self.on_registered) self.on_registered();
  })
  .on([](TrMobileStation& self, const RasAcf& acf) {
    self.retx_.ack(retx_key(RetxKind::kArq));
    if (self.state_ == State::kArqSent && acf.call_ref == self.call_ref_) {
      self.remote_signal_ = acf.dest_call_signal_address.ip();
      self.enter(State::kCalling);
      auto setup = pool_message<Q931Setup>();
      setup->call_ref = self.call_ref_;
      setup->calling = self.config_.msisdn;
      setup->called = self.peer_number_;
      setup->src_signal_address =
          TransportAddress(self.pdp_address_, self.config_.signal_port);
      setup->media_address =
          TransportAddress(self.pdp_address_, self.config_.media_port);
      self.send_tunneled(self.remote_signal_, *setup);
      self.retx_.arm(
          retx_key(RetxKind::kSetup),
          [&self] {
            if (self.state_ != State::kCalling) return;
            auto again = pool_message<Q931Setup>();
            again->call_ref = self.call_ref_;
            again->calling = self.config_.msisdn;
            again->called = self.peer_number_;
            again->src_signal_address =
                TransportAddress(self.pdp_address_, self.config_.signal_port);
            again->media_address =
                TransportAddress(self.pdp_address_, self.config_.media_port);
            self.send_tunneled(self.remote_signal_, *again);
          },
          [&self] {
            if (self.state_ != State::kCalling) return;
            if (self.on_failure) self.on_failure("Setup timed out");
            self.release_call(true, 102);
          });
      return;
    }
    if (self.state_ == State::kIncomingArq && acf.call_ref == self.call_ref_) {
      self.enter(State::kRinging);
      auto alert = pool_message<Q931Alerting>();
      alert->call_ref = self.call_ref_;
      self.send_tunneled(self.remote_signal_, *alert);
      if (self.on_incoming) self.on_incoming(self.call_ref_, self.peer_number_);
      if (self.config_.auto_answer) {
        self.set_timer(self.config_.answer_delay,
                       make_cookie(kAnswerKind, self.epoch_));
      }
      return;
    }
  })
  .on([](TrMobileStation& self, const RasArj& arj) {
    self.retx_.ack(retx_key(RetxKind::kArq));
    if (arj.call_ref != self.call_ref_) return;
    if (self.state_ == State::kArqSent || self.state_ == State::kIncomingArq) {
      if (self.on_failure) {
        self.on_failure("admission rejected, cause " +
                        std::to_string(arj.cause));
      }
      self.release_call(self.state_ == State::kIncomingArq, 47);
    }
  })
  .on([](TrMobileStation& self, const RasDcf&) {
    self.retx_.ack(retx_key(RetxKind::kDrq));
    if (self.state_ == State::kAwaitDcf) {
      self.deactivate_pdp(State::kDeactivatingAfterCall);
    }
  })
  .on([](TrMobileStation& self, const Q931Setup& setup) {
    if (self.state_ == State::kActivatingForPage ||
        (self.state_ == State::kIdle && !self.pdp_active_)) {
      // The network paged us for this call; the caller's Setup overtook our
      // activation accept on the jittery Gb path.  Hold it until the
      // context is up rather than bouncing the call as busy.
      self.pending_setup_ = pool_message<Q931Setup>(setup);
      return;
    }
    if (setup.call_ref == self.call_ref_ && self.state_ != State::kIdle &&
        self.state_ != State::kDetached &&
        setup.src_signal_address.ip() == self.remote_signal_) {
      // Duplicate Setup for the call we are already handling: re-confirm
      // rather than busy-releasing our own call.
      auto proceed = pool_message<Q931CallProceeding>();
      proceed->call_ref = self.call_ref_;
      self.send_tunneled(self.remote_signal_, *proceed);
      return;
    }
    if (self.state_ != State::kIdle || !self.pdp_active_) {
      auto rel = pool_message<Q931ReleaseComplete>();
      rel->call_ref = setup.call_ref;
      rel->cause = 17;
      self.send_tunneled(setup.src_signal_address.ip(), *rel);
      return;
    }
    self.call_ref_ = setup.call_ref;
    self.peer_number_ = setup.calling;
    self.remote_signal_ = setup.src_signal_address.ip();
    self.remote_media_ = setup.media_address.ip();
    self.net().spans().open(SpanKind::kTermination, self.config_.imsi.value(),
                            self.name(), self.now());
    auto proceed = pool_message<Q931CallProceeding>();
    proceed->call_ref = self.call_ref_;
    self.send_tunneled(self.remote_signal_, *proceed);
    self.enter(State::kIncomingArq);
    auto arq = pool_message<RasArq>();
    arq->endpoint_id = self.endpoint_id_;
    arq->call_ref = self.call_ref_;
    arq->calling = setup.calling;
    arq->called = self.config_.msisdn;
    arq->answer_call = true;
    self.send_tunneled(self.config_.gk_ip, *arq);
    self.retx_.arm(
        retx_key(RetxKind::kArq),
        [&self] {
          if (self.state_ != State::kIncomingArq) return;
          auto again = pool_message<RasArq>();
          again->endpoint_id = self.endpoint_id_;
          again->call_ref = self.call_ref_;
          again->calling = self.peer_number_;
          again->called = self.config_.msisdn;
          again->answer_call = true;
          self.send_tunneled(self.config_.gk_ip, *again);
        },
        [&self] {
          if (self.state_ != State::kIncomingArq) return;
          if (self.on_failure) self.on_failure("admission timed out");
          self.release_call(true, 102);
        });
  })
  .on([](TrMobileStation& self, const Q931CallProceeding&) {
    self.retx_.ack(retx_key(RetxKind::kSetup));
  })
  .on([](TrMobileStation& self, const Q931Alerting& alert) {
    self.retx_.ack(retx_key(RetxKind::kSetup));
    if (self.state_ == State::kCalling && alert.call_ref == self.call_ref_) {
      self.enter(State::kRingback);
      // enter() bumped the epoch, so an answer or release invalidates this.
      self.set_timer(self.config_.ringback_timeout,
                     make_cookie(kRingbackKind, self.epoch_));
      if (self.on_ringback) self.on_ringback(self.call_ref_);
    }
  })
  .on([](TrMobileStation& self, const Q931Connect& conn) {
    self.retx_.ack(retx_key(RetxKind::kSetup));
    if ((self.state_ == State::kRingback || self.state_ == State::kCalling) &&
        conn.call_ref == self.call_ref_) {
      self.net().spans().close(SpanKind::kOrigination,
                               self.config_.imsi.value(), SpanOutcome::kOk,
                               self.now());
      self.remote_media_ = conn.media_address.ip();
      self.enter(State::kConnected);
      if (self.on_connected) self.on_connected(self.call_ref_);
      if (self.voice_remaining_ > 0) self.send_voice_frame();
    }
  })
  .on([](TrMobileStation& self, const Q931ReleaseComplete& rel) {
    self.retx_.ack(retx_key(RetxKind::kSetup));
    if (rel.call_ref == self.call_ref_ && self.state_ != State::kIdle &&
        self.state_ != State::kDetached && self.state_ != State::kAwaitDcf &&
        self.state_ != State::kDeactivatingAfterCall) {
      self.release_call(false, rel.cause);
    }
  })
  .on([](TrMobileStation& self, const RtpPacket& rtp) {
    if (self.state_ == State::kConnected) {
      ++self.voice_rx_;
      self.voice_latency_.add(
          SimDuration::micros(self.now().count_micros() - rtp.origin_us));
    }
  });
  return table;
}

}  // namespace vgprs
