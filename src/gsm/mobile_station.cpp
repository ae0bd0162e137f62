#include "gsm/mobile_station.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace vgprs {

namespace {
constexpr std::uint64_t cookie_of(MobileStation::State, std::uint8_t kind,
                                  std::uint64_t epoch) {
  return (std::uint64_t{kind} << 56) | (epoch & 0x00FFFFFFFFFFFFFFULL);
}
}  // namespace

void MobileStation::enter(State s) {
  state_ = s;
  ++epoch_;
}

void MobileStation::arm_guard() {
  set_timer(config_.retry_interval,
            cookie_of(state_, static_cast<std::uint8_t>(TimerKind::kGuard),
                      epoch_));
}

void MobileStation::start_step(MessagePtr msg) {
  last_proc_msg_ = msg;
  retries_left_ = config_.max_retries;
  send(bts(), std::move(msg));
  arm_guard();
}

NodeId MobileStation::bts() const {
  return bts_by_name(serving_bts_.empty() ? config_.bts_name : serving_bts_);
}

NodeId MobileStation::bts_by_name(const std::string& bts_name) const {
  Node* n = net().node_by_name(bts_name);
  if (n == nullptr) throw std::logic_error(name() + ": no BTS " + bts_name);
  return n->id();
}

void MobileStation::close_state_span(SpanOutcome outcome) {
  SpanTracker& spans = net().spans();
  if (!spans.enabled()) return;
  const std::uint64_t corr = config_.imsi.value();
  switch (state_) {
    case State::kRegistering:
      spans.close(SpanKind::kRegistration, corr, outcome, now());
      break;
    case State::kMoChannel:
    case State::kMoService:
    case State::kMoSetup:
    case State::kMoRinging:
      spans.close(SpanKind::kOrigination, corr, outcome, now());
      break;
    case State::kReleasing:
      spans.close(SpanKind::kRelease, corr, outcome, now());
      break;
    default:
      break;  // MT-side and handoff spans belong to the MSC
  }
}

void MobileStation::fail(const std::string& reason) {
  VG_WARN("ms", name() << ": " << reason);
  close_state_span(reason.starts_with("guard timeout")
                       ? SpanOutcome::kTimeout
                       : SpanOutcome::kRejected);
  enter(tmsi_.valid() ? State::kIdle : State::kDetached);
  if (on_failure) on_failure(reason);
}

void MobileStation::power_on() {
  if (state_ != State::kDetached) return;
  enter(State::kRegistering);
  net().spans().open(SpanKind::kRegistration, config_.imsi.value(), name(),
                     now());
  auto msg = pool_message<UmLocationUpdateRequest>();
  msg->imsi = config_.imsi;
  msg->tmsi = tmsi_;
  start_step(std::move(msg));
}

void MobileStation::power_off() {
  if (state_ == State::kDetached) return;
  if (state_ != State::kIdle) hangup();
  auto detach = pool_message<UmImsiDetach>();
  detach->imsi = config_.imsi;
  send(bts(), std::move(detach));
  enter(State::kDetached);
}

void MobileStation::move_to(const std::string& bts_name) {
  serving_bts_ = bts_name;
  if (state_ == State::kIdle) {
    // Movement-triggered location update: same procedure as power-on, but
    // the MS identifies with its TMSI.
    enter(State::kRegistering);
    net().spans().open(SpanKind::kRegistration, config_.imsi.value(), name(),
                       now());
    auto msg = pool_message<UmLocationUpdateRequest>();
    msg->imsi = config_.imsi;
    msg->tmsi = tmsi_;
    start_step(std::move(msg));
  }
}

void MobileStation::dial(Msisdn called) {
  if (state_ != State::kIdle) {
    fail("dial while " + std::string(to_string(state_)));
    return;
  }
  pending_called_ = called;
  call_ref_ = CallRef((config_.imsi.value() & 0xFFFF) << 12 | ++call_seq_);
  enter(State::kMoChannel);
  net().spans().open(SpanKind::kOrigination, config_.imsi.value(), name(),
                     now());
  auto msg = pool_message<UmChannelRequest>();
  msg->imsi = config_.imsi;
  msg->cause = ChannelCause::kOriginatingCall;
  start_step(std::move(msg));
}

void MobileStation::answer() {
  if (state_ != State::kMtRinging) return;
  auto msg = pool_message<UmConnect>();
  msg->imsi = config_.imsi;
  msg->call_ref = call_ref_;
  start_step(std::move(msg));
}

void MobileStation::hangup() {
  if (state_ != State::kConnected && state_ != State::kMoRinging &&
      state_ != State::kMoSetup) {
    return;
  }
  // Abandoning before connect: the origination span is still open and no
  // answer will ever close it.  (From kConnected this is a no-op.)
  close_state_span(SpanOutcome::kRejected);
  enter(State::kReleasing);
  net().spans().open(SpanKind::kRelease, config_.imsi.value(), name(), now());
  auto msg = pool_message<UmDisconnect>();
  msg->imsi = config_.imsi;
  msg->call_ref = call_ref_;
  msg->cause = ClearCause::kNormal;
  start_step(std::move(msg));
}

void MobileStation::start_voice(std::uint32_t count, SimDuration interval) {
  voice_remaining_ = count;
  voice_interval_ = interval;
  if (state_ == State::kConnected) send_voice_frame();
}

void MobileStation::send_voice_frame() {
  if (voice_remaining_ == 0 || state_ != State::kConnected) return;
  --voice_remaining_;
  auto frame = pool_message<UmVoiceFrame>();
  frame->imsi = config_.imsi;
  frame->call_ref = call_ref_;
  frame->uplink = true;
  frame->seq = ++voice_seq_;
  frame->origin_us = now().count_micros();
  send(bts(), std::move(frame));
  if (voice_remaining_ > 0) {
    set_timer(voice_interval_,
              cookie_of(state_, static_cast<std::uint8_t>(TimerKind::kVoice),
                        epoch_));
  }
}

void MobileStation::add_neighbor_bts(CellId cell, std::string bts_name) {
  neighbor_bts_[cell] = std::move(bts_name);
}

void MobileStation::on_timer(TimerId, std::uint64_t cookie) {
  auto kind = static_cast<TimerKind>(cookie >> 56);
  std::uint64_t epoch = cookie & 0x00FFFFFFFFFFFFFFULL;
  switch (kind) {
    case TimerKind::kAnswer:
      if (epoch == epoch_ && state_ == State::kMtRinging) answer();
      break;
    case TimerKind::kGuard:
      if (epoch == epoch_) {
        // Still in the state that armed supervision: the last message (or
        // its answer) was lost.  Retransmit, LAPDm-style, then give up.
        if (retries_left_ > 0 && last_proc_msg_ != nullptr) {
          --retries_left_;
          send(bts(), MessagePtr(last_proc_msg_->clone()));
          arm_guard();
        } else {
          fail(std::string("guard timeout in state ") + to_string(state_));
        }
      }
      break;
    case TimerKind::kVoice:
      // Voice cadence survives within the connected state (epoch unchanged).
      if (epoch == epoch_) send_voice_frame();
      break;
  }
}

const MobileStation::Handlers& MobileStation::handler_table() {
  static const Handlers table = Handlers{}
  // In a busy cell nearly every message an MS receives is a page for
  // somebody else: the BTS repeats every page to each MS camped on the cell.
  .on([](MobileStation& self, const UmPagingRequest& page) {
    const bool mine = page.imsi == self.config_.imsi ||
                      (page.tmsi.valid() && page.tmsi == self.tmsi_);
    if (!mine || self.state_ != State::kIdle) return;
    self.enter(State::kMtChannel);
    auto req = pool_message<UmChannelRequest>();
    req->imsi = self.config_.imsi;
    req->cause = ChannelCause::kPageResponse;
    self.start_step(std::move(req));
  })
  .on([](MobileStation& self, const UmAuthRequest& auth, const Envelope& env) {
    auto rsp = pool_message<UmAuthResponse>();
    rsp->imsi = self.config_.imsi;
    rsp->sres = gsm_a3_sres(self.config_.ki, auth.rand);
    self.send(env.from, std::move(rsp));
  })
  .on([](MobileStation& self, const UmCipherModeCommand&, const Envelope& env) {
    auto rsp = pool_message<UmCipherModeComplete>();
    rsp->imsi = self.config_.imsi;
    self.send(env.from, std::move(rsp));
  })
  .on([](MobileStation& self, const UmLocationUpdateReject& rej) {
    if (self.state_ == State::kRegistering) {
      self.close_state_span(SpanOutcome::kRejected);
      self.enter(State::kDetached);
      if (self.on_failure) {
        self.on_failure("location update rejected, cause " +
                        std::to_string(rej.cause));
      }
    }
  })
  .on([](MobileStation& self, const UmCmServiceReject& rej) {
    if (self.state_ == State::kMoService || self.state_ == State::kMoSetup) {
      self.close_state_span(SpanOutcome::kRejected);
      self.enter(State::kIdle);
      if (self.on_failure) {
        self.on_failure("CM service rejected, cause " +
                        std::to_string(rej.cause));
      }
      if (rej.cause == 4) {
        // GSM 04.08 cause #4 "IMSI unknown in VLR": the network lost our
        // registration (VLR or switch restart).  Delete the TMSI and run
        // location updating again so service can resume.
        self.tmsi_ = Tmsi{};
        ++self.net().metrics().counter("recovery/reregistrations");
        self.enter(State::kRegistering);
        self.net().spans().open(SpanKind::kRegistration,
                                self.config_.imsi.value(), self.name(),
                                self.now());
        auto lu = pool_message<UmLocationUpdateRequest>();
        lu->imsi = self.config_.imsi;
        lu->tmsi = self.tmsi_;
        self.start_step(std::move(lu));
      }
    }
  })
  .on([](MobileStation& self, const UmLocationUpdateAccept& acc) {
    if (self.state_ != State::kRegistering) return;
    self.close_state_span(SpanOutcome::kOk);
    self.tmsi_ = acc.new_tmsi;
    self.enter(State::kIdle);
    if (self.on_registered) self.on_registered();
  })
  .on([](MobileStation& self, const UmImmediateAssignment&) {
    if (self.state_ == State::kMoChannel) {
      self.enter(State::kMoService);
      auto req = pool_message<UmCmServiceRequest>();
      req->imsi = self.config_.imsi;
      req->tmsi = self.tmsi_;
      req->service = 1;
      self.start_step(std::move(req));
    } else if (self.state_ == State::kMtChannel) {
      self.enter(State::kMtPaged);
      auto rsp = pool_message<UmPagingResponse>();
      rsp->imsi = self.config_.imsi;
      rsp->tmsi = self.tmsi_;
      self.start_step(std::move(rsp));
    }
  })
  .on([](MobileStation& self, const UmCmServiceAccept&) {
    if (self.state_ != State::kMoService) return;
    self.enter(State::kMoSetup);
    auto setup = pool_message<UmSetup>();
    setup->imsi = self.config_.imsi;
    setup->call_ref = self.call_ref_;
    setup->calling = self.config_.msisdn;
    setup->called = self.pending_called_;
    self.start_step(std::move(setup));
  })
  .on([](MobileStation& self, const UmAssignmentCommand& asg) {
    auto done = pool_message<UmAssignmentComplete>();
    done->imsi = self.config_.imsi;
    done->call_ref = asg.call_ref;
    done->channel = asg.channel;
    self.send(self.bts(), std::move(done));
  })
  .on([](MobileStation& self, const UmSetup& setup) {
    if (self.state_ != State::kMtPaged) return;
    self.call_ref_ = setup.call_ref;
    self.enter(State::kMtRinging);
    if (self.on_incoming) self.on_incoming(self.call_ref_, setup.calling);
    auto alert = pool_message<UmAlerting>();
    alert->imsi = self.config_.imsi;
    alert->call_ref = self.call_ref_;
    self.send(self.bts(), std::move(alert));
    if (self.config_.auto_answer) {
      self.set_timer(self.config_.answer_delay,
                     cookie_of(self.state_,
                          static_cast<std::uint8_t>(TimerKind::kAnswer),
                          self.epoch_));
    }
  })
  .on([](MobileStation&, const UmCallProceeding&) {
    // informational
  })
  .on([](MobileStation& self, const UmAlerting&) {
    if (self.state_ == State::kMoSetup) {
      self.enter(State::kMoRinging);
      if (self.on_ringback) self.on_ringback(self.call_ref_);
    }
  })
  .on([](MobileStation& self, const UmConnect&) {
    if (self.state_ == State::kMoRinging || self.state_ == State::kMoSetup) {
      self.close_state_span(SpanOutcome::kOk);
      auto ack = pool_message<UmConnectAck>();
      ack->imsi = self.config_.imsi;
      ack->call_ref = self.call_ref_;
      self.send(self.bts(), std::move(ack));
      self.enter(State::kConnected);
      if (self.on_connected) self.on_connected(self.call_ref_);
      if (self.voice_remaining_ > 0) self.send_voice_frame();
    }
  })
  .on([](MobileStation& self, const UmConnectAck&) {
    if (self.state_ == State::kMtRinging) {
      self.enter(State::kConnected);
      if (self.on_connected) self.on_connected(self.call_ref_);
      if (self.voice_remaining_ > 0) self.send_voice_frame();
    }
  })
  .on([](MobileStation& self, const UmDisconnect& disc) {
    // Network-initiated clearing: legal in any in-call state, including
    // the MT pre-ring states (the caller may abandon during paging).
    if (self.state_ == State::kConnected || self.state_ == State::kMtRinging ||
        self.state_ == State::kMoRinging || self.state_ == State::kMoSetup ||
        self.state_ == State::kMoService || self.state_ == State::kMtPaged ||
        self.state_ == State::kMtChannel) {
      // Clearing mid-setup aborts the MO origination in flight.
      self.close_state_span(SpanOutcome::kRejected);
      self.enter(State::kReleasing);
      self.net().spans().open(SpanKind::kRelease, self.config_.imsi.value(),
                              self.name(), self.now());
      auto rel = pool_message<UmRelease>();
      rel->imsi = self.config_.imsi;
      rel->call_ref = disc.call_ref;
      self.start_step(std::move(rel));
    }
  })
  .on([](MobileStation& self, const UmRelease& rel) {
    // Network confirms MS-initiated disconnect.
    if (self.state_ == State::kReleasing) {
      self.close_state_span(SpanOutcome::kOk);
      auto done = pool_message<UmReleaseComplete>();
      done->imsi = self.config_.imsi;
      done->call_ref = rel.call_ref;
      self.send(self.bts(), std::move(done));
      self.enter(State::kIdle);
      if (self.on_released) self.on_released(rel.call_ref);
    }
  })
  .on([](MobileStation& self, const UmReleaseComplete& rc) {
    if (self.state_ == State::kReleasing) {
      self.close_state_span(SpanOutcome::kOk);
      self.enter(State::kIdle);
      if (self.on_released) self.on_released(rc.call_ref);
    }
  })
  .on([](MobileStation& self, const UmHandoverCommand& ho) {
    auto it = self.neighbor_bts_.find(ho.target_cell);
    if (it == self.neighbor_bts_.end()) {
      self.fail("handover to unknown cell " + ho.target_cell.to_string());
      return;
    }
    self.serving_bts_ = it->second;
    auto access = pool_message<UmHandoverAccess>();
    access->imsi = self.config_.imsi;
    access->call_ref = ho.call_ref;
    self.send(self.bts(), access);
    auto complete = pool_message<UmHandoverComplete>();
    complete->imsi = self.config_.imsi;
    complete->call_ref = ho.call_ref;
    self.send(self.bts(), std::move(complete));
  })
  .on([](MobileStation& self, const UmVoiceFrame& vf) {
    ++self.voice_rx_;
    self.voice_latency_.add(
        SimDuration::micros(self.now().count_micros() - vf.origin_us));
  });
  return table;
}

void MobileStation::on_message(const Envelope& env) {
  if (handler_table().dispatch(*this, *env.msg, env)) return;
  VG_DEBUG("ms", name() << ": ignoring " << env.msg->name() << " in state "
                        << to_string(state_));
}

}  // namespace vgprs
