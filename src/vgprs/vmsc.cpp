#include "vgprs/vmsc.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace vgprs {

const Vmsc::VgprsState* Vmsc::vgprs_state(Imsi imsi) const {
  return vgprs_states_.find(imsi);
}

std::size_t Vmsc::ready_count() const {
  std::size_t n = 0;
  for (const auto& [imsi, vs] : vgprs_states_) {
    (void)imsi;
    if (vs.phase == VgprsState::Phase::kReady) ++n;
  }
  return n;
}

NodeId Vmsc::sgsn() const {
  Node* n = net().node_by_name(config_.sgsn_name);
  if (n == nullptr) throw std::logic_error(name() + ": no SGSN");
  return n->id();
}

void Vmsc::send_tunneled(Imsi imsi, IpAddress src, IpAddress dst,
                         const Message& inner, SimDuration processing) {
  auto dgram = make_ip_datagram(src, dst, inner);
  auto frame = pool_message<GbUnitData>();
  frame->imsi = imsi;
  frame->payload = dgram->encode();
  send(sgsn(), std::move(frame), processing);
}

// --- registration substrate (paper steps 1.3-1.5) -----------------------------

void Vmsc::on_registration_substrate(MsContext& ctx) {
  VgprsState& vs = vstate(ctx.imsi);
  vs.alias = ctx.msisdn;
  if (vs.phase == VgprsState::Phase::kReady) {
    // Re-registration (e.g. movement within the VMSC area).
    finish_registration(ctx);
    return;
  }
  vs.phase = VgprsState::Phase::kAttaching;
  auto attach = pool_message<GprsAttachRequest>();
  attach->imsi = ctx.imsi;
  send(sgsn(), std::move(attach));
  retx().arm(
      retx_key(RetxKind::kGprsAttach, ctx.imsi),
      [this, imsi = ctx.imsi] {
        VgprsState* st = vgprs_states_.find(imsi);
        if (st == nullptr || st->phase != VgprsState::Phase::kAttaching) {
          return;
        }
        auto again = pool_message<GprsAttachRequest>();
        again->imsi = imsi;
        send(sgsn(), std::move(again));
      },
      [this, imsi = ctx.imsi] {
        // Giving up on the attach must also clear the vGPRS phase, or the
        // endpoint is wedged in kAttaching and every later registration
        // attempt short-circuits on the stale state.
        if (VgprsState* st = vgprs_states_.find(imsi);
            st != nullptr && st->phase == VgprsState::Phase::kAttaching) {
          st->phase = VgprsState::Phase::kNone;
        }
        if (MsContext* c = context(imsi)) {
          if (c->step == Step::kSubstrate) reject_registration(*c, 17);
        }
      });
}

void Vmsc::activate_signaling_context(Imsi imsi) {
  net().spans().open(SpanKind::kPdpActivation, imsi.value(), name(), now());
  auto req = pool_message<ActivatePdpContextRequest>();
  req->imsi = imsi;
  req->nsapi = kSignalingNsapi;
  req->qos = config_.signaling_qos;
  send(sgsn(), std::move(req));
  retx().arm(
      retx_key(RetxKind::kPdpActivateSig, imsi),
      [this, imsi] {
        VgprsState* st = vgprs_states_.find(imsi);
        if (st == nullptr || st->signaling_active) return;
        auto again = pool_message<ActivatePdpContextRequest>();
        again->imsi = imsi;
        again->nsapi = kSignalingNsapi;
        again->qos = config_.signaling_qos;
        send(sgsn(), std::move(again));
      },
      [this, imsi] {
        // The signaling context is the substrate for everything: without
        // it neither registration nor a queued MO call can proceed.
        net().spans().close(SpanKind::kPdpActivation, imsi.value(),
                            SpanOutcome::kTimeout, now());
        if (VgprsState* st = vgprs_states_.find(imsi); st != nullptr) {
          st->mo_pending = false;
          if (st->phase == VgprsState::Phase::kActivatingSignaling) {
            st->phase = VgprsState::Phase::kNone;
          }
        }
        if (MsContext* ctx = context(imsi)) {
          if (ctx->step == Step::kSubstrate) {
            reject_registration(*ctx, 17);
          } else if (ctx->proc == Proc::kMoCall &&
                     ctx->step != Step::kActive) {
            reject_mo_call(*ctx, ClearCause::kNetworkFailure);
          }
        }
      });
}

void Vmsc::activate_voice_context(Imsi imsi) {
  net().spans().open(SpanKind::kPdpActivation, imsi.value(), name(), now());
  auto req = pool_message<ActivatePdpContextRequest>();
  req->imsi = imsi;
  req->nsapi = kVoiceNsapi;
  req->qos = config_.voice_qos;
  send(sgsn(), std::move(req));
  retx().arm(
      retx_key(RetxKind::kPdpActivateVoice, imsi),
      [this, imsi] {
        VgprsState* st = vgprs_states_.find(imsi);
        if (st == nullptr || st->voice_active) return;
        MsContext* ctx = context(imsi);
        if (ctx == nullptr || ctx->step != Step::kActive) return;
        auto again = pool_message<ActivatePdpContextRequest>();
        again->imsi = imsi;
        again->nsapi = kVoiceNsapi;
        again->qos = config_.voice_qos;
        send(sgsn(), std::move(again));
      },
      [this, imsi] {
        // The call survives without the conversational context: uplink
        // voice falls back to the signaling context (degraded QoS), which
        // is exactly what on_uplink_voice does when voice_active is false.
        net().spans().close(SpanKind::kPdpActivation, imsi.value(),
                            SpanOutcome::kTimeout, now());
        VG_WARN("vmsc", name() << ": no voice PDP context for "
                               << imsi.to_string()
                               << "; falling back to signaling context");
      });
}

void Vmsc::deactivate_context(Imsi imsi, Nsapi nsapi) {
  net().spans().open(SpanKind::kPdpDeactivation, imsi.value(), name(), now());
  auto req = pool_message<DeactivatePdpContextRequest>();
  req->imsi = imsi;
  req->nsapi = nsapi;
  send(sgsn(), std::move(req));
  const RetxKind kind = nsapi == kVoiceNsapi ? RetxKind::kPdpDeactivateVoice
                                             : RetxKind::kPdpDeactivateSig;
  retx().arm(
      retx_key(kind, imsi),
      [this, imsi, nsapi] {
        const VgprsState* st = vgprs_states_.find(imsi);
        if (st == nullptr) return;
        if (nsapi == kVoiceNsapi ? !st->voice_active
                                 : !st->signaling_active) {
          return;
        }
        auto again = pool_message<DeactivatePdpContextRequest>();
        again->imsi = imsi;
        again->nsapi = nsapi;
        send(sgsn(), std::move(again));
      },
      [this, imsi, nsapi] {
        // Locally the context is gone either way; a leaked context at the
        // SGSN is reclaimed at detach.
        net().spans().close(SpanKind::kPdpDeactivation, imsi.value(),
                            SpanOutcome::kTimeout, now());
        VgprsState* st = vgprs_states_.find(imsi);
        if (st == nullptr) return;
        if (nsapi == kVoiceNsapi) {
          st->voice_active = false;
          st->voice_ip = IpAddress{};
        } else {
          st->signaling_active = false;
          st->signaling_ip = IpAddress{};
        }
      });
}

// --- MO call (paper Fig. 5) -----------------------------------------------------

void Vmsc::send_arq_for_mo(MsContext& ctx, VgprsState& vs) {
  auto arq = pool_message<RasArq>();
  arq->endpoint_id = vs.endpoint_id;
  arq->call_ref = ctx.call_ref;
  arq->calling = ctx.calling;
  arq->called = ctx.called;
  send_tunneled(ctx.imsi, vs.signaling_ip, config_.gk_ip, *arq);
  retx().arm(
      retx_key(RetxKind::kRasArq, ctx.imsi),
      [this, imsi = ctx.imsi] {
        // Re-emit without re-arming (arm() would restart the backoff).
        MsContext* c = context(imsi);
        VgprsState* st = vgprs_states_.find(imsi);
        if (c == nullptr || st == nullptr || c->proc != Proc::kMoCall ||
            st->remote_signal.valid()) {
          return;
        }
        auto again = pool_message<RasArq>();
        again->endpoint_id = st->endpoint_id;
        again->call_ref = c->call_ref;
        again->calling = c->calling;
        again->called = c->called;
        send_tunneled(imsi, st->signaling_ip, config_.gk_ip, *again);
      },
      [this, imsi = ctx.imsi] {
        if (MsContext* c = context(imsi)) {
          if (c->proc == Proc::kMoCall && c->step != Step::kActive) {
            reject_mo_call(*c, ClearCause::kNetworkFailure);
          }
        }
      });
}

void Vmsc::route_mo_call(MsContext& ctx) {
  VgprsState& vs = vstate(ctx.imsi);
  if (vs.phase != VgprsState::Phase::kReady) {
    reject_mo_call(ctx, ClearCause::kNetworkFailure);
    return;
  }
  if (!vs.signaling_active) {
    // Idle-deactivation ablation: the signaling context must be rebuilt
    // (and the alias re-registered, since the PDP address is dynamic)
    // before any call signaling can flow.  This is the setup-time penalty
    // Section 6 attributes to the TR 23.821 lifecycle.
    vs.mo_pending = true;
    activate_signaling_context(ctx.imsi);
    return;
  }
  send_arq_for_mo(ctx, vs);
}

// --- release (paper steps 3.1-3.4) -----------------------------------------------

void Vmsc::arm_drq(Imsi imsi, CallRef call_ref) {
  retx().arm(
      retx_key(RetxKind::kRasDrq, imsi),
      [this, imsi, call_ref] {
        VgprsState* st = vgprs_states_.find(imsi);
        if (st == nullptr || !st->signaling_active) return;
        auto again = pool_message<RasDrq>();
        again->endpoint_id = st->endpoint_id;
        again->call_ref = call_ref;
        send_tunneled(imsi, st->signaling_ip, config_.gk_ip, *again);
      },
      [this, imsi] {
        // The gatekeeper will age the admission out; finish the local
        // teardown (step 3.4) that was waiting on the DCF.
        VgprsState* st = vgprs_states_.find(imsi);
        if (st == nullptr) return;
        if (st->pending_drq_deactivate) {
          st->pending_drq_deactivate = false;
          deactivate_context(imsi, kVoiceNsapi);
        }
      });
}

void Vmsc::detach_and_forget(Imsi imsi) {
  auto detach = pool_message<GprsDetachRequest>();
  detach->imsi = imsi;
  send(sgsn(), std::move(detach));
  retx().arm(
      retx_key(RetxKind::kGprsDetach, imsi),
      [this, imsi] {
        auto again = pool_message<GprsDetachRequest>();
        again->imsi = imsi;
        send(sgsn(), std::move(again));
      },
      // The SGSN detach is idempotent and the MS table entry is already
      // gone; nothing further to unwind.
      std::function<void()>{});
  vgprs_states_.erase(imsi);
}

void Vmsc::release_h323_leg(MsContext& ctx, ClearCause cause) {
  VgprsState& vs = vstate(ctx.imsi);
  // Step 3.2: release the H.323 leg.
  if (vs.remote_signal.valid() && vs.signaling_active) {
    auto rel = pool_message<Q931ReleaseComplete>();
    rel->call_ref = ctx.call_ref;
    rel->cause = static_cast<std::uint8_t>(cause);
    send_tunneled(ctx.imsi, vs.signaling_ip, vs.remote_signal, *rel);
  }
  if (vs.signaling_active) {
    // Step 3.3: disengage at the gatekeeper (charging stops).  Step 3.4
    // (voice context deactivation) follows when the DCF arrives.
    auto drq = pool_message<RasDrq>();
    drq->endpoint_id = vs.endpoint_id;
    drq->call_ref = ctx.call_ref;
    send_tunneled(ctx.imsi, vs.signaling_ip, config_.gk_ip, *drq);
    vs.pending_drq_deactivate = vs.voice_active;
    arm_drq(ctx.imsi, ctx.call_ref);
  } else if (vs.voice_active) {
    deactivate_context(ctx.imsi, kVoiceNsapi);
  }
}

void Vmsc::on_ms_disconnect(MsContext& ctx, ClearCause cause) {
  release_h323_leg(ctx, cause);
  complete_ms_release(ctx);
}

void Vmsc::on_call_aborted(MsContext& ctx) {
  release_h323_leg(ctx, ClearCause::kNetworkFailure);
}

void Vmsc::on_mt_alerting(MsContext& ctx) {
  VgprsState& vs = vstate(ctx.imsi);
  auto alert = pool_message<Q931Alerting>();
  alert->call_ref = ctx.call_ref;
  send_tunneled(ctx.imsi, vs.signaling_ip, vs.remote_signal, *alert);
}

void Vmsc::on_mt_connected(MsContext& ctx) {
  VgprsState& vs = vstate(ctx.imsi);
  auto conn = pool_message<Q931Connect>();
  conn->call_ref = ctx.call_ref;
  conn->media_address =
      TransportAddress(vs.signaling_ip, config_.media_port);
  send_tunneled(ctx.imsi, vs.signaling_ip, vs.remote_signal, *conn);
  // Step 4.8: second PDP context for the voice packets.
  activate_voice_context(ctx.imsi);
}

void Vmsc::on_call_cleared(MsContext& ctx) {
  VgprsState& vs = vstate(ctx.imsi);
  vs.remote_signal = IpAddress{};
  vs.remote_media = IpAddress{};
  vs.awaiting_admission = false;
  vs.mo_pending = false;
  if (config_.deactivate_pdp_when_idle && vs.signaling_active) {
    deactivate_context(ctx.imsi, kSignalingNsapi);
  }
}

void Vmsc::on_subscriber_removed(const MsContext& ctx) {
  VgprsState* found = vgprs_states_.find(ctx.imsi);
  if (found == nullptr) return;
  VgprsState& vs = *found;
  // Unregister the alias at the gatekeeper first (a stale endpoint id is
  // ignored if the subscriber already re-registered elsewhere); the GPRS
  // detach waits for the UCF so the confirmation can still ride the
  // signaling context.  Without an active context, detach immediately.
  if (vs.signaling_active && vs.endpoint_id != 0) {
    vs.pending_detach = true;
    auto urq = pool_message<RasUrq>();
    urq->alias = vs.alias;
    urq->endpoint_id = vs.endpoint_id;
    send_tunneled(ctx.imsi, vs.signaling_ip, config_.gk_ip, *urq);
    retx().arm(
        retx_key(RetxKind::kRasUrq, ctx.imsi),
        [this, imsi = ctx.imsi] {
          VgprsState* st = vgprs_states_.find(imsi);
          if (st == nullptr || !st->pending_detach ||
              !st->signaling_active) {
            return;
          }
          auto again = pool_message<RasUrq>();
          again->alias = st->alias;
          again->endpoint_id = st->endpoint_id;
          send_tunneled(imsi, st->signaling_ip, config_.gk_ip, *again);
        },
        [this, imsi = ctx.imsi] {
          // The gatekeeper stayed silent; detach anyway — a stale alias
          // there is replaced on the next registration.
          VgprsState* st = vgprs_states_.find(imsi);
          if (st == nullptr || !st->pending_detach) return;
          detach_and_forget(imsi);
        });
    return;
  }
  detach_and_forget(ctx.imsi);
}

// --- voice interworking (vocoder bank + PCU) ---------------------------------------

void Vmsc::on_uplink_voice(MsContext& ctx, const VoiceFrameInfo& frame) {
  VgprsState& vs = vstate(ctx.imsi);
  if (!vs.remote_media.valid()) return;
  auto rtp = pool_message<RtpPacket>();
  rtp->ssrc = vs.endpoint_id;
  rtp->seq = frame.seq;
  rtp->timestamp = frame.seq * 160;
  rtp->origin_us = frame.origin_us;
  IpAddress src = vs.voice_active ? vs.voice_ip : vs.signaling_ip;
  send_tunneled(ctx.imsi, src, vs.remote_media, *rtp,
                config_.transcode_delay);
}

// --- tunneled H.323 signaling -------------------------------------------------------------

void Vmsc::handle_tunneled(Imsi imsi, const IpDatagramInfo& dgram,
                           const Message& inner) {
  VgprsState& vs = vstate(imsi);
  if (tunnel_table().dispatch(*this, inner, imsi, vs)) return;
  VG_DEBUG("vmsc", name() << ": ignoring tunneled " << inner.name()
                          << " from " << dgram.src.to_string());
}

// --- dispatch ----------------------------------------------------------------------

const MscBase::Handlers& Vmsc::handler_table() {
  static const Handlers table = Handlers(MscBase::handler_table())
  // GPRS control-plane handlers
  .on([](Vmsc& self, const GprsAttachAccept& acc) {
    self.retx().ack(retx_key(RetxKind::kGprsAttach, acc.imsi));
    VgprsState& vs = self.vstate(acc.imsi);
    if (vs.phase != VgprsState::Phase::kAttaching) return;
    vs.phase = VgprsState::Phase::kActivatingSignaling;
    self.activate_signaling_context(acc.imsi);
  })
  .on([](Vmsc& self, const GprsAttachReject& rej) {
    self.retx().ack(retx_key(RetxKind::kGprsAttach, rej.imsi));
    VG_WARN("vmsc", self.name() << ": GPRS attach rejected for "
                                << rej.imsi.to_string());
    if (MsContext* ctx = self.context(rej.imsi)) {
      if (ctx->step == Step::kSubstrate) self.reject_registration(*ctx, 17);
    }
    self.vgprs_states_.erase(rej.imsi);
  })
  .on([](Vmsc& self, const ActivatePdpContextAccept& acc) {
    self.retx().ack(retx_key(acc.nsapi == kVoiceNsapi
                                 ? RetxKind::kPdpActivateVoice
                                 : RetxKind::kPdpActivateSig,
                             acc.imsi));
    self.net().spans().close(SpanKind::kPdpActivation, acc.imsi.value(),
                             SpanOutcome::kOk, self.now());
    VgprsState& vs = self.vstate(acc.imsi);
    if (acc.nsapi == kVoiceNsapi) {
      // The call may have been released while the activation was in
      // flight; a voice context without an active call is torn down
      // immediately, or it would leak until detach.
      MsContext* ctx = self.context(acc.imsi);
      if (ctx == nullptr || ctx->step != Step::kActive) {
        self.deactivate_context(acc.imsi, kVoiceNsapi);
        return;
      }
      vs.voice_ip = acc.address;
      vs.voice_active = true;
      return;
    }
    vs.signaling_ip = acc.address;
    vs.signaling_active = true;
    vs.phase = VgprsState::Phase::kRasRegistering;
    // Step 1.4: end-point registration at the gatekeeper, through the
    // freshly activated signaling context.
    auto rrq = pool_message<RasRrq>();
    rrq->call_signal_address =
        TransportAddress(vs.signaling_ip, self.config_.signal_port);
    rrq->alias = vs.alias;
    self.send_tunneled(acc.imsi, vs.signaling_ip, self.config_.gk_ip, *rrq);
    self.retx().arm(
        retx_key(RetxKind::kRasRrq, acc.imsi),
        [&self, imsi = acc.imsi] {
          VgprsState* st = self.vgprs_states_.find(imsi);
          if (st == nullptr ||
              st->phase != VgprsState::Phase::kRasRegistering ||
              !st->signaling_active) {
            return;
          }
          auto again = pool_message<RasRrq>();
          again->call_signal_address =
              TransportAddress(st->signaling_ip, self.config_.signal_port);
          again->alias = st->alias;
          self.send_tunneled(imsi, st->signaling_ip, self.config_.gk_ip,
                             *again);
        },
        [&self, imsi = acc.imsi] {
          if (VgprsState* st = self.vgprs_states_.find(imsi);
              st != nullptr &&
              st->phase == VgprsState::Phase::kRasRegistering) {
            st->phase = VgprsState::Phase::kNone;
          }
          if (MsContext* c = self.context(imsi)) {
            if (c->step == Step::kSubstrate) self.reject_registration(*c, 17);
          }
        });
  })
  .on([](Vmsc& self, const ActivatePdpContextReject& rej) {
    self.retx().ack(retx_key(rej.nsapi == kVoiceNsapi
                                 ? RetxKind::kPdpActivateVoice
                                 : RetxKind::kPdpActivateSig,
                             rej.imsi));
    self.net().spans().close(SpanKind::kPdpActivation, rej.imsi.value(),
                             SpanOutcome::kRejected, self.now());
    VG_WARN("vmsc", self.name() << ": PDP activation rejected for "
                                << rej.imsi.to_string() << " cause "
                                << static_cast<int>(rej.cause));
    // A signaling-context rejection ends the activation phase; leaving the
    // phase at kActivatingSignaling wedged every subsequent registration
    // for this IMSI (vgprs_verify deadlock finding).
    if (rej.nsapi != kVoiceNsapi) {
      if (VgprsState* st = self.vgprs_states_.find(rej.imsi);
          st != nullptr &&
          st->phase == VgprsState::Phase::kActivatingSignaling) {
        st->phase = VgprsState::Phase::kNone;
      }
    }
    if (MsContext* ctx = self.context(rej.imsi)) {
      if (ctx->step == Step::kSubstrate) self.reject_registration(*ctx, 17);
    }
  })
  .on([](Vmsc& self, const DeactivatePdpContextAccept& acc) {
    self.retx().ack(retx_key(acc.nsapi == kVoiceNsapi
                                 ? RetxKind::kPdpDeactivateVoice
                                 : RetxKind::kPdpDeactivateSig,
                             acc.imsi));
    self.net().spans().close(SpanKind::kPdpDeactivation, acc.imsi.value(),
                             SpanOutcome::kOk, self.now());
    VgprsState& vs = self.vstate(acc.imsi);
    if (acc.nsapi == kVoiceNsapi) {
      vs.voice_active = false;
      vs.voice_ip = IpAddress{};
    } else {
      vs.signaling_active = false;
      vs.signaling_ip = IpAddress{};
    }
  })
  .on([](Vmsc& self, const GprsDetachAccept& acc) {
    self.retx().ack(retx_key(RetxKind::kGprsDetach, acc.imsi));
  })
  .on([](Vmsc& self, const GbUnitData& frame) {
    auto decoded = MessageRegistry::instance().decode(frame.payload);
    if (!decoded.ok()) {
      VG_WARN("vmsc", self.name() << ": bad tunneled frame: "
                                  << decoded.error().to_string());
      return;
    }
    const auto* dgram = message_cast<IpDatagram>(decoded.value().get());
    if (dgram == nullptr) return;
    auto inner = ip_payload(*dgram);
    if (!inner.ok()) {
      VG_WARN("vmsc", self.name() << ": bad tunneled payload: "
                                  << inner.error().to_string());
      return;
    }
    self.handle_tunneled(frame.imsi, *dgram, *inner.value());
  });
  return table;
}

const Vmsc::TunnelHandlers& Vmsc::tunnel_table() {
  static const TunnelHandlers table = TunnelHandlers{}
  .on([](Vmsc& self, const RasRcf& rcf, Imsi imsi, VgprsState& vs) {
    self.retx().ack(retx_key(RetxKind::kRasRrq, imsi));
    vs.endpoint_id = rcf.endpoint_id;
    vs.phase = VgprsState::Phase::kReady;
    MsContext* ctx = self.context(imsi);
    if (ctx != nullptr && ctx->step == Step::kSubstrate) {
      // Step 1.5 done: MM and PDP contexts recorded, complete step 1.6.
      self.finish_registration(*ctx);
      if (self.config_.deactivate_pdp_when_idle) {
        self.deactivate_context(imsi, kSignalingNsapi);
      }
    }
    if (vs.mo_pending && ctx != nullptr) {
      vs.mo_pending = false;
      self.send_arq_for_mo(*ctx, vs);
    }
    if (self.on_endpoint_ready) self.on_endpoint_ready(imsi);
  })
  .on([](Vmsc& self, const RasRrj& rrj, Imsi imsi, VgprsState& vs) {
    self.retx().ack(retx_key(RetxKind::kRasRrq, imsi));
    VG_WARN("vmsc", self.name() << ": RAS registration rejected, cause "
                                << static_cast<int>(rrj.cause));
    if (vs.phase == VgprsState::Phase::kRasRegistering) {
      vs.phase = VgprsState::Phase::kNone;
    }
    if (MsContext* ctx = self.context(imsi)) {
      if (ctx->step == Step::kSubstrate) self.reject_registration(*ctx, 17);
    }
  })
  .on([](Vmsc& self, const RasAcf& acf, Imsi imsi, VgprsState& vs) {
    self.retx().ack(retx_key(RetxKind::kRasArq, imsi));
    MsContext* ctx = self.context(imsi);
    if (ctx == nullptr) return;
    if (vs.awaiting_admission) {
      // Step 4.3 complete: begin GSM-side delivery (paging, step 4.4).
      vs.awaiting_admission = false;
      if (!self.start_mt_call(imsi, vs.mt_calling, vs.mt_call_ref)) {
        auto rel = pool_message<Q931ReleaseComplete>();
        rel->call_ref = vs.mt_call_ref;
        rel->cause = 17;  // busy
        self.send_tunneled(imsi, vs.signaling_ip, vs.remote_signal, *rel);
      }
      return;
    }
    if (ctx->proc == Proc::kMoCall) {
      // Step 2.3 complete: the gatekeeper supplied the destination call
      // signaling address; send the Q.931 Setup (step 2.4).
      vs.remote_signal = acf.dest_call_signal_address.ip();
      auto setup = pool_message<Q931Setup>();
      setup->call_ref = ctx->call_ref;
      setup->calling = ctx->calling;
      setup->called = ctx->called;
      setup->src_signal_address =
          TransportAddress(vs.signaling_ip, self.config_.signal_port);
      setup->media_address =
          TransportAddress(vs.signaling_ip, self.config_.media_port);
      self.send_tunneled(imsi, vs.signaling_ip, vs.remote_signal, *setup);
      self.retx().arm(
          retx_key(RetxKind::kQ931Setup, imsi),
          [&self, imsi] {
            MsContext* c = self.context(imsi);
            VgprsState* st = self.vgprs_states_.find(imsi);
            if (c == nullptr || st == nullptr ||
                c->proc != Proc::kMoCall ||
                c->step != Step::kMoProgress ||
                !st->remote_signal.valid()) {
              return;
            }
            auto again = pool_message<Q931Setup>();
            again->call_ref = c->call_ref;
            again->calling = c->calling;
            again->called = c->called;
            again->src_signal_address =
                TransportAddress(st->signaling_ip, self.config_.signal_port);
            again->media_address =
                TransportAddress(st->signaling_ip, self.config_.media_port);
            self.send_tunneled(imsi, st->signaling_ip, st->remote_signal,
                               *again);
          },
          [&self, imsi] {
            if (MsContext* c = self.context(imsi)) {
              if (c->proc == Proc::kMoCall && c->step != Step::kActive) {
                self.reject_mo_call(*c, ClearCause::kNetworkFailure);
              }
            }
          });
    }
  })
  .on([](Vmsc& self, const RasArj& arj, Imsi imsi, VgprsState& vs) {
    self.retx().ack(retx_key(RetxKind::kRasArq, imsi));
    MsContext* ctx = self.context(imsi);
    if (ctx == nullptr) return;
    if (vs.awaiting_admission) {
      vs.awaiting_admission = false;
      auto rel = pool_message<Q931ReleaseComplete>();
      rel->call_ref = vs.mt_call_ref;
      rel->cause = 47;
      self.send_tunneled(imsi, vs.signaling_ip, vs.remote_signal, *rel);
      return;
    }
    if (ctx->proc == Proc::kMoCall) {
      VG_INFO("vmsc", self.name() << ": admission rejected, cause "
                                  << static_cast<int>(arj.cause));
      self.reject_mo_call(*ctx, ClearCause::kCallRejected);
    }
  })
  .on([](Vmsc& self, const RasDcf&, Imsi imsi, VgprsState& vs) {
    self.retx().ack(retx_key(RetxKind::kRasDrq, imsi));
    if (vs.pending_drq_deactivate) {
      // Step 3.4: deactivate the per-call voice PDP context.
      vs.pending_drq_deactivate = false;
      self.deactivate_context(imsi, kVoiceNsapi);
    }
  })
  .on([](Vmsc& self, const RasUcf&, Imsi imsi, VgprsState& vs) {
    self.retx().ack(retx_key(RetxKind::kRasUrq, imsi));
    if (vs.pending_detach) self.detach_and_forget(imsi);
  })
  .on([](Vmsc& self, const Q931Setup& setup, Imsi imsi, VgprsState& vs) {
    // Step 4.2: an incoming H.323 call reached the MS's signaling context.
    MsContext* ctx = self.context(imsi);
    auto busy = [&] {
      auto rel = pool_message<Q931ReleaseComplete>();
      rel->call_ref = setup.call_ref;
      rel->cause = 17;
      self.send_tunneled(imsi, vs.signaling_ip, setup.src_signal_address.ip(),
                         *rel);
    };
    if (ctx == nullptr || !ctx->registered || ctx->proc != Proc::kNone ||
        vs.phase != VgprsState::Phase::kReady) {
      busy();
      return;
    }
    vs.remote_signal = setup.src_signal_address.ip();
    vs.remote_media = setup.media_address.ip();
    vs.mt_calling = setup.calling;
    vs.mt_call_ref = setup.call_ref;
    auto proceed = pool_message<Q931CallProceeding>();
    proceed->call_ref = setup.call_ref;
    self.send_tunneled(imsi, vs.signaling_ip, vs.remote_signal, *proceed);
    // Step 4.3: admission for the terminating leg.
    vs.awaiting_admission = true;
    auto arq = pool_message<RasArq>();
    arq->endpoint_id = vs.endpoint_id;
    arq->call_ref = setup.call_ref;
    arq->calling = setup.calling;
    arq->called = vs.alias;
    arq->answer_call = true;
    self.send_tunneled(imsi, vs.signaling_ip, self.config_.gk_ip, *arq);
    self.retx().arm(
        retx_key(RetxKind::kRasArq, imsi),
        [&self, imsi] {
          VgprsState* st = self.vgprs_states_.find(imsi);
          if (st == nullptr || !st->awaiting_admission ||
              !st->signaling_active) {
            return;
          }
          auto again = pool_message<RasArq>();
          again->endpoint_id = st->endpoint_id;
          again->call_ref = st->mt_call_ref;
          again->calling = st->mt_calling;
          again->called = st->alias;
          again->answer_call = true;
          self.send_tunneled(imsi, st->signaling_ip, self.config_.gk_ip,
                             *again);
        },
        [&self, imsi] {
          // No admission decision: tell the caller the leg failed; no GSM
          // resources were committed yet (paging starts only at the ACF).
          VgprsState* st = self.vgprs_states_.find(imsi);
          if (st == nullptr || !st->awaiting_admission) return;
          st->awaiting_admission = false;
          auto rel = pool_message<Q931ReleaseComplete>();
          rel->call_ref = st->mt_call_ref;
          rel->cause = 47;
          self.send_tunneled(imsi, st->signaling_ip, st->remote_signal, *rel);
        });
  })
  .on([](Vmsc& self, const Q931CallProceeding&, Imsi imsi, VgprsState&) {
    self.retx().ack(retx_key(RetxKind::kQ931Setup, imsi));
    // step 2.4 response; informational
  })
  .on([](Vmsc& self, const Q931Alerting& alert, Imsi imsi, VgprsState&) {
    self.retx().ack(retx_key(RetxKind::kQ931Setup, imsi));
    // Step 2.6 -> 2.7: ring-back toward the MS.  Tunneled messages are
    // dispatched by the subscriber the datagram was addressed to: two call
    // legs may legitimately share one H.225 call reference (e.g. an
    // MS-to-MS call hairpinning at the GGSN).
    MsContext* ctx = self.context(imsi);
    if (ctx != nullptr && ctx->proc == Proc::kMoCall &&
        ctx->step == Step::kMoProgress && alert.call_ref == ctx->call_ref) {
      self.notify_mo_alerting(*ctx);
    }
  })
  .on([](Vmsc& self, const Q931Connect& conn, Imsi imsi, VgprsState& vs) {
    self.retx().ack(retx_key(RetxKind::kQ931Setup, imsi));
    // Step 2.8: answer; step 2.9: activate the voice context.
    MsContext* ctx = self.context(imsi);
    // Answer racing a local release (the MS hung up while the Connect was
    // in flight) must not resurrect the call: only an MO call still in
    // progress may transition to active.
    if (ctx == nullptr || ctx->proc != Proc::kMoCall ||
        ctx->step != Step::kMoProgress || conn.call_ref != ctx->call_ref) {
      return;
    }
    vs.remote_media = conn.media_address.ip();
    self.notify_mo_connect(*ctx);
    self.activate_voice_context(imsi);
  })
  .on([](Vmsc& self, const Q931ReleaseComplete& rel, Imsi imsi,
         VgprsState& vs) {
    self.retx().ack(retx_key(RetxKind::kQ931Setup, imsi));
    MsContext* ctx = self.context(imsi);
    if (ctx != nullptr && rel.call_ref != ctx->call_ref) ctx = nullptr;
    if (ctx == nullptr || ctx->proc == Proc::kNone) return;
    if (ctx->step == Step::kReleasingMs || ctx->step == Step::kReleasingNet ||
        ctx->step == Step::kClearing) {
      return;  // already clearing
    }
    self.release_from_network(*ctx, static_cast<ClearCause>(rel.cause));
    auto drq = pool_message<RasDrq>();
    drq->endpoint_id = vs.endpoint_id;
    drq->call_ref = rel.call_ref;
    self.send_tunneled(imsi, vs.signaling_ip, self.config_.gk_ip, *drq);
    vs.pending_drq_deactivate = vs.voice_active;
    self.arm_drq(imsi, rel.call_ref);
  })
  .on([](Vmsc& self, const RtpPacket& rtp, Imsi imsi, VgprsState&) {
    MsContext* ctx = self.context(imsi);
    if (ctx != nullptr && ctx->step == Step::kActive) {
      self.send_downlink_voice(*ctx, rtp.seq, rtp.origin_us,
                               self.config_.transcode_delay);
    }
  });
  return table;
}

}  // namespace vgprs
