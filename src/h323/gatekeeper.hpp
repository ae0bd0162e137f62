// H.323 Gatekeeper: endpoint registration, E.164 alias -> transport address
// translation, call admission and per-call charging records (paper steps
// 1.4-1.5, 2.3, 3.3, 4.1).  This is a *standard* gatekeeper: it never sees
// an IMSI and never touches MAP — the IMSI-confidentiality property the
// paper argues 3G TR 23.821 violates (the TR baseline subclasses this and
// overrides handle_unknown_alias with HLR/GGSN access).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "h323/ip_endpoint.hpp"
#include "h323/messages.hpp"
#include "sim/subscriber_pool.hpp"
#include "sim/time.hpp"

namespace vgprs {

class Gatekeeper : public IpEndpoint {
 public:
  struct Registration {
    TransportAddress transport;
    std::uint32_t endpoint_id = 0;
  };

  /// Charging record (step 3.3: "the GK records the call statistics").
  struct CallRecord {
    CallRef call_ref;
    Msisdn calling;
    Msisdn called;
    SimTime admitted;
    SimTime disengaged;
    bool open = true;
  };

  /// Charging records kept, newest last: the log holds the most recent
  /// kCallLogCapacity admitted calls, so its memory does not grow with the
  /// length of a run.
  static constexpr std::size_t kCallLogCapacity = std::size_t{1} << 16;

  /// RAS, by inner wire type.
  static const IpHandlers& ip_table();

  Gatekeeper(std::string name, IpAddress ip, std::string router_name)
      : IpEndpoint(std::move(name), ip, std::move(router_name), ip_table()) {}

  [[nodiscard]] std::size_t registration_count() const {
    return table_.size();
  }
  [[nodiscard]] std::optional<Registration> find_alias(Msisdn alias) const;
  [[nodiscard]] const std::deque<CallRecord>& call_records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t admissions() const { return admissions_; }
  [[nodiscard]] std::uint64_t rejections() const { return rejections_; }
  [[nodiscard]] std::size_t open_calls() const;

  /// Caps concurrent admitted calls (zone call management).  Further
  /// originating ARQs get ARJ with cause resource-unavailable.
  void set_admission_limit(std::size_t limit) { admission_limit_ = limit; }
  void clear_admission_limit() { admission_limit_.reset(); }

  /// Caps total admitted media bandwidth.  Every ARQ — including the
  /// *answering* endpoint's (paper step 2.5) — allocates its requested
  /// bandwidth; exceeding the cap yields ARJ resource-unavailable.
  void set_bandwidth_limit_kbps(std::uint32_t limit) {
    bandwidth_limit_kbps_ = limit;
  }
  [[nodiscard]] std::uint32_t bandwidth_in_use_kbps() const {
    return bandwidth_in_use_kbps_;
  }

 protected:
  /// For a gatekeeper that extends the tables.
  Gatekeeper(std::string name, IpAddress ip, std::string router_name,
             const IpHandlers& ip_handlers, const Handlers& handlers)
      : IpEndpoint(std::move(name), ip, std::move(router_name), ip_handlers,
                   handlers) {}

  void on_other_ip(const IpDatagramInfo& dgram,
                   const Message& inner) override;

  /// ARQ for an alias absent from the translation table.  The standard
  /// gatekeeper rejects; the TR 23.821 variant resolves via HLR + GGSN.
  virtual void handle_unknown_alias(const RasAdmissionRequestInfo& arq,
                                    IpAddress requester);

  /// Admission decision for a *registered* alias.  The standard gatekeeper
  /// confirms immediately; the TR 23.821 variant must first re-establish
  /// the callee's PDP context via the GGSN.
  virtual void admit(const RasAdmissionRequestInfo& arq, IpAddress requester,
                     const Registration& reg) {
    confirm_admission(arq, requester, reg.transport);
  }

  void confirm_admission(const RasAdmissionRequestInfo& arq,
                         IpAddress requester,
                         TransportAddress dest);
  void reject_admission(const RasAdmissionRequestInfo& arq,
                        IpAddress requester, ArjCause cause);

 private:
  static std::uint64_t grant_key(std::uint32_t call_ref, bool answer) {
    return (std::uint64_t{call_ref} << 1) | (answer ? 1 : 0);
  }

  SubscriberTable<Msisdn, Registration> table_;
  // Charging log, bounded; open calls are indexed by call_ref so DRQ
  // handling and zone-capacity checks never rescan the call history.
  std::deque<CallRecord> records_;
  std::uint32_t records_dropped_ = 0;  // evicted from the front so far
  // call_ref -> admission number (records_ index + records_dropped_)
  SubscriberTable<std::uint32_t, std::uint32_t> open_index_;
  std::uint32_t next_endpoint_id_ = 1;
  std::uint64_t admissions_ = 0;
  std::uint64_t rejections_ = 0;
  std::optional<std::size_t> admission_limit_;
  std::optional<std::uint32_t> bandwidth_limit_kbps_;
  std::uint32_t bandwidth_in_use_kbps_ = 0;
  // per-admission bandwidth grants, keyed (call_ref, answer-side)
  SubscriberTable<std::uint64_t, std::uint16_t> grants_;
};

}  // namespace vgprs
