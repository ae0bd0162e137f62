// capbench — vGPRS capacity benchmark driver.
//
// One process runs one workload through the public scenario API
// (build_vgprs, MobileStation::power_on/power_off/dial/hangup,
// H323Terminal::place_call/hangup, Network::run_until_idle), checks every
// procedure's outcome, and prints one JSON result as its last stdout line.
//
//   capbench_driver --workload callwave|regchurn|callcycle_traced
//                   --seed N --seconds S --trace 0|1 [--spans-out PATH]
//   capbench_driver --self-test
//
// Workloads are closed loops: a round (a call wave, an attach+detach wave, or
// an MO and an MT call cycle) starts only after the previous one has
// settled.  All
// stimuli (call pairs, hot cells, power order, MO/MT order) come from this
// file's own generator seeded by --seed; the simulator's seed is a constant.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 is the separate traced
// run: it alternates untraced and traced rounds (driver spans + shard stats),
// runs the serialization and trace-recording ablations, microbenchmarks the
// codec, and prints the per-layer metrics.  See capbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "sim/arena.hpp"
#include "sim/message.hpp"
#include "vgprs/scenario.hpp"

namespace capbench {
namespace {

using vgprs::H323Terminal;
using vgprs::MobileStation;
using vgprs::Network;
using vgprs::NetworkStats;
using vgprs::ShardPerfStats;
using vgprs::TraceMode;
using vgprs::VgprsParams;
using vgprs::VgprsScenario;
using Clock = std::chrono::steady_clock;

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())) - 1.0);
  return v[std::min(idx, v.size() - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- seeded stimulus generator ----------------------------------------------
// Independent of the simulator's own Rng: the program under test receives
// only the stimuli drawn here.

struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Independent stream `stream` of round `round` under the run seed.
SplitMix stream(std::uint64_t seed, std::uint64_t stream_id,
                std::uint64_t round) {
  SplitMix m{seed};
  m.s = m.next() ^ (stream_id * 0xD1B54A32D192ED03ULL);
  m.s = m.next() ^ (round * 0x8CB92BA72F3D8DD7ULL);
  return m;
}

template <typename T>
void shuffle(std::vector<T>& v, SplitMix& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

enum Stream : std::uint64_t {
  kHotCells = 1,
  kPairs,
  kPowerOn,
  kPowerOff,
  kCycle,
};

struct Fnv {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
};

// --- driver spans (traced run only) ------------------------------------------
// Recorded around the driver's calls into each layer; spans of one round share
// its id.  Kept in memory, written as JSONL at exit, reduced to self time.

struct SpanRec {
  const char* name;
  std::int64_t round;  // -1 = setup
  std::int32_t parent;
  std::int64_t t0_ns;
  std::int64_t t1_ns;
};

class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name) : log_(log) {
      if (log_ != nullptr) idx_ = log_->open(name);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::int32_t idx_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  void set_round(std::int64_t r) { round_ = r; }
  /// A scope that records only while the log is enabled.
  [[nodiscard]] Scope scope(const char* name) {
    return Scope(enabled_ ? this : nullptr, name);
  }
  [[nodiscard]] std::size_t open_count() const { return stack_.size(); }

  /// Index of the next span; reductions take it as their starting point.
  [[nodiscard]] std::size_t mark() const { return spans_.size(); }

  /// Self time (duration minus time covered by direct children) per name,
  /// over the spans recorded since `from`.
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::size_t from) const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const SpanRec& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1_ns - s.t0_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      out[s.name] += static_cast<double>(s.t1_ns - s.t0_ns - child[i]) * 1e-9;
    }
    return out;
  }

  /// Total duration of the spans named `name` recorded since `from`.
  [[nodiscard]] double total_seconds(std::string_view name,
                                     std::size_t from) const {
    double t = 0.0;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      if (name == s.name) t += static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
    }
    return t;
  }

  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"round\":%" PRId64
                   ",\"parent\":%d,\"start_ns\":%" PRId64
                   ",\"end_ns\":%" PRId64 "}\n",
                   i, s.name, s.round, s.parent, s.t0_ns, s.t1_ns);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int32_t open(const char* name) {
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(SpanRec{name, round_,
                             stack_.empty() ? -1 : stack_.back(),
                             ns_since(origin_), 0});
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].t1_ns = ns_since(origin_);
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }

  bool enabled_ = false;
  std::int64_t round_ = -1;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRec> spans_;
  std::vector<std::int32_t> stack_;
};

// --- outcome bookkeeping -------------------------------------------------------

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void error(std::string why) {
    correct = false;
    if (errors.size() < 16) errors.push_back(std::move(why));
  }
  /// Books `n` procedures, `bad` of which failed their checks.
  void procedures(std::uint64_t n, std::uint64_t bad, const char* what) {
    attempted += n;
    failed += bad;
    if (bad > 0) {
      error(std::to_string(bad) + " of " + std::to_string(n) + " " + what +
            " failed");
    }
  }
};

/// Per-subscriber hook slots.  Hooks run on the thread dispatching that
/// subscriber's shard and write only its own slot; the driver reads them
/// after settle().
struct Slot {
  std::int64_t connected_us = -1;
  std::uint32_t connects = 0;
  std::uint32_t releases = 0;
  std::uint32_t registrations = 0;
  std::uint32_t failures = 0;
};

/// Points a MobileStation's or H323Terminal's user hooks at `slot`.
template <typename Endpoint>
void hook(Endpoint& e, Slot& slot, Network& net) {
  e.on_registered = [&slot] { ++slot.registrations; };
  e.on_connected = [&slot, &net](vgprs::CallRef) {
    ++slot.connects;
    slot.connected_us = net.now().count_micros();
  };
  e.on_released = [&slot](vgprs::CallRef) { ++slot.releases; };
  e.on_failure = [&slot](const std::string&) { ++slot.failures; };
}

std::int64_t counter(const Network& net, std::string_view name) {
  const auto& c = net.metrics().counters();
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

// --- workloads -------------------------------------------------------------------

struct SetupTimes {
  double build_s = 0.0;
  double register_s = 0.0;
  double warmup_s = 0.0;
  [[nodiscard]] double total() const { return build_s + register_s + warmup_s; }
};

struct Scale {
  std::uint32_t subscribers;
  std::uint32_t cells;
  std::uint32_t pairs;         // callwave: calls per wave
  unsigned workers;            // callwave: worker threads of the timed run
  std::uint32_t warmup_rounds; // untimed rounds at the end of set-up
  std::uint32_t setups;        // set-ups per run (setup_s is their median)
  std::uint32_t digest_rounds; // callwave: rounds compared with 1 worker
  std::uint32_t ablation_rounds;
};

/// Driver-side context shared by every call into the program.
struct Ctx {
  SpanLog spans;
  std::int64_t timed_ns = 0;  // time inside stimulus + settle calls
  std::uint64_t settle_events = 0;

  template <typename F>
  void stimulus(F&& f) {
    auto sc = spans.scope("gsm.stimulus");
    const auto t0 = Clock::now();
    f();
    timed_ns += ns_since(t0);
  }
  void settle(VgprsScenario& s) {
    auto sc = spans.scope("sim.settle");
    const auto t0 = Clock::now();
    settle_events += s.settle();
    timed_ns += ns_since(t0);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the network, registers every subscriber and runs the warm-up
  /// rounds; any previous network is destroyed first.
  SetupTimes setup(Ctx& ctx, Outcome& out) {
    s_.reset();
    SetupTimes t;
    ctx.spans.set_round(-1);
    auto span = ctx.spans.scope("bench.setup");
    {
      auto sc = ctx.spans.scope("vgprs.build");
      const auto t0 = Clock::now();
      s_ = vgprs::build_vgprs(params());
      configure();
      t.build_s = static_cast<double>(ns_since(t0)) * 1e-9;
    }
    {
      auto sc = ctx.spans.scope("vgprs.register");
      const auto t0 = Clock::now();
      register_all(ctx, out);
      t.register_s = static_cast<double>(ns_since(t0)) * 1e-9;
    }
    {
      auto sc = ctx.spans.scope("vgprs.warmup");
      const auto t0 = Clock::now();
      for (std::uint32_t w = 0; w < warmup_rounds(); ++w) {
        round(ctx, out, next_round_++);
      }
      t.warmup_s = static_cast<double>(ns_since(t0)) * 1e-9;
    }
    return t;
  }

  /// One closed-loop round; returns the operations it completed (calls or
  /// registrations).  Round ids are consumed in order, so two instances
  /// driven the same way see identical stimuli.
  std::uint64_t next(Ctx& ctx, Outcome& out) {
    return round(ctx, out, next_round_++);
  }

  /// Per-round digests of the simulated outcomes (callwave only).
  [[nodiscard]] const std::vector<std::uint64_t>& digests() const {
    return digests_;
  }
  [[nodiscard]] Network& net() { return s_->net; }
  [[nodiscard]] virtual const char* op_name() const = 0;
  /// True where a known program defect makes retransmitters give up after
  /// their procedure already succeeded; see CallCycle.
  [[nodiscard]] virtual bool gives_up_after_success() const { return false; }
  /// End-of-run checks (open spans, retransmit give-ups, drops).
  virtual void finish(Outcome& out) {
    const NetworkStats st = net().stats();
    if (st.messages_dropped != 0) {
      out.error(std::to_string(st.messages_dropped) + " messages dropped");
    }
    const std::int64_t give_ups = counter(net(), "recovery/give_ups");
    if (give_ups != 0 && !gives_up_after_success()) {
      out.error(std::to_string(give_ups) + " retransmit give-ups");
    }
    if (net().spans().open_count() != 0) {
      out.error(std::to_string(net().spans().open_count()) +
                " simulator spans open at drain");
    }
  }

 protected:
  [[nodiscard]] virtual VgprsParams params() const = 0;
  virtual void configure() = 0;
  virtual void register_all(Ctx& ctx, Outcome& out) = 0;
  virtual std::uint64_t round(Ctx& ctx, Outcome& out, std::uint64_t r) = 0;
  [[nodiscard]] virtual std::uint32_t warmup_rounds() const = 0;

  std::unique_ptr<VgprsScenario> s_;
  std::vector<std::uint64_t> digests_;
  std::uint64_t next_round_ = 0;
};

/// Attaches every MS (power_on in `order`), settles and checks that each
/// attach was accepted: MS idle, VMSC endpoint ready, hook fired once more,
/// one gatekeeper registration per MS.
void attach(VgprsScenario& s, std::vector<Slot>& slots,
            const std::vector<std::uint32_t>& order, Ctx& ctx, Outcome& out) {
  std::vector<std::uint32_t> before(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    before[i] = slots[i].registrations;
  }
  ctx.stimulus([&] {
    for (std::uint32_t i : order) s.ms[i]->power_on();
  });
  ctx.settle(s);
  auto chk = ctx.spans.scope("bench.check");
  std::uint64_t bad = 0;
  for (std::uint32_t i : order) {
    const MobileStation& ms = *s.ms[i];
    const auto* vs = s.vmsc->vgprs_state(ms.config().imsi);
    if (ms.state() != MobileStation::State::kIdle || vs == nullptr ||
        vs->phase != vgprs::Vmsc::VgprsState::Phase::kReady ||
        slots[i].registrations != before[i] + 1 || slots[i].failures != 0) {
      ++bad;
    }
  }
  out.procedures(order.size(), bad, "attaches");
  if (s.gk->registration_count() != order.size()) {
    out.error("gatekeeper holds " + std::to_string(s.gk->registration_count()) +
              " registrations after attaching " + std::to_string(order.size()));
  }
}

/// Detaches every MS (power_off in `order`), settles and checks that the
/// network tore each one down: no MSC context, no VMSC endpoint, no SGSN
/// attachment or PDP context, no GGSN context, no gatekeeper registration.
void detach(VgprsScenario& s, const std::vector<std::uint32_t>& order,
            Ctx& ctx, Outcome& out) {
  ctx.stimulus([&] {
    for (std::uint32_t i : order) s.ms[i]->power_off();
  });
  ctx.settle(s);
  auto chk = ctx.spans.scope("bench.check");
  std::uint64_t bad = 0;
  for (std::uint32_t i : order) {
    const MobileStation& ms = *s.ms[i];
    if (ms.state() != MobileStation::State::kDetached ||
        s.vmsc->context_of(ms.config().imsi) != nullptr ||
        s.vmsc->vgprs_state(ms.config().imsi) != nullptr) {
      ++bad;
    }
  }
  out.procedures(order.size(), bad, "detaches");
  if (s.sgsn->attached_count() != 0 || s.sgsn->pdp_context_count() != 0 ||
      s.ggsn->pdp_context_count() != 0 || s.gk->registration_count() != 0) {
    out.error("network state left after detaching every MS");
  }
}

std::vector<std::uint32_t> identity(std::size_t n) {
  std::vector<std::uint32_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint32_t>(i);
  return v;
}

/// callwave: cross-cell call waves under the sharded engine.  Callees come
/// from a seeded hot half of the cells, so paging fan-out and shard load are
/// skewed.  Each wave dials all pairs, settles, hangs up, settles.
class CallWave final : public Workload {
 public:
  CallWave(const Scale& sc, unsigned workers, std::uint64_t seed)
      : sc_(sc), workers_(workers), seed_(seed) {}
  [[nodiscard]] const char* op_name() const override { return "call"; }

 protected:
  [[nodiscard]] VgprsParams params() const override {
    VgprsParams p;
    p.num_ms = sc_.subscribers;
    p.num_cells = sc_.cells;
    p.bsc_channels = 8192;
    p.seed = 11;
    p.sharded = true;
    p.workers = workers_;
    return p;
  }
  void configure() override {
    net().trace().set_mode(TraceMode::kDisabled);
    slots_.assign(s_->ms.size(), Slot{});
    for (std::size_t i = 0; i < s_->ms.size(); ++i) {
      hook(*s_->ms[i], slots_[i], net());
    }
    // MSs are assigned to cells round-robin (VgprsParams::num_cells).
    std::vector<std::uint32_t> cells = identity(sc_.cells);
    SplitMix rng = stream(seed_, kHotCells, 0);
    shuffle(cells, rng);
    std::vector<bool> hot(sc_.cells, false);
    for (std::uint32_t c = 0; c < sc_.cells / 2; ++c) hot[cells[c]] = true;
    hot_ms_.clear();
    for (std::uint32_t i = 0; i < sc_.subscribers; ++i) {
      if (hot[i % sc_.cells]) hot_ms_.push_back(i);
    }
  }
  void register_all(Ctx& ctx, Outcome& out) override {
    attach(*s_, slots_, identity(s_->ms.size()), ctx, out);
  }
  [[nodiscard]] std::uint32_t warmup_rounds() const override {
    return sc_.warmup_rounds;
  }

  std::uint64_t round(Ctx& ctx, Outcome& out, std::uint64_t r) override {
    ctx.spans.set_round(static_cast<std::int64_t>(r));
    auto span = ctx.spans.scope("bench.round");
    // Seeded pairs: distinct callees from the hot cells, each with a distinct
    // caller from another cell; nobody takes part in two calls of a wave.
    std::vector<std::uint32_t> callees(hot_ms_);
    SplitMix rng = stream(seed_, kPairs, r);
    const std::size_t pairs = std::min<std::size_t>(
        sc_.pairs, std::min(callees.size(), s_->ms.size() - callees.size()));
    for (std::size_t i = 0; i < pairs; ++i) {
      std::swap(callees[i], callees[i + rng.below(callees.size() - i)]);
    }
    callees.resize(pairs);
    std::vector<bool> busy(s_->ms.size(), false);
    for (std::uint32_t c : callees) busy[c] = true;
    std::vector<std::uint32_t> callers(pairs);
    for (std::size_t i = 0; i < pairs; ++i) {
      std::uint32_t c = 0;
      do {
        c = static_cast<std::uint32_t>(rng.below(s_->ms.size()));
      } while (busy[c] || c % sc_.cells == callees[i] % sc_.cells);
      busy[c] = true;
      callers[i] = c;
    }
    for (std::size_t i = 0; i < pairs; ++i) {
      for (std::uint32_t m : {callers[i], callees[i]}) {
        slots_[m].connected_us = -1;
        slots_[m].connects = slots_[m].releases = slots_[m].failures = 0;
      }
    }

    const std::int64_t t0_us = net().now().count_micros();
    ctx.stimulus([&] {
      for (std::size_t i = 0; i < pairs; ++i) {
        s_->ms[callers[i]]->dial(s_->ms[callees[i]]->config().msisdn);
      }
    });
    ctx.settle(*s_);
    std::vector<bool> ok(pairs, true);
    {
      auto chk = ctx.spans.scope("bench.check");
      for (std::size_t i = 0; i < pairs; ++i) {
        for (std::uint32_t m : {callers[i], callees[i]}) {
          if (s_->ms[m]->state() != MobileStation::State::kConnected ||
              slots_[m].connects != 1) {
            ok[i] = false;
          }
        }
      }
    }
    ctx.stimulus([&] {
      for (std::size_t i = 0; i < pairs; ++i) s_->ms[callers[i]]->hangup();
    });
    ctx.settle(*s_);
    auto chk = ctx.spans.scope("bench.check");
    Fnv digest;
    digest.add(r);
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < pairs; ++i) {
      for (std::uint32_t m : {callers[i], callees[i]}) {
        if (s_->ms[m]->state() != MobileStation::State::kIdle ||
            slots_[m].releases != 1 || slots_[m].failures != 0) {
          ok[i] = false;
        }
      }
      if (!ok[i]) ++bad;
      digest.add(callers[i]);
      digest.add(callees[i]);
      digest.add(ok[i] ? 1 : 0);
      digest.add(static_cast<std::uint64_t>(slots_[callers[i]].connected_us - t0_us));
      digest.add(static_cast<std::uint64_t>(slots_[callees[i]].connected_us - t0_us));
    }
    digests_.push_back(digest.h);
    out.procedures(pairs, bad, "calls");
    return pairs;
  }

 private:
  Scale sc_;
  unsigned workers_;
  std::uint64_t seed_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> hot_ms_;  // MSs of the seeded hot cells
};

/// regchurn: every MS attaches (power_on) then IMSI-detaches (power_off), in
/// a fresh seeded order each wave.  No paging; writes the subscriber tables.
class RegChurn final : public Workload {
 public:
  RegChurn(const Scale& sc, std::uint64_t seed) : sc_(sc), seed_(seed) {}
  [[nodiscard]] const char* op_name() const override { return "registration"; }

 protected:
  [[nodiscard]] VgprsParams params() const override {
    VgprsParams p;
    p.num_ms = sc_.subscribers;
    p.num_cells = sc_.cells;
    p.bsc_channels = 8192;
    p.seed = 11;
    p.sharded = true;
    p.workers = 1;
    return p;
  }
  void configure() override {
    net().trace().set_mode(TraceMode::kDisabled);
    slots_.assign(s_->ms.size(), Slot{});
    for (std::size_t i = 0; i < s_->ms.size(); ++i) {
      hook(*s_->ms[i], slots_[i], net());
    }
  }
  void register_all(Ctx& ctx, Outcome& out) override {
    attach(*s_, slots_, identity(s_->ms.size()), ctx, out);
    detach(*s_, identity(s_->ms.size()), ctx, out);
  }
  [[nodiscard]] std::uint32_t warmup_rounds() const override {
    return sc_.warmup_rounds;
  }

  std::uint64_t round(Ctx& ctx, Outcome& out, std::uint64_t r) override {
    ctx.spans.set_round(static_cast<std::int64_t>(r));
    auto span = ctx.spans.scope("bench.round");
    std::vector<std::uint32_t> on = identity(s_->ms.size());
    std::vector<std::uint32_t> off = on;
    SplitMix r_on = stream(seed_, kPowerOn, r);
    SplitMix r_off = stream(seed_, kPowerOff, r);
    shuffle(on, r_on);
    shuffle(off, r_off);
    attach(*s_, slots_, on, ctx, out);
    detach(*s_, off, ctx, out);
    return on.size();
  }

 private:
  Scale sc_;
  std::uint64_t seed_;
  std::vector<Slot> slots_;
};

/// callcycle_traced: the default single-cell scenario (8 MSs, 2 terminals)
/// with full string tracing and spans on, as tests and tools run it.  Call
/// cycles run one at a time, MO (an MS dials a terminal) and MT (a terminal
/// calls an MS) alternating; the MS, the terminal and which direction leads
/// each pair are seeded.  Trace and spans are cleared every 256 cycles.
class CallCycle final : public Workload {
 public:
  static constexpr std::uint32_t kMs = 8;
  static constexpr std::uint32_t kTerminals = 2;
  static constexpr std::uint64_t kClearEvery = 256;

  CallCycle(const Scale& sc, std::uint64_t seed, bool collect_histogram = false)
      : sc_(sc), seed_(seed), collect_histogram_(collect_histogram) {}
  [[nodiscard]] const char* op_name() const override { return "call"; }
  /// A terminal-originated (MT) cycle leaves H323Terminal's Setup
  /// retransmitter armed (it is acked only at release), so it runs to
  /// exhaustion while the call is up: three no-op resends and one no-op
  /// give-up per MT cycle.  The give-up counter is reported as
  /// vgprs.give_ups_per_op instead; a real give-up closes its procedure's
  /// span as a timeout, which drain_records() checks.
  [[nodiscard]] bool gives_up_after_success() const override { return true; }

  /// Switches string tracing and simulator spans together (the ablation).
  void set_recording(bool on) {
    net().trace().set_mode(on ? TraceMode::kFull : TraceMode::kDisabled);
    net().spans().set_enabled(on);
  }
  /// Delivered-message histogram accumulated from the string trace.
  [[nodiscard]] const std::map<std::string, std::uint64_t>& type_histogram()
      const {
    return histogram_;
  }

 protected:
  [[nodiscard]] VgprsParams params() const override {
    VgprsParams p;
    p.num_ms = kMs;
    p.num_terminals = kTerminals;
    return p;
  }
  void configure() override {
    set_recording(true);
    ms_slots_.assign(kMs, Slot{});
    term_slots_.assign(kTerminals, Slot{});
    for (std::uint32_t i = 0; i < kMs; ++i) hook(*s_->ms[i], ms_slots_[i], net());
    for (std::uint32_t i = 0; i < kTerminals; ++i) {
      hook(*s_->terminals[i], term_slots_[i], net());
    }
    cycles_ = 0;
    histogram_.clear();
  }
  void register_all(Ctx& ctx, Outcome& out) override {
    ctx.stimulus([&] {
      for (MobileStation* ms : s_->ms) ms->power_on();
      for (H323Terminal* t : s_->terminals) t->register_endpoint();
    });
    ctx.settle(*s_);
    std::uint64_t bad = 0;
    for (std::uint32_t i = 0; i < kMs; ++i) {
      if (s_->ms[i]->state() != MobileStation::State::kIdle) ++bad;
    }
    for (H323Terminal* t : s_->terminals) {
      if (t->state() != H323Terminal::State::kRegistered) ++bad;
    }
    if (s_->vmsc->ready_count() != kMs) ++bad;
    out.procedures(kMs + kTerminals, bad, "registrations");
  }
  [[nodiscard]] std::uint32_t warmup_rounds() const override {
    return sc_.warmup_rounds;
  }

  /// One round is an MO and an MT cycle in seeded order, so every round
  /// costs the same mix and the per-round median is unimodal.
  std::uint64_t round(Ctx& ctx, Outcome& out, std::uint64_t r) override {
    ctx.spans.set_round(static_cast<std::int64_t>(r));
    auto span = ctx.spans.scope("bench.round");
    SplitMix rng = stream(seed_, kCycle, r);
    const bool mt_first = rng.below(2) != 0;
    std::uint64_t bad = 0;
    for (int k = 0; k < 2; ++k) {
      const auto mi = static_cast<std::uint32_t>(rng.below(kMs));
      const auto ti = static_cast<std::uint32_t>(rng.below(kTerminals));
      if (!cycle(ctx, mi, ti, (k == 0) == mt_first)) ++bad;
      if (++cycles_ % kClearEvery == 0) drain_records(out);
    }
    out.procedures(2, bad, "call cycles");
    return 2;
  }

  /// One call: dial (or place_call), settle, hang up, settle.  True when
  /// both ends connected once and returned to idle without a failure.
  bool cycle(Ctx& ctx, std::uint32_t mi, std::uint32_t ti, bool mt) {
    MobileStation& ms = *s_->ms[mi];
    H323Terminal& term = *s_->terminals[ti];
    Slot& a = ms_slots_[mi];
    Slot& b = term_slots_[ti];
    a.connects = a.releases = b.connects = b.releases = 0;
    ctx.stimulus([&] {
      if (mt) {
        term.place_call(ms.config().msisdn);
      } else {
        ms.dial(vgprs::make_subscriber(88, 1000 + ti).msisdn);
      }
    });
    ctx.settle(*s_);
    const bool connected = ms.state() == MobileStation::State::kConnected &&
                           term.state() == H323Terminal::State::kConnected &&
                           a.connects == 1 && b.connects == 1;
    ctx.stimulus([&] {
      if (mt) {
        term.hangup();
      } else {
        ms.hangup();
      }
    });
    ctx.settle(*s_);
    auto chk = ctx.spans.scope("bench.check");
    return connected && ms.state() == MobileStation::State::kIdle &&
           term.state() == H323Terminal::State::kRegistered &&
           a.releases >= 1 && b.releases >= 1 && a.failures == 0 &&
           b.failures == 0;
  }

 public:
  void finish(Outcome& out) override {
    drain_records(out);
    Workload::finish(out);
  }

 private:
  /// The periodic clear: no simulator span may be open at a drained point.
  void drain_records(Outcome& out) {
    if (net().spans().open_count() != 0) {
      out.error(std::to_string(net().spans().open_count()) +
                " simulator spans open at drain");
    }
    for (const vgprs::Span& sp : net().spans().spans()) {
      if (sp.outcome == vgprs::SpanOutcome::kTimeout ||
          sp.outcome == vgprs::SpanOutcome::kRejected) {
        out.error(std::string(vgprs::to_string(sp.kind)) + " span closed as " +
                  std::string(vgprs::to_string(sp.outcome)));
      }
    }
    if (collect_histogram_) {
      net().trace().for_each(
          [&](const vgprs::TraceEntry& e) { ++histogram_[e.message]; });
    }
    net().trace().clear();
    net().spans().clear();
  }

 private:
  Scale sc_;
  std::uint64_t seed_;
  bool collect_histogram_;
  std::uint64_t cycles_ = 0;
  std::vector<Slot> ms_slots_;
  std::vector<Slot> term_slots_;
  std::map<std::string, std::uint64_t> histogram_;
};

// --- configuration ------------------------------------------------------------------

enum class Kind { kCallWave, kRegChurn, kCallCycle };

struct Options {
  Kind kind = Kind::kCallWave;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  bool tiny = false;            // self-test sizes
  bool corrupt_digest = false;  // self-test: must make the run fail
};

Scale scale_for(Kind k, bool tiny) {
  switch (k) {
    case Kind::kCallWave:
      return tiny ? Scale{256, 4, 32, 2, 1, 2, 2, 1}
                  : Scale{10000, 16, 2048, 4, 1, 3, 2, 2};
    case Kind::kRegChurn:
      return tiny ? Scale{256, 4, 0, 1, 1, 2, 0, 1}
                  : Scale{10000, 16, 0, 1, 1, 3, 0, 2};
    case Kind::kCallCycle:
      return tiny ? Scale{8, 1, 0, 1, 8, 2, 0, 32}
                  : Scale{8, 1, 0, 1, 256, 9, 0, 1024};
  }
  return {};
}

std::unique_ptr<Workload> make(Kind k, const Scale& sc, unsigned workers,
                               std::uint64_t seed) {
  switch (k) {
    case Kind::kCallWave:
      return std::make_unique<CallWave>(sc, workers, seed);
    case Kind::kRegChurn:
      return std::make_unique<RegChurn>(sc, seed);
    case Kind::kCallCycle:
      return std::make_unique<CallCycle>(sc, seed);
  }
  return nullptr;
}

// --- metrics output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void emit(const Outcome& out, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %18s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit);
  }
  for (const std::string& e : out.errors) std::printf("  CHECK FAILED: %s\n", e.c_str());
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- codec microbenchmarks (traced run) ----------------------------------------------

/// Mean ns per encode_to+decode round trip over default-valued messages of
/// the wire types in `seq` (repeats give the weights); median of five
/// timed passes.
double roundtrip_ns(const std::vector<std::uint16_t>& seq) {
  const auto& reg = vgprs::MessageRegistry::instance();
  std::vector<std::unique_ptr<vgprs::Message>> msgs;
  msgs.reserve(seq.size());
  for (std::uint16_t t : seq) msgs.push_back(reg.create(t));
  vgprs::ByteWriter w;
  std::vector<double> passes;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    std::uint64_t n = 0;
    const auto t0 = Clock::now();
    do {
      for (const auto& m : msgs) {
        w.clear();
        m->encode_to(w);
        auto decoded = reg.decode(w.data());
        sink += decoded.ok() ? decoded.value()->wire_type() : 1;
        ++n;
      }
    } while (ns_since(t0) < 50'000'000);
    passes.push_back(static_cast<double>(ns_since(t0)) /
                     static_cast<double>(n));
  }
  if (sink == 0) std::printf("  (codec sink %" PRIu64 ")\n", sink);
  return median(passes);
}

struct CodecNumbers {
  double mix_ns = 0.0;
  double paging_ns = 0.0;
};

/// Runs 128 seeded rounds of callcycle_traced (tiny warm-up) to get the
/// delivered-type histogram, then times the codec on that mix and on
/// paging alone.
CodecNumbers codec_numbers(std::uint64_t seed) {
  Ctx ctx;
  Outcome scratch;
  CallCycle cc(scale_for(Kind::kCallCycle, true), seed, true);
  cc.setup(ctx, scratch);
  for (int i = 0; i < 128; ++i) cc.next(ctx, scratch);
  cc.finish(scratch);
  const auto& reg = vgprs::MessageRegistry::instance();
  std::map<std::string, std::uint16_t, std::less<>> by_name;
  for (std::uint16_t t : reg.types()) by_name[std::string(reg.name_of(t))] = t;
  std::vector<std::uint16_t> mix;
  for (const auto& [name, count] : cc.type_histogram()) {
    auto it = by_name.find(name);
    if (it == by_name.end()) continue;
    for (std::uint64_t i = 0; i < count; ++i) mix.push_back(it->second);
  }
  CodecNumbers out;
  out.mix_ns = mix.empty() ? 0.0 : roundtrip_ns(mix);
  out.paging_ns = roundtrip_ns({vgprs::UmPagingRequest{}.wire_type()});
  return out;
}

// --- the run -----------------------------------------------------------------------

struct Deltas {
  NetworkStats net{};
  vgprs::MessagePoolStats pool{};
  std::int64_t retransmits = 0;
  std::int64_t give_ups = 0;
  std::vector<ShardPerfStats> shards;
};

Deltas snapshot(Network& net) {
  Deltas d;
  d.net = net.stats();
  d.pool = vgprs::message_pool_stats();
  d.retransmits = counter(net, "recovery/retransmits");
  d.give_ups = counter(net, "recovery/give_ups");
  d.shards = net.shard_perf();
  return d;
}

/// Accumulates after-minus-before into `acc`.
void accumulate(Deltas& acc, const Deltas& a, const Deltas& b) {
  acc.net.messages_delivered += b.net.messages_delivered - a.net.messages_delivered;
  acc.net.messages_dropped += b.net.messages_dropped - a.net.messages_dropped;
  acc.net.bytes_on_wire += b.net.bytes_on_wire - a.net.bytes_on_wire;
  acc.net.timers_fired += b.net.timers_fired - a.net.timers_fired;
  acc.pool.pooled_allocs += b.pool.pooled_allocs - a.pool.pooled_allocs;
  acc.pool.oversize_allocs += b.pool.oversize_allocs - a.pool.oversize_allocs;
  acc.retransmits += b.retransmits - a.retransmits;
  acc.give_ups += b.give_ups - a.give_ups;
  acc.shards.resize(b.shards.size());
  for (std::size_t i = 0; i < b.shards.size() && i < a.shards.size(); ++i) {
    ShardPerfStats& s = acc.shards[i];
    s.windows += b.shards[i].windows - a.shards[i].windows;
    s.fused_windows += b.shards[i].fused_windows - a.shards[i].fused_windows;
    s.busy_ns += b.shards[i].busy_ns - a.shards[i].busy_ns;
    s.drain_ns += b.shards[i].drain_ns - a.shards[i].drain_ns;
    s.barrier_ns += b.shards[i].barrier_ns - a.shards[i].barrier_ns;
    s.idle_ns += b.shards[i].idle_ns - a.shards[i].idle_ns;
  }
}

/// Runs two alternating configurations for `rounds` rounds each and returns
/// 1 - time(a) / time(b): the share of b's time that a saves.
template <typename SetA, typename SetB>
double ablation_share(Workload& w, Ctx& ctx, Outcome& out,
                      std::uint32_t rounds, SetA set_a, SetB set_b) {
  std::int64_t ta = 0;
  std::int64_t tb = 0;
  const std::uint32_t block = std::max<std::uint32_t>(1, rounds / 4);
  for (std::uint32_t done = 0; done < rounds; done += block) {
    for (int side = 0; side < 2; ++side) {
      side == 0 ? set_a() : set_b();
      const std::int64_t before = ctx.timed_ns;
      for (std::uint32_t i = 0; i < block; ++i) w.next(ctx, out);
      (side == 0 ? ta : tb) += ctx.timed_ns - before;
    }
  }
  set_b();
  return 1.0 - ratio(static_cast<double>(ta), static_cast<double>(tb));
}

/// Runs one workload; fills `metrics` and returns the checked outcome.
Outcome run(const Options& opt, std::vector<Metric>& metrics) {
  const Scale sc = scale_for(opt.kind, opt.tiny);
  Outcome out;
  Ctx ctx;

  // The 1-worker reference for callwave's determinism check: same seed,
  // same stimuli, sequential schedule.  Not part of setup_s.
  std::vector<std::uint64_t> reference;
  if (opt.kind == Kind::kCallWave) {
    Ctx ref_ctx;
    auto ref = make(opt.kind, sc, 1, opt.seed);
    ref->setup(ref_ctx, out);
    for (std::uint32_t i = 0; i < sc.digest_rounds; ++i) ref->next(ref_ctx, out);
    ref->finish(out);
    reference = ref->digests();
    if (opt.corrupt_digest && !reference.empty()) reference.back() ^= 1;
  }

  auto w = make(opt.kind, sc, sc.workers, opt.seed);
  ctx.spans.set_enabled(opt.trace);
  std::vector<double> setup_s, build_s, register_s, warmup_s;
  for (std::uint32_t k = 0; k < sc.setups; ++k) {
    // Each set-up is measured from scratch; the last one is kept.
    if (k > 0) {
      w->finish(out);
      w = make(opt.kind, sc, sc.workers, opt.seed);
    }
    const SetupTimes t = w->setup(ctx, out);
    setup_s.push_back(t.total());
    build_s.push_back(t.build_s);
    register_s.push_back(t.register_s);
    warmup_s.push_back(t.warmup_s);
  }
  Network& net = w->net();
  const std::size_t warm_digests = w->digests().size();

  // Timed closed loop.  In the traced run rounds alternate two by two
  // between traced (driver spans + shard stats) and untraced.  The two
  // medians give the tracing overhead; per-layer counters come from traced
  // rounds only.
  std::vector<double> round_ms, traced_ms, untraced_ms;
  std::uint64_t ops = 0, traced_ops = 0;
  std::uint64_t traced_events = 0;
  Deltas traced{};
  const Deltas loop_start = snapshot(net);
  const std::size_t loop_spans = ctx.spans.mark();
  const std::int64_t loop_timed_ns = ctx.timed_ns;
  const double loop_cpu_s = process_cpu_s();
  const auto loop_t0 = Clock::now();
  const auto budget_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::uint32_t min_rounds =
      std::max<std::uint32_t>(sc.digest_rounds, opt.trace ? 8 : 2);
  std::uint32_t rounds = 0;
  while (rounds < min_rounds || ns_since(loop_t0) < budget_ns) {
    const bool traced_round = opt.trace && (rounds / 2) % 2 == 1;
    ctx.spans.set_enabled(traced_round);
    net.enable_shard_stats(traced_round);
    const Deltas before = traced_round ? snapshot(net) : Deltas{};
    const std::int64_t t_before = ctx.timed_ns;
    const std::uint64_t ev_before = ctx.settle_events;
    const std::uint64_t n = w->next(ctx, out);
    const double ms = static_cast<double>(ctx.timed_ns - t_before) * 1e-6;
    ops += n;
    round_ms.push_back(ms);
    if (traced_round) {
      accumulate(traced, before, snapshot(net));
      traced_ms.push_back(ms);
      traced_ops += n;
      traced_events += ctx.settle_events - ev_before;
    } else {
      untraced_ms.push_back(ms);
    }
    ++rounds;
  }
  // Throughput and CPU per operation are totals over the loop: the host's
  // speed drifts in phases of seconds, and a total weighs each phase by its
  // length where a median would snap to whichever phase is longer.
  const double timed_s = static_cast<double>(ctx.timed_ns - loop_timed_ns) * 1e-9;
  const double cpu_s = process_cpu_s() - loop_cpu_s;
  const Deltas loop_end = snapshot(net);
  ctx.spans.set_enabled(false);
  net.enable_shard_stats(false);

  // Determinism: the timed rounds' digests must equal the 1-worker
  // reference's for the same round ids.
  if (!reference.empty()) {
    const auto& got = w->digests();
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (i >= got.size() || reference[i] != got[i]) {
        out.error("callwave digest of round id " + std::to_string(i) +
                  " differs from the 1-worker run");
        break;
      }
    }
  }

  if (!opt.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"ops_per_s", ratio(static_cast<double>(ops), timed_s), "1/s"},
        {"cpu_us_per_op", ratio(cpu_s * 1e6, static_cast<double>(ops)), "us"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    w->finish(out);
  } else {
    // Ablations on the same network, after the timed loop.
    const double link_share = ablation_share(
        *w, ctx, out, sc.ablation_rounds, [&] { net.set_serialize_links(false); },
        [&] { net.set_serialize_links(true); });
    double recording_share = 0.0;
    if (auto* cc = dynamic_cast<CallCycle*>(w.get())) {
      recording_share = ablation_share(
          *w, ctx, out, sc.ablation_rounds, [&] { cc->set_recording(false); },
          [&] { cc->set_recording(true); });
    }
    w->finish(out);
    const CodecNumbers codec = codec_numbers(opt.seed);
    if (ctx.spans.open_count() != 0) out.error("driver spans open at exit");
    if (!opt.spans_out.empty() && !ctx.spans.write_jsonl(opt.spans_out)) {
      out.error("cannot write " + opt.spans_out);
    }
    const auto self = ctx.spans.self_seconds(loop_spans);
    auto self_of = [&](const char* n) {
      auto it = self.find(n);
      return it == self.end() ? 0.0 : it->second;
    };
    std::printf("driver span self time over %zu traced rounds:\n",
                traced_ms.size());
    for (const auto& [name, secs] : self) {
      std::printf("  %-20s %12.6f s\n", name.c_str(), secs);
    }
    const double round_s = ctx.spans.total_seconds("bench.round", loop_spans);
    const double settle_s = ctx.spans.total_seconds("sim.settle", loop_spans);

    ShardPerfStats sum{};
    std::uint64_t max_busy = 0, max_windows = 0;
    for (const ShardPerfStats& s : traced.shards) {
      sum.busy_ns += s.busy_ns;
      sum.drain_ns += s.drain_ns;
      sum.barrier_ns += s.barrier_ns;
      sum.idle_ns += s.idle_ns;
      sum.windows += s.windows;
      sum.fused_windows += s.fused_windows;
      max_busy = std::max(max_busy, s.busy_ns);
      max_windows = std::max(max_windows, s.windows);
    }
    const bool windowed = net.num_shards() > 1;
    const double tr = static_cast<double>(traced_ms.size());
    const double top = static_cast<double>(traced_ops);
    const double all_ns = static_cast<double>(sum.busy_ns + sum.drain_ns +
                                              sum.barrier_ns + sum.idle_ns);
    const auto per_round_s = [&](std::uint64_t ns) {
      return windowed ? ratio(static_cast<double>(ns) * 1e-9, tr) : 0.0;
    };
    const double events = static_cast<double>(traced_events);
    const vgprs::MessagePoolStats pool_end = vgprs::message_pool_stats();
    metrics = {
        {"vgprs.build_s", median(build_s), "s"},
        {"vgprs.register_s", median(register_s), "s"},
        {"vgprs.warmup_s", median(warmup_s), "s"},
        {"sim.settle_share", ratio(settle_s, round_s), "ratio"},
        {"sim.ns_per_event", ratio(settle_s * 1e9, events), "ns"},
        {"sim.events_per_s", ratio(events, settle_s), "1/s"},
        {"sim.events_per_op",
         ratio(static_cast<double>(traced.net.messages_delivered), top), "count"},
        {"sim.timers_per_op",
         ratio(static_cast<double>(traced.net.timers_fired), top), "count"},
        {"sim.bytes_per_op",
         ratio(static_cast<double>(traced.net.bytes_on_wire), top), "B"},
        {"sim.dropped",
         static_cast<double>(loop_end.net.messages_dropped -
                             loop_start.net.messages_dropped), "count"},
        {"sim.window.busy_s", per_round_s(sum.busy_ns), "s"},
        {"sim.window.drain_s", per_round_s(sum.drain_ns), "s"},
        {"sim.window.barrier_s", per_round_s(sum.barrier_ns), "s"},
        {"sim.window.idle_s", per_round_s(sum.idle_ns), "s"},
        {"sim.window.wait_share",
         ratio(static_cast<double>(sum.barrier_ns + sum.idle_ns), all_ns), "ratio"},
        {"sim.window.core_busy_share",
         windowed && !traced.shards.empty()
             ? ratio(static_cast<double>(traced.shards[0].busy_ns),
                     static_cast<double>(sum.busy_ns))
             : 0.0,
         "ratio"},
        {"sim.window.max_shard_busy_share",
         windowed ? ratio(static_cast<double>(max_busy),
                          static_cast<double>(sum.busy_ns))
                  : 0.0,
         "ratio"},
        {"sim.window.windows_per_wave",
         windowed ? ratio(static_cast<double>(max_windows), tr) : 0.0, "count"},
        {"sim.window.fused_share",
         ratio(static_cast<double>(sum.fused_windows),
               static_cast<double>(sum.windows + sum.fused_windows)),
         "ratio"},
        {"sim.pool.allocs_per_event",
         ratio(static_cast<double>(traced.pool.pooled_allocs), events), "count"},
        {"sim.pool.chunks_grown",
         static_cast<double>(loop_end.pool.chunks - loop_start.pool.chunks), "count"},
        {"sim.pool.reserved_mb",
         static_cast<double>(pool_end.bytes_reserved) / (1024.0 * 1024.0), "MB"},
        {"sim.pool.oversize_per_op",
         ratio(static_cast<double>(traced.pool.oversize_allocs), top), "count"},
        {"sim.trace.recording_share", recording_share, "ratio"},
        {"common.codec.link_share", link_share, "ratio"},
        {"common.codec.mix_roundtrip_ns", codec.mix_ns, "ns"},
        {"common.codec.paging_roundtrip_ns", codec.paging_ns, "ns"},
        {"gsm.stimulus_ns_per_op", ratio(self_of("gsm.stimulus") * 1e9, top), "ns"},
        {"vgprs.retransmits_per_op",
         ratio(static_cast<double>(traced.retransmits), top), "count"},
        {"vgprs.give_ups_per_op",
         ratio(static_cast<double>(traced.give_ups), top), "count"},
        {"bench.check_share", ratio(self_of("bench.check"), round_s), "ratio"},
        {"bench.trace_overhead_share",
         ratio(median(traced_ms), median(untraced_ms)) - 1.0, "ratio"},
        {"bench.round_ms_p50", median(round_ms), "ms"},
        {"bench.round_ms_p99", percentile(round_ms, 0.99), "ms"},
        {"bench.fail_ratio",
         ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
         "ratio"},
    };
  }
  std::printf("workload %s: %u timed rounds, %" PRIu64 " %ss, seed %" PRIu64
              ", %zu shards, %u workers\n",
              opt.workload.c_str(), rounds, ops, w->op_name(), opt.seed,
              net.num_shards(), net.workers());
  if (opt.kind == Kind::kCallWave) {
    std::printf("  digest[first timed round] = %016" PRIx64 "\n",
                w->digests().size() > warm_digests ? w->digests()[warm_digests] : 0);
  }
  return out;
}

// --- self-test -----------------------------------------------------------------------

/// Every workload passes its checks at tiny sizes, traced and untraced, and
/// a corrupted expected digest makes callwave fail.
int self_test() {
  const char* names[] = {"callwave", "regchurn", "callcycle_traced"};
  const Kind kinds[] = {Kind::kCallWave, Kind::kRegChurn, Kind::kCallCycle};
  int failures = 0;
  auto one = [&](Kind k, const char* name, bool trace, bool corrupt) {
    Options o;
    o.kind = k;
    o.workload = name;
    o.seed = 7;
    o.seconds = 0.0;
    o.trace = trace;
    o.tiny = true;
    o.corrupt_digest = corrupt;
    std::vector<Metric> metrics;
    const Outcome out = run(o, metrics);
    const bool pass = out.correct == !corrupt && out.attempted > 0 &&
                      (corrupt || out.failed == 0);
    std::printf("self-test %-18s trace=%d corrupt=%d: %s (%" PRIu64
                " attempted, %" PRIu64 " failed)\n",
                name, trace ? 1 : 0, corrupt ? 1 : 0, pass ? "ok" : "FAIL",
                out.attempted, out.failed);
    for (const std::string& e : out.errors) std::printf("  %s\n", e.c_str());
    if (!pass) ++failures;
  };
  for (int i = 0; i < 3; ++i) {
    one(kinds[i], names[i], false, false);
    one(kinds[i], names[i], true, false);
  }
  one(Kind::kCallWave, "callwave", false, true);
  std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

bool parse_u64(const char* s, std::uint64_t& v) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  v = std::strtoull(s, &end, 10);
  return errno == 0 && *end == '\0';
}

int usage() {
  std::fprintf(stderr,
               "usage: capbench_driver --workload callwave|regchurn|"
               "callcycle_traced --seed N --seconds S --trace 0|1\n"
               "                       [--spans-out PATH]\n"
               "       capbench_driver --self-test\n");
  return 2;
}

}  // namespace
}  // namespace capbench

int main(int argc, char** argv) {
  using namespace capbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (a == "--self-test") return self_test();
    if (v == nullptr) return usage();
    ++i;
    if (a == "--workload") {
      opt.workload = v;
      if (opt.workload == "callwave") {
        opt.kind = Kind::kCallWave;
      } else if (opt.workload == "regchurn") {
        opt.kind = Kind::kRegChurn;
      } else if (opt.workload == "callcycle_traced") {
        opt.kind = Kind::kCallCycle;
      } else {
        return usage();
      }
      have_workload = true;
    } else if (a == "--seed" && parse_u64(v, n)) {
      opt.seed = n;
    } else if (a == "--seconds" && parse_u64(v, n) && n <= 3600) {
      opt.seconds = static_cast<double>(n);
    } else if (a == "--trace" && (std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0)) {
      opt.trace = v[0] == '1';
    } else if (a == "--spans-out") {
      opt.spans_out = v;
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();
  std::vector<Metric> metrics;
  const Outcome out = run(opt, metrics);
  emit(out, metrics);
  return 0;
}
