// Thread-count invariance of the sharded engine: every principal scenario
// (Fig. 4-9, the TR 23.821 baseline, and the lost-setup fault run) is
// re-executed with the network partitioned along its topology seams and
// driven by 1, 2, 4 and 8 workers, and the canonical trace is compared
// byte-for-byte against the SAME goldens the sequential engine is pinned
// to.  A race, mail drained in the wrong window, a window that admits an
// event it should not, or a shard that sat out a window it had work in all
// show up as a golden diff here.
//
// This test never regenerates goldens — test_golden_trace owns them.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gprs/ip.hpp"
#include "sim/arena.hpp"
#include "sim/export.hpp"
#include "sim/fault.hpp"
#include "tr23821/tr_scenario.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

constexpr unsigned kWorkerCounts[] = {1, 2, 4, 8};
constexpr std::size_t kNumWorkerCounts =
    sizeof(kWorkerCounts) / sizeof(kWorkerCounts[0]);

std::string canonical(const TraceRecorder& trace) {
  std::ostringstream os;
  for (const auto& e : trace.entries()) {
    os << e.at.count_micros() << ' ' << e.from << ' ' << e.to << ' '
       << e.message << '\n';
  }
  return os.str();
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(VGPRS_GOLDEN_DIR) + "/" + name + ".txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream got;
  got << in.rdbuf();
  return got.str();
}

void expect_golden(const std::string& name, const std::string& actual,
                   unsigned workers) {
  const std::string expected = read_golden(name);
  if (expected == actual) return;
  // Name the first diverging delivery; full traces are thousands of lines.
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string wline;
  std::string gline;
  std::size_t lineno = 0;
  while (true) {
    const bool have_w = static_cast<bool>(std::getline(want, wline));
    const bool have_g = static_cast<bool>(std::getline(got, gline));
    ++lineno;
    if (!have_w && !have_g) break;
    if (!have_w || !have_g || wline != gline) {
      ADD_FAILURE() << name << " with " << workers
                    << " worker(s): diverged at delivery " << lineno
                    << "\n  golden: "
                    << (have_w ? wline : std::string("<end of golden>"))
                    << "\n  actual: "
                    << (have_g ? gline : std::string("<end of actual>"));
      return;
    }
  }
}

// Forwards every message it receives to `peer` until `remaining` runs out;
// throws instead when `remaining` reaches `fail_at`.
struct Relay final : public Node {
  using Node::Node;
  NodeId peer;
  std::int64_t remaining = 0;
  std::int64_t fail_at = -1;
  void on_message(const Envelope& env) override {
    if (remaining == fail_at) {
      throw std::runtime_error("relay failure in " + name());
    }
    if (remaining-- > 0) send(peer, MessagePtr(env.msg->clone()));
  }
};

VgprsParams sharded_vgprs_params(unsigned workers) {
  VgprsParams params;
  params.seed = 7;
  params.sharded = true;
  params.workers = workers;
  return params;
}

TEST(ShardedEngine, Fig4AndFig5MatchSequentialGoldens) {
  for (unsigned w : kWorkerCounts) {
    auto s = build_vgprs(sharded_vgprs_params(w));
    ASSERT_GT(s->net.num_shards(), 1u);
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    expect_golden("fig4_registration", canonical(s->net.trace()), w);

    s->net.trace().clear();
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->ms[0]->hangup();
    s->settle();
    expect_golden("fig5_origination_release", canonical(s->net.trace()), w);
  }
}

TEST(ShardedEngine, Fig6MatchesSequentialGolden) {
  for (unsigned w : kWorkerCounts) {
    auto s = build_vgprs(sharded_vgprs_params(w));
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    s->net.trace().clear();
    s->terminals[0]->place_call(s->ms[0]->config().msisdn);
    s->settle();
    expect_golden("fig6_termination", canonical(s->net.trace()), w);
  }
}

// Sharded runs buffer packed trace records per shard and hand them to the
// recorder at the merge.  The full text of the trace — summaries, fault
// annotations and the JSONL export included — does not depend on the
// worker count.
std::string full_trace_text(const TraceRecorder& trace) {
  std::ostringstream os;
  os << trace.to_string(std::numeric_limits<std::size_t>::max());
  write_trace_jsonl(os, trace);
  return os.str();
}

// Figs. 4, 5 (first A_Setup lost) and 6 one after the other: the sequence
// the sequential engine's goldens pin.
std::string packed_trace_figs(bool sharded, unsigned workers) {
  VgprsParams params = sharded_vgprs_params(workers);
  params.sharded = sharded;
  auto s = build_vgprs(params);
  // Sender and receiver named: a fault's "nth match" is counted per
  // shard, and Fig. 6 sends an A_Setup the other way (sim/fault.hpp).
  FaultSchedule sched;
  sched.message_faults.push_back(
      {MessagePredicate{"A_Setup", "BSC", "VMSC", 1, 1}, FaultKind::kDrop});
  s->net.install_faults(std::move(sched));
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  s->ms[0]->hangup();
  s->settle();
  s->terminals[0]->place_call(s->ms[0]->config().msisdn);
  s->settle();
  s->terminals[0]->hangup();
  s->settle();
  return full_trace_text(s->net.trace());
}

// An MO and an MT call at once, so every window merges interleaved
// records from several shards.
std::string packed_trace_concurrent(unsigned workers) {
  VgprsParams params = sharded_vgprs_params(workers);
  params.num_ms = 2;
  params.num_terminals = 2;
  auto s = build_vgprs(params);
  s->ms[0]->power_on();
  s->ms[1]->power_on();
  s->terminals[0]->register_endpoint();
  s->terminals[1]->register_endpoint();
  s->settle();
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->terminals[1]->place_call(s->ms[1]->config().msisdn);
  s->settle();
  s->ms[0]->hangup();
  s->terminals[1]->hangup();
  s->settle();
  return full_trace_text(s->net.trace());
}

TEST(ShardedEngine, PackedTraceTextMatchesSequentialAtAnyWorkerCount) {
  const std::string sequential = packed_trace_figs(false, 1);
  EXPECT_NE(sequential.find("fault.drop(A_Setup)"), std::string::npos);
  EXPECT_NE(sequential.find("[Q931_Connect]"), std::string::npos);
  const std::string concurrent = packed_trace_concurrent(1);
  EXPECT_NE(concurrent.find("MS2"), std::string::npos);
  for (unsigned w : kWorkerCounts) {
    EXPECT_EQ(packed_trace_figs(true, w), sequential) << w << " worker(s)";
    EXPECT_EQ(packed_trace_concurrent(w), concurrent) << w << " worker(s)";
  }
}

TEST(ShardedEngine, TromboningMatchesSequentialGoldens) {
  for (unsigned w : kWorkerCounts) {
    for (bool use_vgprs : {false, true}) {
      TrombParams params;
      params.seed = 7;
      params.use_vgprs = use_vgprs;
      params.sharded = true;
      params.workers = w;
      auto s = build_tromboning(params);
      ASSERT_GT(s->net.num_shards(), 1u);
      s->roamer->power_on();
      s->settle();
      s->caller->place_call(s->roamer_id.msisdn);
      s->settle();
      expect_golden(
          use_vgprs ? "fig8_tromboning_vgprs" : "fig7_tromboning_classic",
          canonical(s->net.trace()), w);
    }
  }
}

TEST(ShardedEngine, HandoffMatchesSequentialGolden) {
  for (unsigned w : kWorkerCounts) {
    HandoffParams params;
    params.seed = 7;
    params.sharded = true;
    params.workers = w;
    auto s = build_handoff(params);
    ASSERT_GT(s->net.num_shards(), 1u);
    s->ms->power_on();
    s->terminal->register_endpoint();
    s->settle();
    s->ms->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->bsc1->initiate_handover(s->ms->config().imsi, s->ms->call_ref(),
                               CellId(202));
    s->settle();
    expect_golden("fig9_handoff", canonical(s->net.trace()), w);
  }
}

// The TR baseline is the one topology with a jittered link (Um-PS,
// 60 ms jitter): jitter is drawn from the sending shard's RNG stream, so
// the sharded timestamps differ from the sequential golden by a fixed,
// partition-dependent offset.  What the engine guarantees — and what is
// asserted here — is that the sharded trace is byte-identical whatever
// the worker count.
TEST(ShardedEngine, Tr23821IsWorkerCountInvariant) {
  std::vector<std::string> traces;
  for (unsigned w : kWorkerCounts) {
    TrParams params;
    params.seed = 7;
    params.sharded = true;
    params.workers = w;
    auto s = build_tr23821(params);
    ASSERT_GT(s->net.num_shards(), 1u);
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->ms[0]->hangup();
    s->settle();
    s->terminals[0]->place_call(make_subscriber(88, 1).msisdn);
    s->settle();
    traces.push_back(canonical(s->net.trace()));
  }
  ASSERT_EQ(traces.size(), kNumWorkerCounts);
  EXPECT_FALSE(traces[0].empty());
  for (std::size_t i = 1; i < traces.size(); ++i) {
    EXPECT_EQ(traces[0], traces[i])
        << "trace differs between 1 and " << kWorkerCounts[i] << " workers";
  }
}

// Fault transitions and message faults ride the same event ordering, so
// the pinned recovery sequence must survive sharding too.
TEST(ShardedEngine, LostSetupFaultMatchesSequentialGolden) {
  for (unsigned w : kWorkerCounts) {
    auto s = build_vgprs(sharded_vgprs_params(w));
    FaultSchedule sched;
    sched.message_faults.push_back(
        {MessagePredicate{"A_Setup", "", "", 1, 1}, FaultKind::kDrop});
    s->net.install_faults(std::move(sched));
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    s->net.trace().clear();
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->ms[0]->hangup();
    s->settle();
    expect_golden("fig5_with_lost_setup", canonical(s->net.trace()), w);
  }
}

// A metropolitan-style multi-cell mix: every observable surface — trace,
// metrics snapshot, span set, aggregate stats, processed-event count —
// must be byte-identical whatever the worker count.
TEST(ShardedEngine, MultiCellObservablesAreWorkerCountInvariant) {
  struct Capture {
    std::string trace;
    std::string metrics;
    std::string spans;
    std::size_t processed = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t timers_fired = 0;
  };
  std::vector<Capture> runs;
  for (unsigned w : kWorkerCounts) {
    VgprsParams params;
    params.seed = 42;
    params.num_cells = 4;
    params.num_ms = 12;
    params.num_terminals = 2;
    params.sharded = true;
    params.workers = w;
    auto s = build_vgprs(params);
    ASSERT_GE(s->net.num_shards(), 6u);
    s->net.spans().set_enabled(true);

    Capture cap;
    for (auto* ms : s->ms) ms->power_on();
    for (auto* t : s->terminals) t->register_endpoint();
    cap.processed += s->settle();
    // Cross-cell MS->MS waves plus MS->terminal calls: traffic crosses
    // every shard seam (Abis/A within cells, Gn/Gi/IP toward H.323).
    for (std::size_t i = 0; i + 1 < s->ms.size(); i += 2) {
      s->ms[i]->dial(s->ms[i + 1]->config().msisdn);
    }
    cap.processed += s->settle();
    for (std::size_t i = 0; i + 1 < s->ms.size(); i += 2) {
      s->ms[i]->hangup();
    }
    cap.processed += s->settle();
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    cap.processed += s->settle();
    s->ms[0]->hangup();
    cap.processed += s->settle();

    cap.trace = canonical(s->net.trace());
    std::ostringstream mos;
    write_metrics_json(mos, s->net.metrics_snapshot());
    cap.metrics = mos.str();
    std::ostringstream sos;
    write_spans_json(sos, s->net.spans().spans());
    cap.spans = sos.str();
    const NetworkStats stats = s->net.stats();
    cap.messages_delivered = stats.messages_delivered;
    cap.timers_fired = stats.timers_fired;
    runs.push_back(std::move(cap));
  }
  ASSERT_EQ(runs.size(), kNumWorkerCounts);
  EXPECT_FALSE(runs[0].trace.empty());
  EXPECT_GT(runs[0].processed, 0u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].trace, runs[i].trace)
        << "trace differs between 1 and " << kWorkerCounts[i] << " workers";
    EXPECT_EQ(runs[0].metrics, runs[i].metrics)
        << "metrics differ between 1 and " << kWorkerCounts[i] << " workers";
    EXPECT_EQ(runs[0].spans, runs[i].spans)
        << "spans differ between 1 and " << kWorkerCounts[i] << " workers";
    EXPECT_EQ(runs[0].processed, runs[i].processed);
    EXPECT_EQ(runs[0].messages_delivered, runs[i].messages_delivered);
    EXPECT_EQ(runs[0].timers_fired, runs[i].timers_fired);
  }
}

// --- adaptive windows ---------------------------------------------------------

// The conservative window is computed per advance from the live minimum
// over *active* cross-shard links, so retuning a seam latency between runs
// (sweep-style) shrinks or grows the lookahead mid-scenario.  Window size
// must never alter event order: the same retuned scenario has to produce
// byte-identical traces at every worker count.
TEST(ShardedEngine, AdaptiveWindowSurvivesLookaheadRetune) {
  std::vector<std::string> traces;
  for (unsigned w : kWorkerCounts) {
    auto s = build_vgprs(sharded_vgprs_params(w));
    ASSERT_GT(s->net.num_shards(), 1u);
    const NodeId bsc = s->bsc->id();
    const NodeId vmsc = s->vmsc->id();
    const LinkProfile* a_if = s->net.link_between(bsc, vmsc);
    ASSERT_NE(a_if, nullptr);
    const LinkProfile original = *a_if;

    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();

    // Grow the A-interface latency 20x: the seam's lookahead promise grows
    // and windows stretch accordingly.
    LinkProfile slow = original;
    slow.latency = original.latency * 20;
    s->net.set_link_profile(bsc, vmsc, slow);
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->ms[0]->hangup();
    s->settle();

    // Shrink it back below the original: windows tighten again.
    LinkProfile fast = original;
    fast.latency = original.latency / 2;
    s->net.set_link_profile(bsc, vmsc, fast);
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->ms[0]->hangup();
    s->settle();

    traces.push_back(canonical(s->net.trace()));
  }
  ASSERT_EQ(traces.size(), kNumWorkerCounts);
  EXPECT_FALSE(traces[0].empty());
  for (std::size_t i = 1; i < traces.size(); ++i) {
    EXPECT_EQ(traces[0], traces[i])
        << "trace differs between 1 and " << kWorkerCounts[i] << " workers";
  }
}

// The seam cache behind those adaptive windows must make retunes cheap:
// the first windowed run pays one full adjacency scan to collect each
// shard's cross-shard link set, a topology-untouched rerun reuses it
// verbatim (zero links scanned), and retuning one seam rescans only the
// two shards it joins — never the whole adjacency again.
TEST(ShardedEngine, LookaheadRetuneScansOnlyDirtyShards) {
  auto s = build_vgprs(sharded_vgprs_params(2));
  ASSERT_GT(s->net.num_shards(), 1u);
  s->ms[0]->power_on();
  s->settle();
  const std::uint64_t full_scan = s->net.seam_links_scanned();
  EXPECT_GT(full_scan, 0u);

  // No topology change: further runs must not rescan anything.
  s->terminals[0]->register_endpoint();
  s->settle();
  EXPECT_EQ(s->net.seam_links_scanned(), full_scan);

  // Retune the A interface: exactly the two shards it joins are dirtied,
  // and the rescan walks their seam lists, not every link in the network.
  const NodeId bsc = s->bsc->id();
  const NodeId vmsc = s->vmsc->id();
  const LinkProfile* a_if = s->net.link_between(bsc, vmsc);
  ASSERT_NE(a_if, nullptr);
  LinkProfile slow = *a_if;
  slow.latency = slow.latency * 4;
  s->net.set_link_profile(bsc, vmsc, slow);
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  const std::uint64_t retune = s->net.seam_links_scanned() - full_scan;
  EXPECT_GT(retune, 0u);
  EXPECT_LT(retune, full_scan);
}

// A shard with no cross-shard links at all contributes no lookahead
// constraint.  When *no* shard is actively constrained below the window
// cap, the fixed point must fall back to one window spanning the whole
// advance — not a zero-length window that would spin the barrier forever.
TEST(ShardedEngine, NoActiveCrossShardLinksFallsBackToFullWindow) {
  register_all_messages();
  std::vector<std::uint64_t> delivered;
  std::vector<std::uint64_t> island_quiet;
  for (unsigned w : kWorkerCounts) {
    Network net(1);
    auto& a = net.add<Relay>("a");
    auto& b = net.add<Relay>("b");
    auto& island = net.add<Relay>("island");
    net.connect(a, b, LinkProfile{});
    a.peer = b.id();
    b.peer = a.id();
    a.remaining = b.remaining = 200;
    // Shard 0 holds the ping-pong pair, shard 1 is an island: the
    // cross-shard link set is empty, so every shard's lookahead is the
    // "unconstrained" sentinel and each window must run to its limit.
    net.set_shards({{a.id(), b.id()}, {island.id()}});
    net.set_workers(w);
    auto ping = std::make_shared<UmPagingRequest>();
    net.send(a.id(), b.id(), ping);
    net.run_until_idle();
    delivered.push_back(net.stats().messages_delivered);
    // The island is quiet in every window and sits each one out; the
    // advance counts that, so the count is the same at every worker count.
    const std::vector<ShardPerfStats> perf = net.shard_perf();
    ASSERT_EQ(perf.size(), 2u);
    EXPECT_EQ(perf[1].events, 0u);
    EXPECT_GT(perf[1].fused_windows, 0u);
    island_quiet.push_back(perf[1].fused_windows);
  }
  ASSERT_EQ(delivered.size(), kNumWorkerCounts);
  EXPECT_GT(delivered[0], 400u);
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[0], delivered[i]);
    EXPECT_EQ(island_quiet[0], island_quiet[i])
        << "quiet-window count differs between 1 and " << kWorkerCounts[i]
        << " workers";
  }
}

// The shard timers cut each worker's wall time into pieces: busy and drain
// per shard, and the gate wait split evenly over the shards the worker owns.
// Summed over all shards they can never exceed workers x wall time, however
// the load is spread.  A token circling eight single-node shards keeps one
// shard busy per window while every other shard sits it out, so nearly all
// of each worker's time is spent waiting at the gate.
TEST(ShardedEngine, ShardStatTimersFitInWorkerWallTime) {
  register_all_messages();
  constexpr std::size_t kRing = 8;
  for (unsigned w : {2u, 4u}) {
    Network net(1);
    std::vector<Relay*> ring;
    std::vector<std::vector<NodeId>> groups;
    for (std::size_t i = 0; i < kRing; ++i) {
      ring.push_back(&net.add<Relay>("r" + std::to_string(i)));
      groups.push_back({ring.back()->id()});
    }
    for (std::size_t i = 0; i < kRing; ++i) {
      Relay& next = *ring[(i + 1) % kRing];
      net.connect(*ring[i], next, LinkProfile{});
      ring[i]->peer = next.id();
      ring[i]->remaining = 500;
    }
    net.set_shards(groups);
    net.set_workers(w);
    net.enable_shard_stats(true);
    net.send(ring[0]->id(), ring[1]->id(),
             std::make_shared<UmPagingRequest>());
    const auto t0 = std::chrono::steady_clock::now();
    net.run_until_idle();
    const auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    EXPECT_GT(net.stats().messages_delivered, 4000u);
    std::uint64_t timed_ns = 0;
    for (const ShardPerfStats& p : net.shard_perf()) {
      timed_ns += p.busy_ns + p.drain_ns + p.barrier_ns + p.idle_ns;
    }
    EXPECT_GT(timed_ns, 0u);
    EXPECT_LE(timed_ns, w * wall_ns) << w << " workers";
  }
}

// Two cross-shard ping-pong pairs, p0<->p1 and p2<->p3, over four
// single-node shards; with `fail`, p1 throws on its 51st delivery.
struct RelayPairs {
  std::unique_ptr<Network> net;
  std::vector<Relay*> r;
};

RelayPairs make_relay_pairs(unsigned workers, bool fail) {
  RelayPairs p{std::make_unique<Network>(1), {}};
  std::vector<std::vector<NodeId>> groups;
  for (int i = 0; i < 4; ++i) {
    p.r.push_back(&p.net->add<Relay>("p" + std::to_string(i)));
    p.r.back()->remaining = 100;
    groups.push_back({p.r.back()->id()});
  }
  for (int i = 0; i < 4; i += 2) {
    p.net->connect(*p.r[i], *p.r[i + 1], LinkProfile{});
    p.r[i]->peer = p.r[i + 1]->id();
    p.r[i + 1]->peer = p.r[i]->id();
  }
  if (fail) p.r[1]->fail_at = 50;  // shard 1, halfway through the run
  p.net->set_shards(groups);
  p.net->set_workers(workers);
  p.net->send(p.r[0]->id(), p.r[1]->id(), std::make_shared<UmPagingRequest>());
  p.net->send(p.r[2]->id(), p.r[3]->id(), std::make_shared<UmPagingRequest>());
  return p;
}

// A node that throws mid-run on a worker thread must not wedge the window
// protocol: its worker keeps arriving at the gate, the next advance stops
// everyone, and run_until_idle rethrows the node's exception.  The engine
// stays usable: a fresh network runs to completion afterwards.
TEST(ShardedEngine, HandlerThrowMidRunIsRethrown) {
  register_all_messages();
  for (unsigned w : {1u, 2u, 4u}) {
    try {
      make_relay_pairs(w, true).net->run_until_idle();
      ADD_FAILURE() << "no exception at " << w << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "relay failure in p1") << w << " workers";
    }
    RelayPairs p = make_relay_pairs(w, false);
    p.net->run_until_idle();
    EXPECT_EQ(p.net->stats().messages_delivered, 402u) << w << " workers";
  }
}

// The throw ends the run with the message p2<->p3 sent in the last window
// still staged for the next one.  The run's end must hand it to its
// destination's heap: the network is not idle, and resuming runs the
// surviving pair to the end, identically at any worker count.
TEST(ShardedEngine, StagedMailSurvivesAThrowingRun) {
  register_all_messages();
  struct Resumed {
    std::size_t processed;
    NetworkStats stats;
    std::string trace;
  };
  std::vector<Resumed> runs;
  for (unsigned w : {1u, 2u, 4u}) {
    RelayPairs p = make_relay_pairs(w, true);
    EXPECT_THROW(p.net->run_until_idle(), std::runtime_error);
    EXPECT_FALSE(p.net->idle()) << w << " workers";
    p.r[1]->fail_at = -1;
    const std::size_t processed = p.net->run_until_idle();
    EXPECT_TRUE(p.net->idle()) << w << " workers";
    runs.push_back({processed, p.net->stats(), canonical(p.net->trace())});
    // p0<->p1 stopped at the delivery that threw (101 in all); p2<->p3
    // made all 201 of its deliveries.
    EXPECT_EQ(runs.back().stats.messages_delivered, 302u) << w << " workers";
  }
  for (const Resumed& r : runs) {
    EXPECT_EQ(r.processed, runs[0].processed);
    EXPECT_EQ(r.stats.messages_sent, runs[0].stats.messages_sent);
    EXPECT_EQ(r.stats.messages_delivered, runs[0].stats.messages_delivered);
    EXPECT_EQ(r.stats.messages_dropped, runs[0].stats.messages_dropped);
    EXPECT_EQ(r.stats.bytes_on_wire, runs[0].stats.bytes_on_wire);
    EXPECT_EQ(r.stats.timers_fired, runs[0].stats.timers_fired);
    EXPECT_EQ(r.trace, runs[0].trace);
  }
}

// A quiet shard must take in its mail at every window start, not only when
// it runs: the advance reads only the window that just ended.  p0<->p1 is a
// 4 ms link whose mid-window send lands windows later, while p2<->p3 keeps
// the windows 1 ms wide and stops before p0's event is due.  Mail that sat
// undrained would be missed by the advance and end the run early.
TEST(ShardedEngine, QuietShardTakesInMailEveryWindow) {
  register_all_messages();
  for (std::int64_t fast : {2, 3, 4}) {
    for (unsigned w : {1u, 2u}) {
      Network net(1);
      std::vector<Relay*> r;
      std::vector<std::vector<NodeId>> groups;
      for (int i = 0; i < 4; ++i) {
        r.push_back(&net.add<Relay>("p" + std::to_string(i)));
        r.back()->remaining = i < 2 ? 1 : fast;
        groups.push_back({r.back()->id()});
      }
      LinkProfile slow;
      slow.latency = SimDuration::millis(4);
      net.connect(*r[0], *r[1], slow);
      net.connect(*r[2], *r[3], LinkProfile{});
      for (int i = 0; i < 4; ++i) r[i]->peer = r[i ^ 1]->id();
      net.set_shards(groups);
      net.set_workers(w);
      net.send(r[0]->id(), r[1]->id(), std::make_shared<UmPagingRequest>());
      net.send(r[2]->id(), r[3]->id(), std::make_shared<UmPagingRequest>());
      net.run_until_idle();
      EXPECT_TRUE(net.idle()) << fast << " fast relays, " << w << " workers";
      EXPECT_EQ(net.stats().messages_delivered,
                static_cast<std::uint64_t>(3 + 2 * fast + 1))
          << fast << " fast relays, " << w << " workers";
    }
  }
}

// --- partition planner --------------------------------------------------------

// One deliberately hot cell: a relay with 12 leaves next to two cold cells
// with 2 leaves each.  plan_shards must (a) be deterministic, (b) split the
// hot subtree across shards instead of letting it serialize every window,
// and (c) the resulting partition must keep every observable worker-count
// invariant.
TEST(ShardedEngine, PlannerSplitsHotCellDeterministically) {
  register_all_messages();
  struct Reflector final : public Node {
    using Node::Node;
    std::int64_t budget = 0;
    void on_message(const Envelope& env) override {
      if (budget-- > 0) send(env.from, MessagePtr(env.msg->clone()));
    }
  };
  LinkProfile trunk;
  trunk.latency = SimDuration::micros(2'000);
  LinkProfile drop;
  drop.latency = SimDuration::micros(1'000);

  struct Edge {
    NodeId leaf;
    NodeId relay;
  };
  auto build = [&](Network& net, std::vector<Edge>& edges) {
    auto& hub = net.add<Reflector>("hub");
    (void)hub;
    const unsigned kLeaves[] = {12, 2, 2};
    for (unsigned c = 0; c < 3; ++c) {
      auto& relay = net.add<Reflector>("relay" + std::to_string(c));
      relay.budget = 1'000'000;
      net.connect(relay, hub, trunk);
      for (unsigned l = 0; l < kLeaves[c]; ++l) {
        auto& leaf = net.add<Reflector>(
            "leaf" + std::to_string(c) + "_" + std::to_string(l));
        leaf.budget = 8;
        net.connect(leaf, relay, drop);
        edges.push_back({leaf.id(), relay.id()});
      }
    }
  };

  std::vector<std::vector<std::vector<NodeId>>> plans;
  std::vector<std::string> traces;
  std::vector<std::uint64_t> delivered;
  for (unsigned w : kWorkerCounts) {
    Network net(1);
    std::vector<Edge> edges;
    build(net, edges);
    auto plan = net.plan_shards(4);
    ASSERT_GE(plan.size(), 3u);

    // The hot cell's 12 leaves must not all land in one shard.
    std::map<std::uint64_t, std::size_t> shard_of;
    for (std::size_t g = 0; g < plan.size(); ++g) {
      for (NodeId id : plan[g]) shard_of[id.value()] = g;
    }
    std::set<std::size_t> hot_shards;
    for (std::size_t l = 0; l < 12; ++l) {
      hot_shards.insert(shard_of[edges[l].leaf.value()]);
    }
    EXPECT_GE(hot_shards.size(), 2u)
        << "planner kept the hot cell whole with " << w << " workers";

    net.set_shards(plan);
    net.set_workers(w);
    plans.push_back(std::move(plan));

    // Every leaf opens an 8-bounce exchange with its relay.
    for (const Edge& e : edges) {
      net.send(e.leaf, e.relay, std::make_shared<UmPagingRequest>());
    }
    net.run_until_idle();
    delivered.push_back(net.stats().messages_delivered);
    traces.push_back(canonical(net.trace()));
  }
  ASSERT_EQ(plans.size(), kNumWorkerCounts);
  ASSERT_EQ(traces.size(), kNumWorkerCounts);
  EXPECT_FALSE(traces[0].empty());
  EXPECT_GT(delivered[0], 0u);
  for (std::size_t i = 1; i < plans.size(); ++i) {
    EXPECT_EQ(plans[0], plans[i]) << "plan is not deterministic";
    EXPECT_EQ(traces[0], traces[i])
        << "trace differs between 1 and " << kWorkerCounts[i] << " workers";
    EXPECT_EQ(delivered[0], delivered[i]);
  }
}

// --- fan-out (send_each) ------------------------------------------------------

// A paging hub: each page goes to every leaf, either as one send_each() or
// as the per-destination send() loop it must be indistinguishable from.
// The page names one leaf, whose answer makes the hub page again (and arm
// a timer that pages once more), so fan-outs start from stimulus, from
// handlers and from timers, and overlap each other and the answers.
struct FanHub final : public Node {
  using Node::Node;
  std::vector<NodeId> leaves;
  bool use_send_each = true;
  int pages_left = 0;
  std::uint64_t next_imsi = 0;
  std::weak_ptr<const Message> last_page;

  void page() {
    if (pages_left-- <= 0) return;
    auto msg = pool_message<UmPagingRequest>();
    msg->imsi = Imsi(1000 + next_imsi++ % leaves.size());
    last_page = msg;
    net().spans().open(SpanKind::kTermination, msg->correlation(), name(),
                       now());
    if (use_send_each) {
      net().send_each(id(), leaves, std::move(msg));
    } else {
      for (NodeId leaf : leaves) send(leaf, msg);
    }
  }
  void on_message(const Envelope& env) override {
    net().spans().close(SpanKind::kTermination, env.msg->correlation(),
                        SpanOutcome::kOk, now());
    page();
    set_timer(SimDuration::millis(1));
  }
  void on_timer(TimerId, std::uint64_t) override { page(); }
};

// Answers the pages that name it; may throw on its `throw_at`-th page.
struct FanLeaf final : public Node {
  FanLeaf(std::string name, Imsi own) : Node(std::move(name)), imsi(own) {}
  Imsi imsi;
  int pages = 0;
  int throw_at = -1;
  void on_message(const Envelope& env) override {
    ++net().metrics().counter("fan/pages");
    if (++pages == throw_at) throw std::runtime_error("page refused");
    const auto* page = dynamic_cast<const UmPagingRequest*>(env.msg.get());
    if (page == nullptr || page->imsi != imsi) return;
    auto rsp = pool_message<UmPagingResponse>();
    rsp->imsi = imsi;
    send(env.from, std::move(rsp));
  }
};

// What makes send_each() take the per-send path instead of the batch.
enum class FanTrigger { kNone, kFaults, kLossyLink, kJitteredLink, kMixedLatency };
// 0 = the sequential (unsharded) engine, else the sharded worker count.
constexpr unsigned kFanEngines[] = {0, 1, 2, 4};

struct FanWorld {
  std::unique_ptr<Network> net = std::make_unique<Network>(5);
  std::vector<FanHub*> hubs;
  std::vector<FanLeaf*> leaves;
};

// Two hubs and twelve leaves.  Sharded, the leaves are dealt over four
// shards (one of them the first hub's own), so every page splits into
// several destination shards whose members alternate in list order.
FanWorld make_fan_world(unsigned engine, bool use_send_each,
                        FanTrigger trigger) {
  register_all_messages();
  FanWorld w;
  Network& net = *w.net;
  for (int h = 0; h < 2; ++h) {
    w.hubs.push_back(&net.add<FanHub>("hub" + std::to_string(h)));
  }
  for (int i = 0; i < 12; ++i) {
    w.leaves.push_back(&net.add<FanLeaf>("leaf" + std::to_string(i),
                                         Imsi(1000 + static_cast<unsigned>(i))));
  }
  for (FanHub* hub : w.hubs) {
    hub->use_send_each = use_send_each;
    for (FanLeaf* leaf : w.leaves) {
      LinkProfile link;
      link.latency = SimDuration::millis(2);
      link.label = "Um";
      net.connect(*hub, *leaf, link);
      hub->leaves.push_back(leaf->id());
    }
  }
  FanHub& h0 = *w.hubs[0];
  const NodeId l5 = w.leaves[5]->id();
  LinkProfile odd = *net.link_between(h0.id(), l5);
  switch (trigger) {
    case FanTrigger::kNone:
    case FanTrigger::kFaults:
      break;
    case FanTrigger::kLossyLink:
      odd.loss_probability = 0.3;
      break;
    case FanTrigger::kJitteredLink:
      odd.jitter = SimDuration::micros(700);
      break;
    case FanTrigger::kMixedLatency:
      odd.latency = SimDuration::millis(3);
      break;
  }
  net.set_link_profile(h0.id(), l5, odd);
  if (engine != 0) {
    std::vector<std::vector<NodeId>> groups(5);
    groups[0].push_back(h0.id());
    groups[1].push_back(w.hubs[1]->id());
    for (std::size_t i = 0; i < w.leaves.size(); ++i) {
      groups[i % 4 == 0 ? 0 : 1 + i % 4].push_back(w.leaves[i]->id());
    }
    net.set_shards(groups);
    net.set_workers(engine);
  }
  if (trigger == FanTrigger::kFaults) {
    // Installed after sharding, as install_faults requires.
    FaultSchedule sched;
    MessageFault dup;
    dup.match.message = "Um_Paging_Request";
    dup.match.to = "leaf7";
    dup.match.nth = 2;
    dup.kind = FaultKind::kDuplicate;
    sched.message_faults.push_back(dup);
    MessageFault drop;
    drop.match.message = "Um_Paging_Request";
    drop.match.to = "leaf2";
    drop.match.nth = 3;
    sched.message_faults.push_back(drop);
    net.install_faults(std::move(sched));
  }
  net.spans().set_enabled(true);
  net.enable_capture({});
  return w;
}

// Every observable a fan-out could disturb.
struct FanRun {
  std::vector<std::size_t> processed;  // run_until_idle() return values
  std::string trace;                   // full text, parameter dumps included
  std::string capture;                 // btrace segment bytes
  std::string metrics;
  std::string spans;
  NetworkStats stats;
  std::uint64_t pooled_allocs = 0;
};

FanRun observe(FanWorld& w, std::vector<std::size_t> processed,
               std::uint64_t pooled_before) {
  FanRun r;
  // Counted before the trace is read: rendering decodes every delivery.
  r.pooled_allocs = message_pool_stats().pooled_allocs - pooled_before;
  r.processed = std::move(processed);
  Network& net = *w.net;
  std::ostringstream tos;
  for (const TraceEntry& e : net.trace().entries()) {
    tos << e.at.count_micros() << ' ' << e.from << ' ' << e.to << ' '
        << e.message << ' ' << e.summary << '\n';
  }
  r.trace = tos.str();
  const MetricsSnapshot snap = net.metrics_snapshot();
  std::ostringstream mos;
  write_metrics_json(mos, snap);
  r.metrics = mos.str();
  std::ostringstream sos;
  write_spans_json(sos, net.spans().spans());
  r.spans = sos.str();
  std::size_t events = 0;
  for (std::size_t p : r.processed) events += p;
  std::ostringstream cos;
  net.write_capture_segment(cos, "fan", events, snap);
  r.capture = cos.str();
  r.stats = net.stats();
  return r;
}

// Two stimulus rounds, each starting one page chain per hub and run to
// idle.
FanRun run_fan(unsigned engine, bool use_send_each, FanTrigger trigger) {
  FanWorld w = make_fan_world(engine, use_send_each, trigger);
  const std::uint64_t pooled_before = message_pool_stats().pooled_allocs;
  std::vector<std::size_t> processed;
  for (int round = 0; round < 2; ++round) {
    for (FanHub* hub : w.hubs) {
      hub->pages_left = 10;
      hub->page();
    }
    processed.push_back(w.net->run_until_idle());
  }
  return observe(w, std::move(processed), pooled_before);
}

void expect_same_run(const FanRun& each, const FanRun& loop,
                     const std::string& label) {
  EXPECT_EQ(each.processed, loop.processed) << label;
  EXPECT_EQ(each.trace, loop.trace) << label;
  EXPECT_EQ(each.capture, loop.capture) << label;
  EXPECT_EQ(each.metrics, loop.metrics) << label;
  EXPECT_EQ(each.spans, loop.spans) << label;
  EXPECT_EQ(each.stats.messages_sent, loop.stats.messages_sent) << label;
  EXPECT_EQ(each.stats.messages_delivered, loop.stats.messages_delivered)
      << label;
  EXPECT_EQ(each.stats.messages_dropped, loop.stats.messages_dropped)
      << label;
  EXPECT_EQ(each.stats.bytes_on_wire, loop.stats.bytes_on_wire) << label;
  EXPECT_EQ(each.stats.timers_fired, loop.stats.timers_fired) << label;
}

std::string fan_label(unsigned engine) {
  return engine == 0 ? std::string("sequential engine")
                     : std::to_string(engine) + " worker(s)";
}

// The batch path: every observable equals the send() loop's, on the
// sequential engine and at 1, 2 and 4 workers, with far fewer pooled
// allocations (one decode per page, not one per leaf).
TEST(ShardedEngine, FanOutMatchesPerDestinationSends) {
  std::vector<std::string> traces;
  for (unsigned engine : kFanEngines) {
    const FanRun each = run_fan(engine, true, FanTrigger::kNone);
    const FanRun loop = run_fan(engine, false, FanTrigger::kNone);
    expect_same_run(each, loop, fan_label(engine));
    EXPECT_GT(each.stats.messages_delivered, 400u);
    EXPECT_EQ(each.stats.messages_dropped, 0u);
    if (message_pool_enabled()) {
      EXPECT_LT(each.pooled_allocs * 2, loop.pooled_allocs)
          << fan_label(engine);
    }
    traces.push_back(each.trace);
  }
  // And the sharded runs stay worker-count invariant.
  for (std::size_t i = 2; i < traces.size(); ++i) {
    EXPECT_EQ(traces[1], traces[i]) << fan_label(kFanEngines[i]);
  }
}

// Each per-send decision sends send_each() down the send() loop, so the
// draws and faults land exactly where the loop puts them (a batched page
// over the lossy link would skip the loss draw; over the slower link it
// would arrive early — either shows up in the comparison).
TEST(ShardedEngine, FanOutFallbacksMatchPerDestinationSends) {
  const std::pair<FanTrigger, const char*> triggers[] = {
      {FanTrigger::kFaults, "faults installed"},
      {FanTrigger::kLossyLink, "lossy link"},
      {FanTrigger::kJitteredLink, "jittered link"},
      {FanTrigger::kMixedLatency, "mixed latencies"},
  };
  for (const auto& [trigger, what] : triggers) {
    for (unsigned engine : kFanEngines) {
      const std::string label = std::string(what) + ", " + fan_label(engine);
      const FanRun each = run_fan(engine, true, trigger);
      const FanRun loop = run_fan(engine, false, trigger);
      expect_same_run(each, loop, label);
      EXPECT_GT(each.stats.messages_delivered, 100u) << label;
      // With faults installed every fan-out is the loop, allocation for
      // allocation.  A link trigger sits on a hub0 link only, so hub1's
      // fan-outs still batch.
      if (message_pool_enabled() && trigger == FanTrigger::kFaults) {
        EXPECT_EQ(each.pooled_allocs, loop.pooled_allocs) << label;
      }
    }
  }
  // The triggers really fire: the lossy link and the faults drop pages.
  EXPECT_GT(run_fan(0, true, FanTrigger::kLossyLink).stats.messages_dropped,
            0u);
  EXPECT_GT(run_fan(0, true, FanTrigger::kFaults).stats.messages_dropped, 0u);
}

// A leaf throws in the middle of a fan-out.  run_until_idle rethrows it, and
// the pages not yet delivered are still queued: resuming delivers exactly
// what the send() loop's leftover events deliver.
TEST(ShardedEngine, FanOutHandlerThrowLeavesUndeliveredMembersQueued) {
  for (unsigned engine : kFanEngines) {
    std::vector<FanRun> runs;
    for (bool use_send_each : {true, false}) {
      FanWorld w = make_fan_world(engine, use_send_each, FanTrigger::kNone);
      FanLeaf& thrower = *w.leaves[6];
      thrower.throw_at = 3;
      const std::uint64_t pooled_before = message_pool_stats().pooled_allocs;
      for (FanHub* hub : w.hubs) {
        hub->pages_left = 10;
        hub->page();
      }
      try {
        w.net->run_until_idle();
        ADD_FAILURE() << "no exception, " << fan_label(engine);
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "page refused") << fan_label(engine);
      }
      EXPECT_FALSE(w.net->idle()) << fan_label(engine);
      const NetworkStats at_throw = w.net->stats();
      thrower.throw_at = -1;
      std::vector<std::size_t> processed{w.net->run_until_idle()};
      EXPECT_TRUE(w.net->idle());
      runs.push_back(observe(w, std::move(processed), pooled_before));
      // The delivery that threw counted as delivered; nothing was lost.
      EXPECT_LT(at_throw.messages_delivered,
                runs.back().stats.messages_delivered);
    }
    expect_same_run(runs[0], runs[1], fan_label(engine));
  }
}

// A Network destroyed with fan-outs still queued frees their records and,
// with them, the shared message: entries queued by stimulus and never run,
// entries handed to another shard but not yet delivered (the deadline
// fell between send and delivery), and an entry part-way through its
// members when a handler threw.  Link serialization is off so the fan-out
// shares the hub's own instance, which the test watches.  (The ASan job
// checks the same for leaks.)
TEST(ShardedEngine, NetworkDestroyedWithFanOutsPendingFreesThem) {
  for (unsigned engine : kFanEngines) {
    std::vector<std::weak_ptr<const Message>> pages;
    {
      FanWorld w = make_fan_world(engine, true, FanTrigger::kNone);
      w.net->set_serialize_links(false);
      FanHub& h0 = *w.hubs[0];
      FanHub& h1 = *w.hubs[1];
      // hub0 pages at 0 ms; leaf0 answers at 2 ms; at 4 ms hub0 pages
      // again, for delivery at 6 ms, past the deadline.
      h0.pages_left = 2;
      h0.page();
      w.net->run_until(SimTime::from_micros(4'500));
      EXPECT_EQ(h0.pages_left, 0) << fan_label(engine);
      pages.push_back(h0.last_page);
      h1.pages_left = 1;
      h1.page();
      pages.push_back(h1.last_page);
      EXPECT_FALSE(w.net->idle()) << fan_label(engine);
    }
    {
      FanWorld w = make_fan_world(engine, true, FanTrigger::kNone);
      w.net->set_serialize_links(false);
      w.leaves[6]->throw_at = 1;
      w.hubs[0]->pages_left = 1;
      w.hubs[0]->page();
      pages.push_back(w.hubs[0]->last_page);
      EXPECT_THROW(w.net->run_until_idle(), std::runtime_error);
      EXPECT_FALSE(w.net->idle()) << fan_label(engine);
    }
    for (const auto& page : pages) {
      EXPECT_TRUE(page.expired()) << fan_label(engine);
    }
  }
}

// --- partitioning validation ------------------------------------------------

TEST(ShardedEngine, SetShardsRejectsRunNetwork) {
  VgprsParams params;
  params.seed = 7;
  auto s = build_vgprs(params);
  s->ms[0]->power_on();
  s->settle();
  EXPECT_THROW(s->net.set_shards({{}, {s->ms[0]->id()}}), std::logic_error);
}

TEST(ShardedEngine, SetShardsRejectsDuplicateNode) {
  VgprsParams params;
  params.seed = 7;
  auto s = build_vgprs(params);
  EXPECT_THROW(
      s->net.set_shards({{s->ms[0]->id()}, {s->ms[0]->id()}}),
      std::invalid_argument);
}

TEST(ShardedEngine, SetShardsRejectsInstalledFaults) {
  VgprsParams params;
  params.seed = 7;
  auto s = build_vgprs(params);
  FaultSchedule sched;
  sched.node_outages.push_back({"VLR", SimTime::from_micros(100'000),
                                SimTime::from_micros(2'000'000)});
  s->net.install_faults(std::move(sched));
  EXPECT_THROW(s->net.set_shards({{}, {s->ms[0]->id()}}), std::logic_error);
}

TEST(ShardedEngine, ZeroLatencyCrossShardLinkIsRejected) {
  Network net(1);
  auto& a = net.add<IpRouter>("A");
  auto& b = net.add<IpRouter>("B");
  LinkProfile wire;
  wire.latency = SimDuration::zero();
  net.connect(a, b, wire);
  net.set_shards({{a.id()}, {b.id()}});
  EXPECT_THROW(net.run_until_idle(), std::logic_error);
}

}  // namespace
}  // namespace vgprs
