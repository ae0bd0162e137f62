// Thread-count invariance of the sharded engine: every principal scenario
// (Fig. 4-9, the TR 23.821 baseline, and the lost-setup fault run) is
// re-executed with the network partitioned along its topology seams and
// driven by 1, 2, 4 and 8 workers, and the canonical trace is compared
// byte-for-byte against the SAME goldens the sequential engine is pinned
// to.  A race, a mis-ordered mailbox commit, a window that admits an event
// it should not, or a shard that sat out a window it had work in all show
// up as a golden diff here.
//
// This test never regenerates goldens — test_golden_trace owns them.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gprs/ip.hpp"
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

// A node that throws mid-run on a worker thread must not wedge the window
// protocol: its worker keeps arriving at the gate, the next advance stops
// everyone, and run_until_idle rethrows the node's exception.  The engine
// stays usable: a fresh network runs to completion afterwards.
TEST(ShardedEngine, HandlerThrowMidRunIsRethrown) {
  register_all_messages();
  // Two cross-shard ping-pong pairs over four single-node shards.
  auto run = [](unsigned workers, bool fail) {
    Network net(1);
    std::vector<Relay*> r;
    std::vector<std::vector<NodeId>> groups;
    for (int i = 0; i < 4; ++i) {
      r.push_back(&net.add<Relay>("p" + std::to_string(i)));
      r.back()->remaining = 100;
      groups.push_back({r.back()->id()});
    }
    for (int i = 0; i < 4; i += 2) {
      net.connect(*r[i], *r[i + 1], LinkProfile{});
      r[i]->peer = r[i + 1]->id();
      r[i + 1]->peer = r[i]->id();
    }
    if (fail) r[1]->fail_at = 50;  // shard 1, halfway through the run
    net.set_shards(groups);
    net.set_workers(workers);
    net.send(r[0]->id(), r[1]->id(), std::make_shared<UmPagingRequest>());
    net.send(r[2]->id(), r[3]->id(), std::make_shared<UmPagingRequest>());
    net.run_until_idle();
    return net.stats().messages_delivered;
  };
  for (unsigned w : {1u, 2u, 4u}) {
    try {
      run(w, true);
      ADD_FAILURE() << "no exception at " << w << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "relay failure in p1") << w << " workers";
    }
    EXPECT_EQ(run(w, false), 402u) << w << " workers";
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
