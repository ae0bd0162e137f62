// Allocation regression tests for the pooled steady state.
//
// The tentpole claim is that sharded dispatch is allocation-free once warm:
// message objects and shared_ptr control blocks come from the per-thread
// message pool, events recycle inside each shard's heap storage, and
// cross-shard hand-off reuses the capacity of the per-window mailboxes.
// Two layers of pinning:
//
//  * a global operator-new interposer counts heap allocations during a
//    warmed-up 2-shard ping-pong — the count per 10k delivered events must
//    stay inside a small slack (thread start-up, late container growth);
//  * on the real vGPRS sharded call mix, the message-pool statistics
//    (chunks, reserved bytes, oversize fallbacks) must be flat across
//    call waves once the first wave has warmed the pool;
//  * a BTS page costs the same allocations whatever the number of MSs
//    camped on the cell (one fan-out, not one message per MS).
//
// Both gates are skipped when the pool runs in sanitizer passthrough mode
// (message_pool_enabled() == false): then every message *is* a fresh heap
// allocation, by design, so the sanitizer can see it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "gsm/bts.hpp"
#include "gsm/mobile_station.hpp"
#include "sim/arena.hpp"
#include "sim/export.hpp"
#include "vgprs/scenario.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void count_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

// Replaceable global allocation functions (C++20 [new.delete]): same
// malloc-backed behaviour as the defaults, plus the steady-state counter.
void* operator new(std::size_t n) {
  count_alloc();
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  count_alloc();
  const std::size_t align = static_cast<std::size_t>(al);
  const std::size_t size = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size != 0 ? size : align)) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
// The deletes stay out of line: inlined into a caller that used `new`,
// their std::free trips GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace vgprs {
namespace {

struct Echo final : public Node {
  using Node::Node;
  NodeId peer;
  std::int64_t remaining = 0;
  void on_message(const Envelope&) override {
    if (remaining-- > 0) send(peer, pool_message<UmPagingRequest>());
  }
};

TEST(AllocRegression, ShardedPingPongSteadyStateIsAllocationFree) {
  if (!message_pool_enabled()) {
    GTEST_SKIP() << "message pool in sanitizer passthrough mode";
  }
  register_all_messages();
  Network net(1);
  net.trace().set_mode(TraceMode::kDisabled);
  auto& a = net.add<Echo>("a");
  auto& b = net.add<Echo>("b");
  net.connect(a, b, LinkProfile{});
  a.peer = b.id();
  b.peer = a.id();
  net.set_shards({{a.id()}, {b.id()}});
  net.set_workers(2);

  // Warm-up: grows the shard heaps, mailboxes, pool chunks and worker
  // threads to steady-state capacity.
  a.remaining = b.remaining = 2000;
  net.send(a.id(), b.id(), pool_message<UmPagingRequest>());
  net.run_until_idle();

  // Timed region: 10k further deliveries through the same warm machinery.
  const std::uint64_t before_delivered = net.stats().messages_delivered;
  a.remaining = b.remaining = 5000;
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  net.send(a.id(), b.id(), pool_message<UmPagingRequest>());
  net.run_until_idle();
  g_counting.store(false, std::memory_order_release);

  const std::uint64_t delivered =
      net.stats().messages_delivered - before_delivered;
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed);
  ASSERT_GT(delivered, 10000u);
  // Zero allocations per delivered event, with a fixed slack for one-off
  // costs inside the run (worker thread start-up, a straggling container
  // doubling).  Anything proportional to the event count blows well past
  // this.
  EXPECT_LE(allocs, 64u)
      << allocs << " heap allocations across " << delivered
      << " steady-state deliveries";
}

TEST(AllocRegression, CallMixPoolStatsAreFlatAcrossWaves) {
  if (!message_pool_enabled()) {
    GTEST_SKIP() << "message pool in sanitizer passthrough mode";
  }
  VgprsParams params;
  params.num_ms = 64;
  params.num_cells = 4;
  params.bsc_channels = 256;
  params.seed = 11;
  params.sharded = true;
  params.workers = 2;
  auto s = build_vgprs(params);
  s->net.trace().set_mode(TraceMode::kDisabled);
  for (auto* ms : s->ms) ms->power_on();
  s->settle();
  ASSERT_EQ(s->vmsc->ready_count(), params.num_ms);

  auto wave = [&] {
    for (std::size_t p = 0; p < s->ms.size() / 2; ++p) {
      s->ms[2 * p]->dial(s->ms[2 * p + 1]->config().msisdn);
    }
    s->settle();
    for (std::size_t p = 0; p < s->ms.size() / 2; ++p) {
      s->ms[2 * p]->hangup();
    }
    s->settle();
  };

  wave();  // warm the pool to the mix's working set
  const MessagePoolStats warm = message_pool_stats();
  EXPECT_GT(warm.pooled_allocs, 0u) << "call mix bypassed the message pool";
  for (int i = 0; i < 3; ++i) wave();
  const MessagePoolStats after = message_pool_stats();

  // Steady state recycles: no new chunks, no new reserved bytes, and no
  // drift toward the oversize fallback path.
  EXPECT_EQ(after.chunks, warm.chunks);
  EXPECT_EQ(after.bytes_reserved, warm.bytes_reserved);
  EXPECT_EQ(after.oversize_allocs, warm.oversize_allocs);
  EXPECT_GT(after.pooled_allocs, warm.pooled_allocs);
}

struct Sink final : public Node {
  using Node::Node;
  void on_message(const Envelope&) override {}
};

// A page reaches every MS camped on the cell, each in its own delivery, but
// it is one message, one wire round-trip, one fan-out record and one member
// list: neither the pooled nor the global-heap allocations of a page may
// grow with the cell.  The paged IMSI belongs to nobody, so the MSs (all
// powered off) only receive it.
TEST(AllocRegression, PageAllocationsDoNotDependOnCellSize) {
  if (!message_pool_enabled()) {
    GTEST_SKIP() << "message pool in sanitizer passthrough mode";
  }
  register_all_messages();
  struct PageCost {
    std::uint64_t pooled = 0;
    std::uint64_t heap = 0;
  };
  auto page_cost = [](std::size_t camped) {
    Network net(1);
    net.trace().set_mode(TraceMode::kDisabled);
    auto& bsc = net.add<Sink>("BSC");
    auto& bts = net.add<Bts>("BTS", CellId(101), LocationAreaId(10), "BSC");
    net.connect(bsc, bts, LinkProfile{});
    for (std::size_t i = 0; i < camped; ++i) {
      MobileStation::Config mc;
      mc.imsi = Imsi(2000 + i);
      mc.bts_name = "BTS";
      auto& ms = net.add<MobileStation>("MS" + std::to_string(i), mc);
      net.connect(ms, bts, LinkProfile{});
    }
    auto page = [&] {
      auto msg = pool_message<AbisPaging>();
      msg->imsi = Imsi(999);
      net.send(bsc.id(), bts.id(), std::move(msg));
      return net.run_until_idle();
    };
    page();  // warm the heap, the BTS member buffer and the pool lists
    PageCost cost;
    const std::uint64_t pooled_before = message_pool_stats().pooled_allocs;
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_release);
    const std::size_t events = page();
    g_counting.store(false, std::memory_order_release);
    cost.heap = g_allocs.load(std::memory_order_relaxed);
    cost.pooled = message_pool_stats().pooled_allocs - pooled_before;
    EXPECT_EQ(events, camped + 1) << camped << " MSs";
    return cost;
  };
  const PageCost small = page_cost(64);
  const PageCost large = page_cost(512);
  EXPECT_EQ(small.pooled, large.pooled);
  EXPECT_EQ(small.heap, large.heap);
  EXPECT_GT(small.pooled, 0u);
  EXPECT_LE(small.pooled, 8u);
}

}  // namespace
}  // namespace vgprs
