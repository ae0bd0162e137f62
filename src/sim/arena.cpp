#include "sim/arena.hpp"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

// Sanitizer builds bypass the recycling pool entirely (see arena.hpp).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(__SANITIZE_MEMORY__)
#define VGPRS_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define VGPRS_POOL_PASSTHROUGH 1
#endif
#endif

namespace vgprs {

namespace {

// Size classes (user-visible bytes).  A decoded signaling message is
// typically 40-200 bytes; a shared_ptr control block 24-32; the 512 top
// class still covers the fattest composite messages.  16-byte header in
// front of every block keeps the user pointer 16-aligned and names the
// class so cross-thread frees route correctly.
constexpr std::size_t kClasses[] = {32, 48, 64, 96, 128, 192, 256, 384, 512};
constexpr std::size_t kNumClasses = sizeof(kClasses) / sizeof(kClasses[0]);
constexpr std::size_t kMaxPooled = kClasses[kNumClasses - 1];
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::uint32_t kOversizeClass = 0xFFFFFFFFu;

struct BlockHeader {
  std::uint32_t size_class;  // index into kClasses, or kOversizeClass
  std::uint32_t magic;       // cheap double-free / stray-pointer guard
};
constexpr std::uint32_t kMagicLive = 0xA11C'0DEDu;
constexpr std::uint32_t kMagicFree = 0xDEAD'B10Cu;

// Slow-path counters; bumped only on chunk refill / oversize, so the atomics
// never show up in a profile.
std::atomic<std::uint64_t> g_chunks{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_oversize{0};
std::atomic<std::uint64_t> g_pooled{0};

#ifndef VGPRS_POOL_PASSTHROUGH

std::uint32_t class_of(std::size_t n) {
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    if (n <= kClasses[c]) return static_cast<std::uint32_t>(c);
  }
  return kOversizeClass;
}

struct FreeBlock {
  FreeBlock* next;
};

// Cross-thread rebalancing.  A message is usually freed on the thread that
// *received* it, not the one that allocated it, so a persistently one-sided
// cross-shard flow (one hot shard fanning out paging broadcasts, say) would
// strand ever more blocks on the consumer's list while the producer carves
// fresh chunks — unbounded growth at a chunk every few call waves.  Bound
// it: past kShedThreshold blocks the per-class thread list stops growing
// and further frees divert to a spill chain (both ends tracked, O(1), no
// walking).  Spilled blocks still serve this thread's allocations first;
// only when a full batch of kShedBatch accumulates with no local taker —
// the one-sided-consumer signature — is the chain flushed to a global
// shelf, where an allocation miss on any thread adopts it before carving.
// Every hot-path step is lock-free: the shelf mutex is touched once per
// flushed/adopted batch, never per block, and an empty shelf is detected
// with one relaxed load.
//
// The two sizes also set how fast a one-sided flow reaches that steady
// state: the producer keeps carving until kShedThreshold + kShedBatch
// blocks sit on the consumer.  A low-rate flow (a call mix's core <-> cell
// signaling, once paging no longer floods every class) took several call
// waves to fill 256 + 128 and grew a chunk on the way; 64 + 32 fills within
// the first wave, at one shelf lock per 32 spilled blocks.
constexpr std::size_t kShedThreshold = 64;
constexpr std::size_t kShedBatch = 32;

struct Shelf {
  std::mutex mu;
  FreeBlock* head[kNumClasses] = {};
  // Mirrors the per-class list length.  Written under `mu`; read lock-free
  // by the adopt fast path so an empty shelf costs one relaxed load, not a
  // mutex round-trip — the miss path runs once per burst-drained class, and
  // paying a lock there shows up directly in events/s.
  std::atomic<std::size_t> count[kNumClasses] = {};
};
/// Intentionally leaked, like the orphanage: no destruction-order hazard.
Shelf& shelf() {
  static Shelf* s = new Shelf;
  return *s;
}

/// One thread's cache: free lists per class plus the current bump chunk.
/// Pool objects are never destroyed — chunks referenced from other threads'
/// free lists must stay mapped — they are parked and re-adopted instead.
struct Pool {
  FreeBlock* free_list[kNumClasses] = {};
  std::size_t free_count[kNumClasses] = {};
  // Overflow past kShedThreshold: a second LIFO chain with its tail pinned
  // so a full batch splices onto the shelf without traversal.
  FreeBlock* spill_head[kNumClasses] = {};
  FreeBlock* spill_tail[kNumClasses] = {};
  std::size_t spill_count[kNumClasses] = {};
  std::byte* bump = nullptr;
  std::byte* bump_end = nullptr;
  std::vector<void*> chunks;
  std::uint64_t pooled_allocs = 0;

  void* carve(std::uint32_t cls) {
    const std::size_t need = kHeaderBytes + kClasses[cls];
    if (static_cast<std::size_t>(bump_end - bump) < need) {
      void* chunk = ::operator new(kChunkBytes);
      chunks.push_back(chunk);
      bump = static_cast<std::byte*>(chunk);
      bump_end = bump + kChunkBytes;
      g_chunks.fetch_add(1, std::memory_order_relaxed);
      g_bytes.fetch_add(kChunkBytes, std::memory_order_relaxed);
    }
    void* block = bump;
    bump += need;
    return block;
  }

  /// Splice the full spill chain onto the global shelf in one lock.
  void flush_spill(std::uint32_t cls) {
    Shelf& s = shelf();
    std::lock_guard<std::mutex> lock(s.mu);
    spill_tail[cls]->next = s.head[cls];
    s.head[cls] = spill_head[cls];
    s.count[cls].store(
        s.count[cls].load(std::memory_order_relaxed) + spill_count[cls],
        std::memory_order_relaxed);
    spill_head[cls] = nullptr;
    spill_tail[cls] = nullptr;
    spill_count[cls] = 0;
  }

  /// Take the shelf's whole list for this class; returns one block for the
  /// caller, the rest becomes the thread's free list.
  FreeBlock* adopt(std::uint32_t cls) {
    Shelf& s = shelf();
    // Lock-free empty check: a stale zero just delays adoption by one
    // alloc, a stale nonzero pays one uncontended lock.
    if (s.count[cls].load(std::memory_order_relaxed) == 0) return nullptr;
    std::lock_guard<std::mutex> lock(s.mu);
    FreeBlock* head = s.head[cls];
    if (head == nullptr) return nullptr;
    free_list[cls] = head->next;
    free_count[cls] = s.count[cls].load(std::memory_order_relaxed) - 1;
    s.head[cls] = nullptr;
    s.count[cls].store(0, std::memory_order_relaxed);
    return head;
  }
};

/// Parked caches of exited threads, adopted by the next thread that needs
/// one.  Intentionally leaked (raw new) so no destruction-order hazard with
/// thread-local destructors at process exit.
struct Orphanage {
  std::mutex mu;
  std::vector<Pool*> pools;
};
Orphanage& orphanage() {
  static Orphanage* o = new Orphanage;
  return *o;
}

struct TlCache {
  Pool* pool = nullptr;

  ~TlCache() {
    if (pool == nullptr) return;
    g_pooled.fetch_add(pool->pooled_allocs, std::memory_order_relaxed);
    pool->pooled_allocs = 0;
    Orphanage& o = orphanage();
    std::lock_guard<std::mutex> lock(o.mu);
    o.pools.push_back(pool);
  }

  Pool& get() {
    if (pool == nullptr) [[unlikely]] {
      Orphanage& o = orphanage();
      std::lock_guard<std::mutex> lock(o.mu);
      if (!o.pools.empty()) {
        pool = o.pools.back();
        o.pools.pop_back();
      } else {
        pool = new Pool;
      }
    }
    return *pool;
  }
};
thread_local TlCache tl_cache;

#endif  // !VGPRS_POOL_PASSTHROUGH

void* oversize_alloc(std::size_t n) {
  auto* raw = static_cast<std::byte*>(::operator new(kHeaderBytes + n));
  auto* h = reinterpret_cast<BlockHeader*>(raw);
  h->size_class = kOversizeClass;
  h->magic = kMagicLive;
  g_oversize.fetch_add(1, std::memory_order_relaxed);
  return raw + kHeaderBytes;
}

}  // namespace

void* pool_alloc(std::size_t n) {
#ifdef VGPRS_POOL_PASSTHROUGH
  return oversize_alloc(n);
#else
  const std::uint32_t cls = class_of(n);
  if (cls == kOversizeClass) [[unlikely]] {
    return oversize_alloc(n);
  }
  Pool& pool = tl_cache.get();
  void* block;
  // Spill first: once the capped list is full, the spill chain's head is
  // the most recently freed — and therefore cache-hottest — block, while
  // the list's head can be an old cold block from an adopted batch.  In
  // that regime alloc/free cycles run entirely through the spill chain in
  // pure LIFO order and never touch the shelf.
  if (FreeBlock* sp = pool.spill_head[cls]; sp != nullptr) {
    pool.spill_head[cls] = sp->next;
    if (pool.spill_head[cls] == nullptr) pool.spill_tail[cls] = nullptr;
    --pool.spill_count[cls];
    block = sp;
  } else if (FreeBlock* head = pool.free_list[cls]; head != nullptr) {
    pool.free_list[cls] = head->next;
    --pool.free_count[cls];
    block = head;
  } else if (FreeBlock* adopted = pool.adopt(cls); adopted != nullptr) {
    block = adopted;
  } else {
    block = pool.carve(cls);
  }
  ++pool.pooled_allocs;
  auto* h = static_cast<BlockHeader*>(block);
  h->size_class = cls;
  h->magic = kMagicLive;
  return static_cast<std::byte*>(block) + kHeaderBytes;
#endif
}

void pool_free(void* p) noexcept {
  if (p == nullptr) return;
  auto* block = static_cast<std::byte*>(p) - kHeaderBytes;
  auto* h = reinterpret_cast<BlockHeader*>(block);
  assert(h->magic == kMagicLive && "pool_free: bad or double-freed block");
  if (h->size_class == kOversizeClass) {
    ::operator delete(block);
    return;
  }
#ifdef VGPRS_POOL_PASSTHROUGH
  ::operator delete(block);
#else
  h->magic = kMagicFree;
  Pool& pool = tl_cache.get();
  auto* fb = reinterpret_cast<FreeBlock*>(block);
  const std::uint32_t cls = h->size_class;
  if (pool.free_count[cls] < kShedThreshold) [[likely]] {
    fb->next = pool.free_list[cls];
    pool.free_list[cls] = fb;
    ++pool.free_count[cls];
  } else {
    fb->next = pool.spill_head[cls];
    pool.spill_head[cls] = fb;
    if (pool.spill_tail[cls] == nullptr) pool.spill_tail[cls] = fb;
    if (++pool.spill_count[cls] >= kShedBatch) pool.flush_spill(cls);
  }
#endif
}

MessagePoolStats message_pool_stats() noexcept {
  MessagePoolStats s;
  s.chunks = g_chunks.load(std::memory_order_relaxed);
  s.bytes_reserved = g_bytes.load(std::memory_order_relaxed);
  s.oversize_allocs = g_oversize.load(std::memory_order_relaxed);
  s.pooled_allocs = g_pooled.load(std::memory_order_relaxed);
#ifndef VGPRS_POOL_PASSTHROUGH
  if (tl_cache.pool != nullptr) {
    s.pooled_allocs += tl_cache.pool->pooled_allocs;
  }
#endif
  return s;
}

bool message_pool_enabled() noexcept {
#ifdef VGPRS_POOL_PASSTHROUGH
  return false;
#else
  return true;
#endif
}

}  // namespace vgprs
