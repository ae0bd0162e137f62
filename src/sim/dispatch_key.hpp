// DispatchKey: the total order the sharded engine executes (and replays)
// events in.
//
// Every queued event carries (at, sent_at, seq) where `seq` packs the
// originating shard index into its top bits above a per-shard sequence
// counter.  Lexicographic comparison of that triple is a strict total
// order over all events of a run:
//
//  * `at` orders by simulated time;
//  * `sent_at` (the simulated time the originating dispatch ran) breaks
//    same-time ties the way the sequential engine's global sequence
//    counter does — a send performed earlier in simulated time allocated
//    the smaller global seq, because the counter is monotone in time;
//  * `seq` is unique (origin shard in the top bits, per-shard counter
//    below), so the order is strict even across shards.  There it can
//    differ from the sequential engine's: two events with equal
//    (at, sent_at) sent from different shards order by origin shard
//    index, where the sequential engine orders them by global send order.
//
// So a sharded run is worker-count-invariant (its order depends on the
// shard plan, never on threads), and it equals the sequential run when no
// such cross-shard tie occurs.  Every golden runs one procedure at a time
// and has none; concurrent procedures can (two calls hung up together).
//
// Observability records produced *during* one dispatch (trace entries,
// span opens/closes, fault annotations) extend the triple with `sub`, the
// record's ordinal within its dispatch, so a deterministic merge of
// per-shard buffers reproduces the order in which one thread executing
// the same event order would have recorded them.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace vgprs {

/// Bit position of the origin-shard index inside Event::seq / DispatchKey
/// ::seq.  Leaves 48 bits of per-shard sequence — enough for ~280 trillion
/// events per shard — and 16 bits of shard index.
inline constexpr unsigned kShardSeqBits = 48;

struct DispatchKey {
  SimTime at;
  SimTime sent_at;
  std::uint64_t seq = 0;  // (origin shard << kShardSeqBits) | per-shard seq
  std::uint32_t sub = 0;  // record ordinal within the dispatch

  friend constexpr bool operator<(const DispatchKey& a, const DispatchKey& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.sent_at != b.sent_at) return a.sent_at < b.sent_at;
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.sub < b.sub;
  }
};

}  // namespace vgprs
