// TraceRecorder captures every message delivery so tests can assert that a
// procedure's message flow matches the paper's figures step by step, and so
// benches can print the flows the way the paper draws them.
//
// Recording is packed and rendering happens on read.  A delivery is stored
// as a 24-byte TraceRecord — time, the two endpoint NodeIds, and the offset
// and length of the delivered message's wire image, which encode_to()
// appends to a recorder-owned byte arena.  No node name, message name or
// summary string is built while the simulation runs.  Readers that need
// text (for_each, entries, to_string, the JSONL/Perfetto exports) get
// TraceEntry values rendered by render_delivery(): node names from the
// owning Network, name and summary from a MessageRegistry decode of the
// image.  btrace's offline decoder calls the same function, so live and
// decoded traces agree byte for byte.  The matchers (count, contains_flow,
// first_time, last_time) compare the wire type's registered name and the
// node names in place and never decode.
//
// record(TraceEntry) stays for fault annotations and direct callers: the
// entry's four strings go into the arena as one record with no endpoints.
//
// Three modes:
//   kFull     — every delivery kept, in order (default; what flow tests use)
//   kRing     — only the last N deliveries kept (long soak runs: bounded
//               memory, still a useful post-mortem window); the arena is
//               compacted as records fall out, so its bytes stay bounded too
//   kDisabled — nothing is recorded and enabled() is false, so the hot path
//               skips the record entirely
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "sim/node.hpp"
#include "sim/time.hpp"

namespace vgprs {

class Network;

struct TraceEntry {
  SimTime at;
  std::string from;
  std::string to;
  std::string message;   // message name
  std::string summary;   // parameter dump
};

/// One expected hop of a message flow: `from --message--> to`.
/// Empty strings act as wildcards.
struct FlowStep {
  std::string from;
  std::string message;
  std::string to;
};

enum class TraceMode : std::uint8_t { kFull, kRing, kDisabled };

/// One recorded delivery, or (with `from` invalid) one explicit entry whose
/// four strings are stored in the arena.  `offset`/`length` locate the
/// record's bytes in the arena that owns it.
struct TraceRecord {
  SimTime at;
  NodeId from;
  NodeId to;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
};

/// Renders one delivery from its endpoint names and the delivered message's
/// wire image (u16 wire type + payload).  The live TraceRecorder and the
/// btrace decoder both render through this, so their traces match.
[[nodiscard]] Result<TraceEntry> render_delivery(
    SimTime at, std::string_view from, std::string_view to,
    std::span<const std::uint8_t> wire);

class TraceRecorder {
 public:
  /// `network` names delivery endpoints when the trace is read; a recorder
  /// without one holds only record(TraceEntry) entries.
  explicit TraceRecorder(const Network* network = nullptr)
      : network_(network) {}

  /// Switches recording mode; drops anything already recorded.  A kRing
  /// capacity of 0 is clamped to 1 (0 is the internal "unbounded"
  /// sentinel and would otherwise disable the ring bound entirely).
  void set_mode(TraceMode mode, std::size_t ring_capacity = 256);
  [[nodiscard]] TraceMode mode() const { return mode_; }
  /// True when recording keeps entries — the dispatch path checks this
  /// before packing a delivery.
  [[nodiscard]] bool enabled() const { return mode_ != TraceMode::kDisabled; }

  /// Appends a delivery's packed record to `arena`: the message's wire
  /// image and nothing else.  Used directly by sharded dispatch, whose
  /// per-shard buffers are merged through append().
  static TraceRecord pack_delivery(ByteWriter& arena, SimTime at, NodeId from,
                                   NodeId to, const Message& msg);
  /// Appends an explicit entry's four strings to `arena`.
  static TraceRecord pack_entry(ByteWriter& arena, const TraceEntry& entry);

  void record(const TraceEntry& entry);
  void record_delivery(SimTime at, NodeId from, NodeId to, const Message& msg);
  /// Records `rec`, whose bytes live in `bytes` (another arena).
  void append(TraceRecord rec, std::span<const std::uint8_t> bytes);

  /// Drops every entry; the arena keeps its capacity.
  void clear();

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  /// Bytes held by the arena (kRing keeps this bounded).
  [[nodiscard]] std::size_t arena_bytes() const { return arena_.size(); }

  /// Renders the i-th entry, oldest first.
  [[nodiscard]] TraceEntry entry(std::size_t i) const;
  /// The whole trace rendered, oldest first.
  [[nodiscard]] std::vector<TraceEntry> entries() const;

  /// Visits rendered entries oldest-first in any mode.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < records_.size(); ++i) f(entry(i));
  }

  /// Number of deliveries of the named message (any endpoints).
  [[nodiscard]] std::size_t count(std::string_view message) const;

  /// Number of deliveries matching the (possibly wildcarded) step.
  [[nodiscard]] std::size_t count(const FlowStep& step) const;

  /// True if `steps` occur in order as a subsequence of the trace
  /// (other messages may be interleaved — the figures show the principal
  /// messages, not every ack).  On failure returns the index of the first
  /// unmatched step via `failed_step`.
  [[nodiscard]] bool contains_flow(const std::vector<FlowStep>& steps,
                                   std::size_t* failed_step = nullptr) const;

  /// Time of the first delivery of `message`, if any.
  [[nodiscard]] std::optional<SimTime> first_time(
      std::string_view message) const;
  [[nodiscard]] std::optional<SimTime> last_time(
      std::string_view message) const;

  /// Renders the trace as an aligned message-sequence listing.
  [[nodiscard]] std::string to_string(std::size_t max_entries = 200) const;

 private:
  /// A record's endpoint and message names, viewed in place.
  struct Names {
    std::string_view from;
    std::string_view to;
    std::string_view message;
  };

  [[nodiscard]] const TraceRecord& at(std::size_t i) const {
    return records_[(head_ + i) % records_.size()];
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes_of(
      const TraceRecord& rec) const;
  [[nodiscard]] Names names_of(const TraceRecord& rec) const;
  static bool matches(const Names& n, const FlowStep& s);
  /// Stores a record whose bytes were just appended to arena_.
  void commit(const TraceRecord& rec);
  /// Rewrites the arena to hold only the live records' bytes (kRing).
  void compact();

  const Network* network_;
  ByteWriter arena_;
  std::vector<TraceRecord> records_;
  std::size_t head_ = 0;           // oldest record (ring mode)
  std::size_t ring_capacity_ = 0;  // 0 = unbounded (full mode)
  std::size_t live_bytes_ = 0;     // arena bytes the records reference
  TraceMode mode_ = TraceMode::kFull;
};

}  // namespace vgprs
