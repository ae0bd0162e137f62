#include "sim/trace.hpp"

#include <cassert>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/message.hpp"
#include "sim/network.hpp"

namespace vgprs {

namespace {

// Arena growth a kRing recorder tolerates beyond twice its live bytes
// before compacting, so small rings do not compact on every record.
constexpr std::size_t kRingSlackBytes = 4096;

TraceRecord finish_record(const ByteWriter& arena, std::size_t start,
                          SimTime at, NodeId from, NodeId to) {
  if (arena.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("trace arena exceeds 4 GiB; clear() the trace");
  }
  return TraceRecord{at, from, to, static_cast<std::uint32_t>(start),
                     static_cast<std::uint32_t>(arena.size() - start)};
}

// Explicit entry fields are u32-length-prefixed: ByteWriter::str's u16
// prefix would wrap on a summary longer than 64 KiB.
void write_str(ByteWriter& w, std::string_view s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.raw({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

std::string_view read_str(std::span<const std::uint8_t> b, std::size_t& pos) {
  const std::size_t n = (std::size_t{b[pos]} << 24) |
                        (std::size_t{b[pos + 1]} << 16) |
                        (std::size_t{b[pos + 2]} << 8) | b[pos + 3];
  std::string_view s(reinterpret_cast<const char*>(b.data() + pos + 4), n);
  pos += 4 + n;
  return s;
}

}  // namespace

Result<TraceEntry> render_delivery(SimTime at, std::string_view from,
                                   std::string_view to,
                                   std::span<const std::uint8_t> wire) {
  auto decoded = MessageRegistry::instance().decode(wire);
  if (!decoded.ok()) return decoded.error();
  const Message& msg = *decoded.value();
  return TraceEntry{at, std::string(from), std::string(to),
                    std::string(msg.name()), msg.summary()};
}

void TraceRecorder::set_mode(TraceMode mode, std::size_t ring_capacity) {
  mode_ = mode;
  // A zero ring capacity would alias the "unbounded" sentinel below and
  // make record() grow the buffer without bound; clamp to the smallest
  // ring instead.
  if (mode == TraceMode::kRing && ring_capacity == 0) ring_capacity = 1;
  ring_capacity_ = mode == TraceMode::kRing ? ring_capacity : 0;
  records_.clear();
  records_.shrink_to_fit();
  arena_ = ByteWriter{};
  head_ = 0;
  live_bytes_ = 0;
}

void TraceRecorder::clear() {
  records_.clear();
  arena_.clear();
  head_ = 0;
  live_bytes_ = 0;
}

TraceRecord TraceRecorder::pack_delivery(ByteWriter& arena, SimTime at,
                                         NodeId from, NodeId to,
                                         const Message& msg) {
  const std::size_t start = arena.size();
  msg.encode_to(arena);
  return finish_record(arena, start, at, from, to);
}

TraceRecord TraceRecorder::pack_entry(ByteWriter& arena,
                                      const TraceEntry& entry) {
  const std::size_t start = arena.size();
  write_str(arena, entry.from);
  write_str(arena, entry.to);
  write_str(arena, entry.message);
  write_str(arena, entry.summary);
  return finish_record(arena, start, entry.at, NodeId{}, NodeId{});
}

void TraceRecorder::record(const TraceEntry& entry) {
  if (!enabled()) return;
  commit(pack_entry(arena_, entry));
}

void TraceRecorder::record_delivery(SimTime at, NodeId from, NodeId to,
                                    const Message& msg) {
  if (!enabled()) return;
  assert(network_ != nullptr);
  commit(pack_delivery(arena_, at, from, to, msg));
}

void TraceRecorder::append(TraceRecord rec,
                           std::span<const std::uint8_t> bytes) {
  if (!enabled()) return;
  const std::size_t start = arena_.size();
  arena_.raw(bytes.subspan(rec.offset, rec.length));
  commit(finish_record(arena_, start, rec.at, rec.from, rec.to));
}

void TraceRecorder::commit(const TraceRecord& rec) {
  if (ring_capacity_ == 0) {
    records_.push_back(rec);
    return;
  }
  live_bytes_ += rec.length;
  if (records_.size() < ring_capacity_) {
    records_.push_back(rec);
  } else {
    live_bytes_ -= records_[head_].length;
    records_[head_] = rec;
    head_ = (head_ + 1) % ring_capacity_;
  }
  if (arena_.size() > 2 * live_bytes_ + kRingSlackBytes) compact();
}

void TraceRecorder::compact() {
  ByteWriter fresh;
  fresh.reserve(2 * live_bytes_ + kRingSlackBytes);
  std::vector<TraceRecord> ordered;
  ordered.reserve(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    TraceRecord rec = at(i);
    const std::size_t start = fresh.size();
    fresh.raw(bytes_of(rec));
    rec.offset = static_cast<std::uint32_t>(start);
    ordered.push_back(rec);
  }
  arena_ = std::move(fresh);
  records_ = std::move(ordered);
  head_ = 0;
}

std::span<const std::uint8_t> TraceRecorder::bytes_of(
    const TraceRecord& rec) const {
  return std::span<const std::uint8_t>(arena_.data())
      .subspan(rec.offset, rec.length);
}

TraceRecorder::Names TraceRecorder::names_of(const TraceRecord& rec) const {
  const std::span<const std::uint8_t> b = bytes_of(rec);
  if (!rec.from.valid()) {
    Names n;
    std::size_t pos = 0;
    n.from = read_str(b, pos);
    n.to = read_str(b, pos);
    n.message = read_str(b, pos);
    return n;
  }
  const auto type = static_cast<std::uint16_t>((b[0] << 8) | b[1]);
  return Names{network_->node(rec.from)->name(),
               network_->node(rec.to)->name(),
               MessageRegistry::instance().name_of(type)};
}

TraceEntry TraceRecorder::entry(std::size_t i) const {
  const TraceRecord& rec = at(i);
  const std::span<const std::uint8_t> b = bytes_of(rec);
  if (!rec.from.valid()) {
    std::size_t pos = 0;
    TraceEntry e;
    e.at = rec.at;
    e.from = read_str(b, pos);
    e.to = read_str(b, pos);
    e.message = read_str(b, pos);
    e.summary = read_str(b, pos);
    return e;
  }
  const Names n = names_of(rec);
  Result<TraceEntry> e = render_delivery(rec.at, n.from, n.to, b);
  if (e.ok()) return std::move(e).value();
  // Only a message that never crossed a serialized link can fail here (a
  // delivered decode always re-decodes); keep what the wire type says.
  return TraceEntry{rec.at, std::string(n.from), std::string(n.to),
                    std::string(n.message),
                    "<undecodable: " + e.error().to_string() + ">"};
}

std::vector<TraceEntry> TraceRecorder::entries() const {
  std::vector<TraceEntry> out;
  out.reserve(records_.size());
  for_each([&](TraceEntry e) { out.push_back(std::move(e)); });
  return out;
}

bool TraceRecorder::matches(const Names& n, const FlowStep& s) {
  if (!s.from.empty() && n.from != s.from) return false;
  if (!s.to.empty() && n.to != s.to) return false;
  if (!s.message.empty() && n.message != s.message) return false;
  return true;
}

std::size_t TraceRecorder::count(std::string_view message) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (names_of(at(i)).message == message) ++n;
  }
  return n;
}

std::size_t TraceRecorder::count(const FlowStep& step) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (matches(names_of(at(i)), step)) ++n;
  }
  return n;
}

bool TraceRecorder::contains_flow(const std::vector<FlowStep>& steps,
                                  std::size_t* failed_step) const {
  std::size_t next = 0;
  for (std::size_t i = 0; i < records_.size() && next < steps.size(); ++i) {
    if (matches(names_of(at(i)), steps[next])) ++next;
  }
  if (failed_step != nullptr) *failed_step = next;
  return next == steps.size();
}

std::optional<SimTime> TraceRecorder::first_time(
    std::string_view message) const {
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (names_of(at(i)).message == message) return at(i).at;
  }
  return std::nullopt;
}

std::optional<SimTime> TraceRecorder::last_time(
    std::string_view message) const {
  for (std::size_t i = records_.size(); i-- > 0;) {
    if (names_of(at(i)).message == message) return at(i).at;
  }
  return std::nullopt;
}

std::string TraceRecorder::to_string(std::size_t max_entries) const {
  std::ostringstream os;
  const std::size_t n = std::min(records_.size(), max_entries);
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEntry e = entry(i);
    char line[256];
    std::snprintf(line, sizeof line, "%10.3f ms  %-14s -> %-14s  %s",
                  e.at.as_millis(), e.from.c_str(), e.to.c_str(),
                  e.summary.c_str());
    os << line << '\n';
  }
  if (n < records_.size()) {
    os << "  ... (" << (records_.size() - n) << " more)\n";
  }
  return os.str();
}

}  // namespace vgprs
