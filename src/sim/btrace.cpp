#include "sim/btrace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "sim/message.hpp"

namespace vgprs {

namespace {

// Chunk granularity of the per-shard ring.  Records never span chunks, so
// ring eviction (dropping the oldest chunk) always drops whole records.
constexpr std::size_t kChunkBytes = 64 * 1024;

void append_key(ByteWriter& w, const DispatchKey& key) {
  w.u64(static_cast<std::uint64_t>(key.at.count_micros()));
  w.u64(static_cast<std::uint64_t>(key.sent_at.count_micros()));
  w.u64(key.seq);
  w.u32(key.sub);
}

DispatchKey read_key(ByteReader& r) {
  DispatchKey key;
  key.at = SimTime::from_micros(static_cast<std::int64_t>(r.u64()));
  key.sent_at = SimTime::from_micros(static_cast<std::int64_t>(r.u64()));
  key.seq = r.u64();
  key.sub = r.u32();
  return key;
}

std::string record_context(std::uint64_t index, std::uint8_t kind,
                           std::size_t offset, const char* what) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "record %llu (kind 0x%02X) at offset %zu: %s",
                static_cast<unsigned long long>(index), kind, offset, what);
  return buf;
}

}  // namespace

void append_btrace_record(std::vector<std::uint8_t>& dst, BtraceRecord kind,
                          std::span<const std::uint8_t> payload) {
  dst.push_back(kBtraceMagic);
  dst.push_back(kBtraceVersion);
  dst.push_back(static_cast<std::uint8_t>(kind));
  dst.push_back(0);
  const auto len = static_cast<std::uint32_t>(payload.size());
  dst.push_back(static_cast<std::uint8_t>(len >> 24));
  dst.push_back(static_cast<std::uint8_t>(len >> 16));
  dst.push_back(static_cast<std::uint8_t>(len >> 8));
  dst.push_back(static_cast<std::uint8_t>(len));
  dst.insert(dst.end(), payload.begin(), payload.end());
}

// --- BtraceShardBuffer ------------------------------------------------------

void BtraceShardBuffer::configure(std::size_t ring_bytes) {
  clear();
  ring_bytes_ = ring_bytes;
  // Eviction retires whole chunks, and the chunk being written is never
  // evicted — so a bounded ring needs several chunks inside the bound or a
  // small bound would never evict at all.  Target ~4 chunks per ring, with
  // a floor big enough that typical records don't each force a fresh chunk.
  chunk_bytes_ = ring_bytes == 0
                     ? kChunkBytes
                     : std::min(kChunkBytes,
                                std::max<std::size_t>(256, ring_bytes / 4));
  dropped_records_ = 0;
  dropped_bytes_ = 0;
}

void BtraceShardBuffer::clear() {
  for (Chunk& c : chunks_) {
    c.data.clear();
    c.records = 0;
    free_.push_back(std::move(c));
  }
  chunks_.clear();
  bytes_ = 0;
}

BtraceShardBuffer::Chunk& BtraceShardBuffer::chunk_for(
    std::size_t record_bytes) {
  // Size check, not capacity check: recycled chunks keep whatever capacity
  // they grew to, and overfilling one would stretch the eviction granularity
  // past what configure() chose for the ring bound.
  const std::size_t target = chunk_bytes_ == 0 ? kChunkBytes : chunk_bytes_;
  if (!chunks_.empty() &&
      chunks_.back().data.size() + record_bytes <= target) {
    return chunks_.back();
  }
  Chunk fresh;
  if (!free_.empty()) {
    fresh = std::move(free_.back());
    free_.pop_back();
  }
  fresh.data.reserve(std::max(target, record_bytes));
  chunks_.push_back(std::move(fresh));
  return chunks_.back();
}

void BtraceShardBuffer::commit(BtraceRecord kind) {
  const std::size_t total = kBtraceHeaderSize + scratch_.size();
  Chunk& chunk = chunk_for(total);
  append_btrace_record(chunk.data, kind, scratch_.data());
  ++chunk.records;
  bytes_ += total;
  // Ring bound: retire whole chunks of oldest records.  The chunk being
  // written is never evicted, so the newest record always survives.
  while (ring_bytes_ != 0 && bytes_ > ring_bytes_ && chunks_.size() > 1) {
    Chunk& oldest = chunks_.front();
    bytes_ -= oldest.data.size();
    dropped_bytes_ += oldest.data.size();
    dropped_records_ += oldest.records;
    oldest.data.clear();
    oldest.records = 0;
    free_.push_back(std::move(oldest));
    chunks_.pop_front();
  }
}

void BtraceShardBuffer::trace(const DispatchKey& key, std::uint32_t from,
                              std::uint32_t to, const Message& msg) {
  scratch_.clear();
  append_key(scratch_, key);
  scratch_.u32(from);
  scratch_.u32(to);
  msg.encode_to(scratch_);
  commit(BtraceRecord::kTrace);
}

void BtraceShardBuffer::fault(const DispatchKey& key, SimTime at,
                              std::string_view from, std::string_view to,
                              std::string_view what, std::string_view detail) {
  scratch_.clear();
  append_key(scratch_, key);
  scratch_.u64(static_cast<std::uint64_t>(at.count_micros()));
  scratch_.str(from);
  scratch_.str(to);
  scratch_.str(what);
  scratch_.str(detail);
  commit(BtraceRecord::kFault);
}

void BtraceShardBuffer::drain_to(std::vector<std::uint8_t>& out) const {
  for (const Chunk& c : chunks_) {
    out.insert(out.end(), c.data.begin(), c.data.end());
  }
}

// --- SpanCaptureLog ---------------------------------------------------------

void SpanCaptureLog::on_span_op(const SpanTracker::Op& op) {
  scratch_.clear();
  switch (op.op) {
    case SpanTracker::OpKind::kOpen:
      scratch_.u64(static_cast<std::uint64_t>(op.at.count_micros()));
      scratch_.u8(static_cast<std::uint8_t>(op.kind));
      scratch_.u64(op.correlation);
      scratch_.str(op.opener);
      append_btrace_record(buf_, BtraceRecord::kSpanOpen, scratch_.data());
      return;
    case SpanTracker::OpKind::kClose:
      scratch_.u64(static_cast<std::uint64_t>(op.at.count_micros()));
      scratch_.u8(static_cast<std::uint8_t>(op.kind));
      scratch_.u8(static_cast<std::uint8_t>(op.outcome));
      scratch_.u64(op.correlation);
      append_btrace_record(buf_, BtraceRecord::kSpanClose, scratch_.data());
      return;
    case SpanTracker::OpKind::kAttribute:
      scratch_.u64(op.correlation);
      append_btrace_record(buf_, BtraceRecord::kSpanAttr, scratch_.data());
      return;
  }
}

void write_btrace_file_info(std::ostream& out, std::string_view scenario,
                            std::uint64_t seed, std::uint32_t iters) {
  ByteWriter p;
  p.str(scenario);
  p.u64(seed);
  p.u32(iters);
  std::vector<std::uint8_t> blob;
  append_btrace_record(blob, BtraceRecord::kFileInfo, p.data());
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
}

// --- offline decode ---------------------------------------------------------

namespace {

struct TraceRec {
  DispatchKey key;
  bool fault = false;
  std::span<const std::uint8_t> payload;
  std::uint64_t index = 0;    // record ordinal, for diagnostics
  std::size_t offset = 0;
};

struct RawSegment {
  std::string system;
  std::uint32_t num_shards = 0;
  std::map<std::uint32_t, std::string> nodes;
  std::map<std::uint16_t, std::string> msg_names;
  std::vector<DecodedShard> shards;
  std::vector<TraceRec> trace;
  std::vector<SpanTracker::Op> span_ops;
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSummary>> hists;
  bool ended = false;
  bool primary = false;
  std::uint64_t events = 0;
  std::int64_t sim_time_us = 0;
};

struct RawFile {
  BtraceInfo info;
  bool has_info = false;
  std::vector<RawSegment> segments;
  std::uint64_t records = 0;
};

/// Structural parse of one file: frames every record, validates headers,
/// parses scalar payloads eagerly and keeps trace/fault payloads as views
/// (materialized after the per-segment DispatchKey sort).
Result<RawFile> parse_file(std::span<const std::uint8_t> file) {
  RawFile out;
  RawSegment* seg = nullptr;
  bool in_shard = false;
  std::size_t offset = 0;

  auto fail = [&](ErrorCode code, std::uint8_t kind, const char* what) {
    return Error{code, record_context(out.records, kind, offset, what)};
  };

  while (offset < file.size()) {
    if (file.size() - offset < kBtraceHeaderSize) {
      return fail(ErrorCode::kDecodeTruncated, 0,
                  "truncated record header at end of file");
    }
    const std::uint8_t magic = file[offset];
    const std::uint8_t version = file[offset + 1];
    const std::uint8_t kind_raw = file[offset + 2];
    const std::uint32_t len = (std::uint32_t{file[offset + 4]} << 24) |
                              (std::uint32_t{file[offset + 5]} << 16) |
                              (std::uint32_t{file[offset + 6]} << 8) |
                              std::uint32_t{file[offset + 7]};
    if (magic != kBtraceMagic) {
      return fail(ErrorCode::kDecodeBadValue, kind_raw, "bad record magic");
    }
    if (version != kBtraceVersion) {
      return fail(ErrorCode::kDecodeBadValue, kind_raw,
                  "unsupported btrace version");
    }
    if (len > kBtraceMaxRecordBytes) {
      return fail(ErrorCode::kDecodeBadValue, kind_raw,
                  "record length exceeds format maximum");
    }
    if (file.size() - offset - kBtraceHeaderSize < len) {
      return fail(ErrorCode::kDecodeTruncated, kind_raw,
                  "record payload truncated");
    }
    const std::span<const std::uint8_t> payload =
        file.subspan(offset + kBtraceHeaderSize, len);
    const auto kind = static_cast<BtraceRecord>(kind_raw);
    ByteReader r(payload);

    auto need_segment = [&]() -> bool { return seg != nullptr; };

    switch (kind) {
      case BtraceRecord::kFileInfo: {
        if (out.has_info || out.records != 0) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "kFileInfo must be the first and only file header");
        }
        out.info.scenario = r.str();
        out.info.seed = r.u64();
        out.info.iters = r.u32();
        out.has_info = true;
        break;
      }
      case BtraceRecord::kRunBegin: {
        if (!out.has_info || seg != nullptr) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "kRunBegin outside file body or inside an open segment");
        }
        out.segments.emplace_back();
        seg = &out.segments.back();
        seg->system = r.str();
        seg->num_shards = r.u32();
        in_shard = false;
        break;
      }
      case BtraceRecord::kNodeTable: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "kNodeTable outside a segment");
        }
        const std::uint32_t count = r.u32();
        for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
          const std::uint32_t id = r.u32();
          std::string name = r.str();
          auto it = seg->nodes.find(id);
          if (it == seg->nodes.end()) {
            seg->nodes.emplace(id, std::move(name));
          } else if (it->second != name) {
            return fail(ErrorCode::kDecodeBadValue, kind_raw,
                        "conflicting node table entry");
          }
        }
        break;
      }
      case BtraceRecord::kMsgTable: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "kMsgTable outside a segment");
        }
        const std::uint32_t count = r.u32();
        for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
          const std::uint16_t wire = r.u16();
          seg->msg_names[wire] = r.str();
        }
        break;
      }
      case BtraceRecord::kShardBegin: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "kShardBegin outside a segment");
        }
        DecodedShard sh;
        sh.index = r.u32();
        sh.dropped_records = r.u64();
        sh.dropped_bytes = r.u64();
        seg->shards.push_back(sh);
        in_shard = true;
        break;
      }
      case BtraceRecord::kTrace:
      case BtraceRecord::kFault: {
        if (!need_segment() || !in_shard) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "trace record outside a shard section");
        }
        TraceRec rec;
        rec.key = read_key(r);
        rec.fault = kind == BtraceRecord::kFault;
        rec.payload = payload;
        rec.index = out.records;
        rec.offset = offset;
        if (r.failed()) {
          return fail(ErrorCode::kDecodeTruncated, kind_raw,
                      "trace record shorter than its dispatch key");
        }
        seg->trace.push_back(rec);
        // Defer the rest of the payload to materialization.
        offset += kBtraceHeaderSize + len;
        ++out.records;
        continue;
      }
      case BtraceRecord::kSpanOpen: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "span record outside a segment");
        }
        in_shard = false;
        SpanTracker::Op op;
        op.op = SpanTracker::OpKind::kOpen;
        op.at = SimTime::from_micros(static_cast<std::int64_t>(r.u64()));
        const std::uint8_t k = r.u8();
        if (k >= kSpanKindCount) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "span kind out of domain");
        }
        op.kind = static_cast<SpanKind>(k);
        op.correlation = r.u64();
        op.opener = r.str();
        seg->span_ops.push_back(std::move(op));
        break;
      }
      case BtraceRecord::kSpanClose: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "span record outside a segment");
        }
        in_shard = false;
        SpanTracker::Op op;
        op.op = SpanTracker::OpKind::kClose;
        op.at = SimTime::from_micros(static_cast<std::int64_t>(r.u64()));
        const std::uint8_t k = r.u8();
        const std::uint8_t oc = r.u8();
        if (k >= kSpanKindCount || oc > 3) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "span kind/outcome out of domain");
        }
        op.kind = static_cast<SpanKind>(k);
        op.outcome = static_cast<SpanOutcome>(oc);
        op.correlation = r.u64();
        seg->span_ops.push_back(std::move(op));
        break;
      }
      case BtraceRecord::kSpanAttr: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "span record outside a segment");
        }
        in_shard = false;
        SpanTracker::Op op;
        op.op = SpanTracker::OpKind::kAttribute;
        op.correlation = r.u64();
        seg->span_ops.push_back(std::move(op));
        break;
      }
      case BtraceRecord::kMetricCounter: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "metric record outside a segment");
        }
        in_shard = false;
        std::string name = r.str();
        const auto value = static_cast<std::int64_t>(r.u64());
        seg->counters.emplace_back(std::move(name), value);
        break;
      }
      case BtraceRecord::kMetricGauge: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "metric record outside a segment");
        }
        in_shard = false;
        std::string name = r.str();
        const double value = r.f64();
        seg->gauges.emplace_back(std::move(name), value);
        break;
      }
      case BtraceRecord::kMetricHist: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "metric record outside a segment");
        }
        in_shard = false;
        std::string name = r.str();
        HistogramSummary h;
        h.count = static_cast<std::size_t>(r.u64());
        h.min = r.f64();
        h.max = r.f64();
        h.mean = r.f64();
        h.p50 = r.f64();
        h.p95 = r.f64();
        h.p99 = r.f64();
        seg->hists.emplace_back(std::move(name), h);
        break;
      }
      case BtraceRecord::kRunEnd: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "kRunEnd outside a segment");
        }
        const std::uint8_t primary = r.u8();
        if (primary > 1) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "kRunEnd primary flag out of domain");
        }
        seg->primary = primary != 0;
        seg->events = r.u64();
        seg->sim_time_us = static_cast<std::int64_t>(r.u64());
        seg->ended = true;
        seg = nullptr;
        in_shard = false;
        break;
      }
      default:
        return fail(ErrorCode::kDecodeBadValue, kind_raw,
                    "unknown record kind");
    }
    if (!r.exhausted()) {
      return fail(r.failed() ? ErrorCode::kDecodeTruncated
                             : ErrorCode::kDecodeBadValue,
                  kind_raw,
                  r.failed() ? "payload shorter than its fields"
                             : "payload has trailing bytes");
    }
    offset += kBtraceHeaderSize + len;
    ++out.records;
  }
  if (!out.has_info) {
    return Error{ErrorCode::kDecodeTruncated,
                 "capture has no kFileInfo header (empty or not a btrace "
                 "file)"};
  }
  if (seg != nullptr) {
    return Error{ErrorCode::kDecodeTruncated,
                 "capture ends inside a run segment (missing kRunEnd)"};
  }
  return out;
}

Result<TraceEntry> materialize(const TraceRec& rec, const RawSegment& seg) {
  ByteReader r(rec.payload);
  (void)read_key(r);
  auto fail = [&](ErrorCode code, const char* what) {
    return Error{code, record_context(rec.index,
                                      rec.fault ? 0x11 : 0x10, rec.offset,
                                      what)};
  };
  if (rec.fault) {
    TraceEntry e;
    e.at = SimTime::from_micros(static_cast<std::int64_t>(r.u64()));
    e.from = r.str();
    e.to = r.str();
    e.message = r.str();
    e.summary = r.str();
    if (!r.exhausted()) {
      return fail(ErrorCode::kDecodeTruncated, "malformed fault record");
    }
    return e;
  }
  const std::uint32_t from = r.u32();
  const std::uint32_t to = r.u32();
  if (r.failed()) {
    return fail(ErrorCode::kDecodeTruncated, "malformed trace record");
  }
  const auto from_it = seg.nodes.find(from);
  const auto to_it = seg.nodes.find(to);
  if (from_it == seg.nodes.end() || to_it == seg.nodes.end()) {
    return fail(ErrorCode::kDecodeBadValue,
                "trace record references a node id missing from the node "
                "table");
  }
  Result<TraceEntry> e = render_delivery(rec.key.at, from_it->second,
                                         to_it->second,
                                         rec.payload.last(r.remaining()));
  if (!e.ok()) {
    return Error{e.error().code,
                 record_context(rec.index, 0x10, rec.offset,
                                ("wire image does not decode: " +
                                 e.error().to_string())
                                    .c_str())};
  }
  return e;
}

/// Merges per-shard files into one logical segment list.  Segments align by
/// index; exactly one file's segment must be primary.
Result<std::vector<RawSegment>> merge_files(std::vector<RawFile>& files,
                                            BtraceInfo& info) {
  info = files.front().info;
  for (const RawFile& f : files) {
    if (f.info.scenario != info.scenario || f.info.seed != info.seed ||
        f.info.iters != info.iters) {
      return Error{ErrorCode::kDecodeBadValue,
                   "per-shard capture files disagree on scenario/seed/iters"};
    }
    if (f.segments.size() != files.front().segments.size()) {
      return Error{ErrorCode::kDecodeBadValue,
                   "per-shard capture files have differing segment counts"};
    }
  }
  std::vector<RawSegment> merged;
  const std::size_t nsegs = files.front().segments.size();
  for (std::size_t s = 0; s < nsegs; ++s) {
    RawSegment out;
    std::size_t primaries = 0;
    for (RawFile& f : files) {
      RawSegment& in = f.segments[s];
      if (out.system.empty()) {
        out.system = in.system;
        out.num_shards = in.num_shards;
      } else if (in.system != out.system) {
        return Error{ErrorCode::kDecodeBadValue,
                     "per-shard capture files disagree on segment system"};
      }
      for (auto& [id, name] : in.nodes) {
        auto [it, inserted] = out.nodes.emplace(id, name);
        if (!inserted && it->second != name) {
          return Error{ErrorCode::kDecodeBadValue,
                       "per-shard capture files disagree on a node name"};
        }
      }
      out.shards.insert(out.shards.end(), in.shards.begin(), in.shards.end());
      out.trace.insert(out.trace.end(), in.trace.begin(), in.trace.end());
      if (in.primary) {
        ++primaries;
        out.span_ops = std::move(in.span_ops);
        out.counters = std::move(in.counters);
        out.gauges = std::move(in.gauges);
        out.hists = std::move(in.hists);
        out.events = in.events;
        out.sim_time_us = in.sim_time_us;
      }
    }
    if (primaries != 1) {
      return Error{ErrorCode::kDecodeBadValue,
                   "segment must have exactly one primary per-shard file"};
    }
    out.primary = true;
    out.ended = true;
    merged.push_back(std::move(out));
  }
  return merged;
}

Result<DecodedCapture> assemble(std::vector<RawSegment>& segments,
                                const BtraceInfo& info, std::uint64_t records) {
  DecodedCapture out;
  out.info = info;
  out.records = records;
  for (RawSegment& seg : segments) {
    if (!seg.primary) {
      return Error{ErrorCode::kDecodeBadValue,
                   "single-file segment is not marked primary"};
    }
    if (out.runs.empty() || out.runs.back().system != seg.system) {
      out.runs.emplace_back();
      out.runs.back().system = seg.system;
    }
    DecodedRun& run = out.runs.back();
    ++run.segments;
    run.shards.insert(run.shards.end(), seg.shards.begin(), seg.shards.end());

    // The same strict total order the sharded engine merges its per-shard
    // observability buffers in (see dispatch_key.hpp).
    std::sort(seg.trace.begin(), seg.trace.end(),
              [](const TraceRec& a, const TraceRec& b) { return a.key < b.key; });
    run.trace.reserve(run.trace.size() + seg.trace.size());
    for (const TraceRec& rec : seg.trace) {
      Result<TraceEntry> entry = materialize(rec, seg);
      if (!entry.ok()) return entry.error();
      run.trace.push_back(std::move(entry).value());
    }

    // Spans: replay the op log through a fresh tracker per segment — each
    // segment was a separate Network, so correlations must not bleed.
    SpanTracker tracker;
    tracker.set_enabled(true);
    for (const SpanTracker::Op& op : seg.span_ops) tracker.apply(op);
    run.spans.insert(run.spans.end(), tracker.spans().begin(),
                     tracker.spans().end());

    // Metric deltas: counters and gauges sum across a group's segments —
    // the same aggregation vgprs_report's fig9 loop performs with
    // MetricsRegistry::merge_from.
    for (auto& [name, v] : seg.counters) run.metrics.counters[name] += v;
    for (auto& [name, v] : seg.gauges) run.metrics.gauges[name] += v;
    for (auto& [name, h] : seg.hists) {
      HistogramSummary& dst = run.metrics.histograms[name];
      if (dst.count == 0) {
        dst = h;
      } else if (h.count != 0) {
        // Percentiles of separate segments cannot be merged exactly; keep
        // exact count/min/max and a weighted mean, latest percentiles.
        const double total = static_cast<double>(dst.count + h.count);
        dst.mean = (dst.mean * static_cast<double>(dst.count) +
                    h.mean * static_cast<double>(h.count)) /
                   total;
        dst.min = std::min(dst.min, h.min);
        dst.max = std::max(dst.max, h.max);
        dst.count += h.count;
        dst.p50 = h.p50;
        dst.p95 = h.p95;
        dst.p99 = h.p99;
      }
    }
    run.events += seg.events;
    run.sim_time_ms += static_cast<double>(seg.sim_time_us) / 1000.0;
  }
  return out;
}

}  // namespace

Result<DecodedCapture> decode_capture(std::span<const std::uint8_t> file) {
  Result<RawFile> parsed = parse_file(file);
  if (!parsed.ok()) return parsed.error();
  RawFile raw = std::move(parsed).value();
  return assemble(raw.segments, raw.info, raw.records);
}

Result<DecodedCapture> decode_capture_files(
    std::span<const std::vector<std::uint8_t>> files) {
  if (files.empty()) {
    return Error{ErrorCode::kDecodeTruncated, "no capture files to decode"};
  }
  if (files.size() == 1) return decode_capture(files.front());
  std::vector<RawFile> raws;
  raws.reserve(files.size());
  std::uint64_t records = 0;
  for (const std::vector<std::uint8_t>& f : files) {
    Result<RawFile> parsed = parse_file(f);
    if (!parsed.ok()) return parsed.error();
    records += parsed.value().records;
    raws.push_back(std::move(parsed).value());
  }
  BtraceInfo info;
  Result<std::vector<RawSegment>> merged = merge_files(raws, info);
  if (!merged.ok()) return merged.error();
  return assemble(merged.value(), info, records);
}

}  // namespace vgprs
