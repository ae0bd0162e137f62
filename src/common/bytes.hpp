// Bounds-checked big-endian byte stream reader/writer used by every
// protocol codec.  Messages are serialized when they cross simulated links,
// so a codec bug corrupts live flows rather than only failing unit tests.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"

namespace vgprs {

class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  /// IEEE-754 double, bit-exact (the binary trace's metric records must
  /// round-trip values the JSON exporters then format identically).
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Length-prefixed (u16) byte blob.
  void bytes(std::span<const std::uint8_t> data) {
    u16(static_cast<std::uint16_t>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  /// Unprefixed bytes, appended as they are.
  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  /// Length-prefixed (u16) UTF-8 string.
  void str(std::string_view s) {
    u16(static_cast<std::uint16_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void imsi(const Imsi& v) {
    u64(v.value());
    u8(v.digits());
  }
  void tmsi(const Tmsi& v) { u32(v.value()); }
  void msisdn(const Msisdn& v) {
    u64(v.value());
    u8(v.digits());
  }
  void msrn(const Msrn& v) { u64(v.value()); }
  void ip(const IpAddress& v) { u32(v.value()); }
  void transport(const TransportAddress& v) {
    ip(v.ip());
    u16(v.port());
  }
  void lai(const LocationAreaId& v) { u32(v.code()); }
  void cell(const CellId& v) { u32(v.code()); }
  void teid(const TunnelId& v) { u32(v.value()); }
  void nsapi(const Nsapi& v) { u8(v.value()); }
  void call_ref(const CallRef& v) { u32(v.value()); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  /// Drops the contents but keeps the capacity, so a long-lived writer
  /// (e.g. the Network's per-send scratch buffer) stops allocating once it
  /// has seen the largest message.
  void clear() { buf_.clear(); }
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// True when the whole buffer was consumed without error.
  [[nodiscard]] bool exhausted() const { return !failed_ && remaining() == 0; }

  std::uint8_t u8() {
    if (!require(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() {
    if (!require(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(
        (std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t hi = u16();
    std::uint32_t lo = u16();
    return (hi << 16) | lo;
  }
  std::uint64_t u64() {
    std::uint64_t hi = u32();
    std::uint64_t lo = u32();
    return (hi << 32) | lo;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::vector<std::uint8_t> bytes() {
    std::uint16_t n = u16();
    if (!require(n)) return {};
    std::vector<std::uint8_t> out(data_.begin() + static_cast<long>(pos_),
                                  data_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return out;
  }
  std::string str() {
    std::uint16_t n = u16();
    if (!require(n)) return {};
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  Imsi imsi() {
    std::uint64_t v = u64();
    std::uint8_t d = u8();
    return Imsi(v, d);
  }
  Tmsi tmsi() { return Tmsi(u32()); }
  Msisdn msisdn() {
    std::uint64_t v = u64();
    std::uint8_t d = u8();
    return Msisdn(v, d);
  }
  Msrn msrn() { return Msrn(u64()); }
  IpAddress ip() { return IpAddress(u32()); }
  TransportAddress transport() {
    IpAddress a = ip();
    std::uint16_t p = u16();
    return TransportAddress(a, p);
  }
  LocationAreaId lai() { return LocationAreaId(u32()); }
  CellId cell() { return CellId(u32()); }
  TunnelId teid() { return TunnelId(u32()); }
  Nsapi nsapi() { return Nsapi(u8()); }
  CallRef call_ref() { return CallRef(u32()); }
  /// Booleans have exactly two legal wire values; anything else is a
  /// non-canonical encoding and must be refused, not normalized (otherwise
  /// decode -> re-encode changes bytes and relays corrupt the stream).
  bool boolean() {
    std::uint8_t v = u8();
    if (v > 1) bad_value_ = true;
    return v != 0;
  }

  /// Marks the current field as out-of-domain (for enum range checks in
  /// payload decoders).
  void mark_bad_value() { bad_value_ = true; }

  [[nodiscard]] Status status() const {
    if (failed_) return Status(ErrorCode::kDecodeTruncated, "short buffer");
    if (bad_value_) {
      return Status(ErrorCode::kDecodeBadValue, "field value out of domain");
    }
    return Status::ok_status();
  }

 private:
  bool require(std::size_t n) {
    if (failed_ || remaining() < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  bool bad_value_ = false;
};

/// Hex dump helper for traces and debugging.
std::string hex_dump(std::span<const std::uint8_t> data,
                     std::size_t max_bytes = 64);

}  // namespace vgprs
