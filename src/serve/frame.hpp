// Length-prefixed framing for the scheduling service transport.
//
// Every message crossing a connection travels inside one frame:
//
//   offset  size  field
//   0       4     magic    0x46534C44 ("DLSF" as little-endian bytes)
//   4       1     version  (kFrameVersion)
//   5       1     type     (FrameType, 1..8)
//   6       4     payload length N (little-endian; N <= kMaxFramePayload)
//   10      4     checksum (frame_checksum of the payload, little-endian)
//   14      N     payload  (a protocol/serve wire encoding, magic included)
//
// Decoding follows the codec/wire discipline: unknown magic, unsupported
// version, unknown type, oversized length, truncation and trailing bytes
// are all rejected with codec::DecodeError before any payload decode
// runs. The payload itself carries its own wire magic, so a frame whose
// type tag disagrees with its payload is caught by the payload decoder.
// Version 2 added the checksum: a payload that does not hash to the
// announced value is rejected with the typed FrameChecksumError, so
// in-flight corruption surfaces as a typed refusal, not silently wrong
// numbers. Version 3 swapped the byte-serial FNV-1a-32 for word-wise
// FNV-1a-64 folded to 32 bits — the byte loop's multiply chain capped
// framing at ~1 ns/byte, dominating the serve path on kB payloads.
//
// Truncation is reported with the typed FrameTruncationError so callers
// can tell a peer that hung up mid-frame from a header announcing more
// bytes than a captured buffer holds. read_frame_resync adds
// poison-frame recovery: on a malformed header it scans forward byte by
// byte to the next plausible boundary instead of abandoning the stream.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "codec/bytes.hpp"
#include "serve/transport.hpp"

namespace dls::serve {

/// Payload kind carried by a frame. Values are wire-stable; extend at
/// the tail only.
enum class FrameType : std::uint8_t {
  kScheduleRequest = 1,   ///< serve::ScheduleRequest
  kScheduleResponse = 2,  ///< serve::ScheduleResponse
  kBid = 3,               ///< protocol::BidMessage (Phase I)
  kAllocation = 4,        ///< protocol::AllocationMessage (Phase II)
  kReport = 5,            ///< protocol::ReportMessage (Phase III)
  kPayment = 6,           ///< protocol::PaymentMessage (Phase IV)
  kMultiScheduleRequest = 7,   ///< serve::MultiScheduleRequest
  kMultiScheduleResponse = 8,  ///< serve::MultiScheduleResponse
};

std::string to_string(FrameType type);

inline constexpr std::uint32_t kFrameMagic = 0x46534C44;  // "DLSF"
inline constexpr std::uint8_t kFrameVersion = 3;  // v3: word-wise checksum
/// Header bytes preceding the payload
/// (magic + version + type + length + checksum).
inline constexpr std::size_t kFrameHeaderSize = 14;
/// A header announcing a larger payload is rejected before allocating.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 26;

struct Frame {
  FrameType type{};
  codec::Bytes payload;
};

/// The frame header announced a version this build does not speak.
/// Carries the peer's version so a gateway can log or negotiate instead
/// of parsing it back out of the message text (v1/v2 peers are common
/// during rollouts; their version used to be lost in the what() string).
class FrameVersionError : public codec::DecodeError {
 public:
  FrameVersionError(const std::string& what, std::uint8_t received)
      : DecodeError(what), received_(received) {}

  /// The version byte the peer sent.
  std::uint8_t received() const noexcept { return received_; }
  /// The version this build speaks (kFrameVersion).
  std::uint8_t supported() const noexcept { return kFrameVersion; }

 private:
  std::uint8_t received_;
};

/// A frame ended before its announced length was reached. peer_closed()
/// distinguishes the two ways that happens:
///   true  — the stream closed mid-frame (torn write / silent
///           disconnect); the connection is finished;
///   false — a captured buffer holds fewer bytes than the header
///           announced (truncated capture or corrupted length field).
class FrameTruncationError : public codec::DecodeError {
 public:
  FrameTruncationError(const std::string& what, bool peer_closed,
                       std::size_t announced, std::size_t received)
      : DecodeError(what),
        peer_closed_(peer_closed),
        announced_(announced),
        received_(received) {}

  bool peer_closed() const noexcept { return peer_closed_; }
  std::size_t announced() const noexcept { return announced_; }
  std::size_t received() const noexcept { return received_; }

 private:
  bool peer_closed_;
  std::size_t announced_;
  std::size_t received_;
};

/// The payload arrived whole but does not hash to the checksum the
/// header announced: bytes were corrupted in flight. The stream is still
/// frame-aligned (the full announced length was consumed), so a server
/// may treat this as a poison frame and keep the connection alive.
class FrameChecksumError : public codec::DecodeError {
 public:
  FrameChecksumError(const std::string& what, std::uint32_t announced,
                     std::uint32_t computed)
      : DecodeError(what), announced_(announced), computed_(computed) {}

  std::uint32_t announced() const noexcept { return announced_; }
  std::uint32_t computed() const noexcept { return computed_; }

 private:
  std::uint32_t announced_;
  std::uint32_t computed_;
};

/// The hash the header's checksum field carries: fnv1a64_words of the
/// payload (FNV-1a-64 over little-endian 64-bit words, bytewise tail;
/// key_hash.hpp), xor-folded to 32 bits. Platform-stable. Exposed so
/// tests can craft well-formed frames by hand.
std::uint32_t frame_checksum(std::span<const std::uint8_t> payload) noexcept;

/// Frame <-> bytes. decode_frame is strict: the buffer must hold exactly
/// one well-formed frame. A buffer shorter than the announced payload
/// raises FrameTruncationError with peer_closed() == false.
codec::Bytes encode_frame(const Frame& frame);
Frame decode_frame(std::span<const std::uint8_t> data);

/// Writes one frame as a single atomic transport unit.
void write_frame(Transport& end, const Frame& frame);

/// Reads the next frame. Returns nullopt on clean EOF (the peer closed
/// between frames); throws codec::DecodeError on a malformed header,
/// FrameTruncationError (peer_closed() == true) when the stream ends
/// inside a frame, FrameChecksumError when the payload arrives whole
/// but corrupted, and TransportTimeout when `timeout_s` > 0 elapses
/// first.
std::optional<Frame> read_frame(Transport& end, double timeout_s = 0.0);

/// read_frame with poison-frame recovery: a malformed header does not
/// kill the stream — the decoder slides forward one byte at a time
/// until a plausible header lines up, discarding at most
/// `max_scan_bytes` along the way (then the original DecodeError is
/// rethrown so the caller can quarantine the connection). `skipped`
/// (optional) reports how many bytes were discarded before the
/// returned frame. Truncation and timeout behave as in read_frame.
std::optional<Frame> read_frame_resync(Transport& end,
                                       std::size_t max_scan_bytes,
                                       std::size_t* skipped = nullptr,
                                       double timeout_s = 0.0);

}  // namespace dls::serve
