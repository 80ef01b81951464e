// Transport-layer tests for the scheduling service: Pipe semantics
// (ordering, atomic writes, close/EOF discipline) and the framing codec
// (identity round trips, strict rejection of truncation, trailing
// bytes, bad magic/version/type and oversized lengths) — both on flat
// buffers and across a live PipeEnd.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "codec/bytes.hpp"
#include "serve/frame.hpp"
#include "serve/pipe.hpp"

namespace {

using dls::codec::Bytes;
using dls::codec::DecodeError;
using dls::serve::Frame;
using dls::serve::FrameTruncationError;
using dls::serve::FrameType;
using dls::serve::FrameVersionError;
using dls::serve::kFrameHeaderSize;
using dls::serve::make_pipe;
using dls::serve::Pipe;
using dls::serve::PipeEnd;
using dls::serve::ReadOutcome;
using dls::serve::TransportError;
using dls::serve::TransportTimeout;

Bytes bytes_of(std::initializer_list<int> values) {
  Bytes out;
  for (const int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(PipeTest, BytesArriveInOrder) {
  Pipe pipe = make_pipe();
  pipe.a.write(bytes_of({1, 2, 3}));
  pipe.a.write(bytes_of({4, 5}));
  Bytes got(5);
  ASSERT_TRUE(pipe.b.read_exact(got));
  EXPECT_EQ(got, bytes_of({1, 2, 3, 4, 5}));
}

TEST(PipeTest, ReadBlocksUntilDataArrives) {
  Pipe pipe = make_pipe();
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    pipe.a.write(bytes_of({42}));
  });
  Bytes got(1);
  ASSERT_TRUE(pipe.b.read_exact(got));
  EXPECT_EQ(got[0], 42);
  writer.join();
}

TEST(PipeTest, CleanCloseDrainsThenReportsEof) {
  Pipe pipe = make_pipe();
  pipe.a.write(bytes_of({7, 8}));
  pipe.a.close();
  Bytes got(2);
  ASSERT_TRUE(pipe.b.read_exact(got));  // buffered bytes still readable
  EXPECT_EQ(got, bytes_of({7, 8}));
  EXPECT_FALSE(pipe.b.read_exact(got));  // then clean EOF
}

TEST(PipeTest, CloseMidReadThrowsTransportError) {
  Pipe pipe = make_pipe();
  pipe.a.write(bytes_of({1}));
  pipe.a.close();
  Bytes got(2);  // more than was ever written: a torn read
  EXPECT_THROW(pipe.b.read_exact(got), TransportError);
}

TEST(PipeTest, WriteAfterPeerCloseThrows) {
  Pipe pipe = make_pipe();
  pipe.b.close();
  EXPECT_THROW(pipe.a.write(bytes_of({1})), TransportError);
}

TEST(PipeTest, DroppedEndUnblocksPeer) {
  Pipe pipe = make_pipe();
  std::thread dropper([end = std::move(pipe.a)]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    // `end` destroyed here — the peer's blocked read must wake with EOF.
  });
  Bytes got(1);
  EXPECT_FALSE(pipe.b.read_exact(got));
  dropper.join();
}

TEST(PipeTest, ConcurrentWritesStayAtomic) {
  // Two writers blast distinct fixed-size records through one end; the
  // reader must see every record intact (never interleaved bytes).
  Pipe pipe = make_pipe();
  constexpr int kRecords = 200;
  constexpr std::size_t kSize = 64;
  auto writer = [&](std::uint8_t tag) {
    for (int i = 0; i < kRecords; ++i) {
      Bytes record(kSize, tag);
      pipe.a.write(record);
    }
  };
  std::thread w1(writer, std::uint8_t{0xAA});
  std::thread w2(writer, std::uint8_t{0x55});
  int seen_a = 0, seen_b = 0;
  for (int i = 0; i < 2 * kRecords; ++i) {
    Bytes record(kSize);
    ASSERT_TRUE(pipe.b.read_exact(record));
    const std::uint8_t tag = record[0];
    for (const std::uint8_t byte : record) {
      ASSERT_EQ(byte, tag) << "interleaved write detected";
    }
    (tag == 0xAA ? seen_a : seen_b)++;
  }
  w1.join();
  w2.join();
  EXPECT_EQ(seen_a, kRecords);
  EXPECT_EQ(seen_b, kRecords);
}

TEST(FrameTest, EncodeDecodeIdentityForEveryType) {
  for (const FrameType type :
       {FrameType::kScheduleRequest, FrameType::kScheduleResponse,
        FrameType::kBid, FrameType::kAllocation, FrameType::kReport,
        FrameType::kPayment}) {
    Frame frame{type, bytes_of({1, 2, 3, 4, 5})};
    const Frame decoded = dls::serve::decode_frame(
        dls::serve::encode_frame(frame));
    EXPECT_EQ(decoded.type, type);
    EXPECT_EQ(decoded.payload, frame.payload);
  }
  // Empty payloads are legal frames too.
  const Frame empty = dls::serve::decode_frame(
      dls::serve::encode_frame(Frame{FrameType::kBid, {}}));
  EXPECT_TRUE(empty.payload.empty());
}

TEST(FrameTest, ChecksumIsTheDocumentedWordwiseFnv1a64Fold) {
  // The DLSF v3 header checksum: FNV-1a-64 over little-endian 8-byte
  // words plus a bytewise tail, xor-folded to 32 bits. Pinned for the
  // empty, one-byte, one-word, word-plus-tail and 512-word cases so the
  // word loop it shares with the topology key hash cannot move bytes on
  // the wire.
  const auto pattern_of = [](std::size_t n) {
    Bytes out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    return out;
  };
  using dls::serve::frame_checksum;
  EXPECT_EQ(frame_checksum(pattern_of(0)), 0x4fd0bfc1u);
  EXPECT_EQ(frame_checksum(pattern_of(1)), 0x2962088au);
  EXPECT_EQ(frame_checksum(pattern_of(8)), 0xd8f0a711u);
  EXPECT_EQ(frame_checksum(pattern_of(9)), 0x5ecac36cu);
  EXPECT_EQ(frame_checksum(pattern_of(4096)), 0x15d232edu);
}

TEST(FrameTest, EveryTruncationPrefixIsRejected) {
  const Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({9, 8, 7})});
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW(dls::serve::decode_frame(std::span(wire.data(), len)),
                 DecodeError)
        << "frame prefix of " << len << " bytes accepted";
  }
}

TEST(FrameTest, BufferTruncationIsTypedAsCorruptedLengthNotPeerClose) {
  // Once the whole header is present, a short buffer means the length
  // field promised more than the capture holds — peer_closed() false.
  const Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({9, 8, 7})});
  for (std::size_t len = kFrameHeaderSize; len < wire.size(); ++len) {
    try {
      dls::serve::decode_frame(std::span(wire.data(), len));
      FAIL() << "frame prefix of " << len << " bytes accepted";
    } catch (const FrameTruncationError& e) {
      EXPECT_FALSE(e.peer_closed()) << "prefix " << len;
      EXPECT_EQ(e.announced(), wire.size() - kFrameHeaderSize);
      EXPECT_EQ(e.received(), len - kFrameHeaderSize);
    }
  }
}

TEST(FrameTest, EveryStreamPrefixReportsTypedTruncation) {
  // Like EveryTruncationPrefixIsRejected but across a live stream that
  // hangs up after each prefix: a clean close at offset 0 is EOF, a
  // close anywhere inside the frame is FrameTruncationError with
  // peer_closed() true, and the full frame round-trips.
  const Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({9, 8, 7})});
  for (std::size_t len = 0; len <= wire.size(); ++len) {
    Pipe pipe = make_pipe();
    pipe.a.write(std::span(wire.data(), len));
    pipe.a.close();
    if (len == 0) {
      EXPECT_FALSE(dls::serve::read_frame(pipe.b).has_value());
      continue;
    }
    if (len == wire.size()) {
      EXPECT_TRUE(dls::serve::read_frame(pipe.b).has_value());
      continue;
    }
    try {
      dls::serve::read_frame(pipe.b);
      FAIL() << "stream prefix of " << len << " bytes accepted";
    } catch (const FrameTruncationError& e) {
      EXPECT_TRUE(e.peer_closed()) << "prefix " << len;
      if (len < kFrameHeaderSize) {
        EXPECT_EQ(e.announced(), kFrameHeaderSize);
        EXPECT_EQ(e.received(), len);
      } else {
        EXPECT_EQ(e.announced(), wire.size() - kFrameHeaderSize);
        EXPECT_EQ(e.received(), len - kFrameHeaderSize);
      }
    }
  }
}

TEST(FrameTest, TrailingBytesAreRejected) {
  Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({1})});
  wire.push_back(0x00);
  EXPECT_THROW(dls::serve::decode_frame(wire), DecodeError);
}

TEST(FrameTest, BadMagicVersionTypeAndLengthAreRejected) {
  const Bytes good = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({1, 2})});

  Bytes bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(dls::serve::decode_frame(bad_magic), DecodeError);

  Bytes bad_version = good;
  bad_version[4] = 0x7F;
  EXPECT_THROW(dls::serve::decode_frame(bad_version), DecodeError);

  Bytes bad_type = good;
  bad_type[5] = 0;  // below the FrameType range
  EXPECT_THROW(dls::serve::decode_frame(bad_type), DecodeError);
  bad_type[5] = 200;  // above it
  EXPECT_THROW(dls::serve::decode_frame(bad_type), DecodeError);

  Bytes bad_length = good;
  bad_length[9] = 0xFF;  // announces a payload far beyond the cap
  EXPECT_THROW(dls::serve::decode_frame(bad_length), DecodeError);
}

TEST(FrameTest, VersionMismatchCarriesThePeersVersion) {
  const Bytes good = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({1, 2})});
  // v1/v2 peers during a rollout, plus a from-the-future version: the
  // typed error must report exactly what the peer announced.
  const std::uint8_t versions[] = {0x00, 0x01, 0x02, 0x7F};
  for (const std::uint8_t version : versions) {
    Bytes bad_version = good;
    bad_version[4] = version;
    try {
      dls::serve::decode_frame(bad_version);
      FAIL() << "version " << int(version) << " accepted";
    } catch (const FrameVersionError& e) {
      EXPECT_EQ(e.received(), version);
      EXPECT_EQ(e.supported(), dls::serve::kFrameVersion);
    }
  }
}

TEST(FrameTest, VersionMismatchIsTypedAcrossAPipeToo) {
  Pipe pipe = make_pipe();
  Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({1})});
  wire[4] = 0x02;  // a v2 peer
  pipe.a.write(wire);
  try {
    dls::serve::read_frame(pipe.b);
    FAIL() << "v2 frame accepted";
  } catch (const FrameVersionError& e) {
    EXPECT_EQ(e.received(), 0x02);
    EXPECT_EQ(e.supported(), dls::serve::kFrameVersion);
  }
}

TEST(FrameTest, RoundTripsAcrossPipe) {
  Pipe pipe = make_pipe();
  const Frame sent{FrameType::kReport, bytes_of({10, 20, 30})};
  dls::serve::write_frame(pipe.a, sent);
  const std::optional<Frame> got = dls::serve::read_frame(pipe.b);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, sent.type);
  EXPECT_EQ(got->payload, sent.payload);
}

TEST(FrameTest, CleanEofBetweenFramesIsNullopt) {
  Pipe pipe = make_pipe();
  dls::serve::write_frame(pipe.a, Frame{FrameType::kBid, bytes_of({1})});
  pipe.a.close();
  EXPECT_TRUE(dls::serve::read_frame(pipe.b).has_value());
  EXPECT_FALSE(dls::serve::read_frame(pipe.b).has_value());
}

TEST(FrameTest, EofInsideFrameIsPeerClosedTruncation) {
  Pipe pipe = make_pipe();
  const Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kBid, bytes_of({1, 2, 3, 4})});
  // Send the header plus part of the payload, then hang up: a torn
  // frame, reported as peer-closed truncation (not a decode-side
  // corrupted length, and no longer an untyped TransportError).
  pipe.a.write(std::span(wire.data(), kFrameHeaderSize + 2));
  pipe.a.close();
  try {
    dls::serve::read_frame(pipe.b);
    FAIL() << "torn frame accepted";
  } catch (const FrameTruncationError& e) {
    EXPECT_TRUE(e.peer_closed());
    EXPECT_EQ(e.announced(), 4u);
    EXPECT_EQ(e.received(), 2u);
  }
}

TEST(FrameTest, ReadFrameTimesOutOnSilentPeer) {
  Pipe pipe = make_pipe();
  EXPECT_THROW(dls::serve::read_frame(pipe.b, /*timeout_s=*/0.01),
               TransportTimeout);
  // The timeout consumed nothing: a frame sent afterwards still reads.
  dls::serve::write_frame(pipe.a, Frame{FrameType::kBid, bytes_of({1})});
  const auto got = dls::serve::read_frame(pipe.b, /*timeout_s=*/1.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, bytes_of({1}));
}

TEST(PipeTest, ReadPartialTimeoutConsumesNothing) {
  Pipe pipe = make_pipe();
  pipe.a.write(bytes_of({1, 2, 3}));
  Bytes want(5);
  const ReadOutcome timed = pipe.b.read_partial(want, 0.01);
  EXPECT_EQ(timed.received, 0u);
  EXPECT_FALSE(timed.complete);
  EXPECT_FALSE(timed.closed);
  pipe.a.write(bytes_of({4, 5}));
  const ReadOutcome full = pipe.b.read_partial(want, 1.0);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(want, bytes_of({1, 2, 3, 4, 5}));
}

TEST(PipeTest, ReadPartialDrainsBufferedBytesOnClose) {
  Pipe pipe = make_pipe();
  pipe.a.write(bytes_of({7, 8}));
  pipe.a.close();
  Bytes want(4);
  const ReadOutcome got = pipe.b.read_partial(want, 0.0);
  EXPECT_TRUE(got.closed);
  EXPECT_FALSE(got.complete);
  EXPECT_EQ(got.received, 2u);
  EXPECT_EQ(want[0], 7);
  EXPECT_EQ(want[1], 8);
}

TEST(FrameTest, ResyncSkipsGarbageToNextFrameBoundary) {
  Pipe pipe = make_pipe();
  const Bytes garbage = bytes_of({0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02});
  const Frame sent{FrameType::kReport, bytes_of({5, 6, 7})};
  pipe.a.write(garbage);
  dls::serve::write_frame(pipe.a, sent);
  std::size_t skipped = 0;
  const auto got =
      dls::serve::read_frame_resync(pipe.b, /*max_scan_bytes=*/1024,
                                    &skipped);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, sent.type);
  EXPECT_EQ(got->payload, sent.payload);
  EXPECT_EQ(skipped, garbage.size());
  // A well-formed stream afterwards resyncs nothing.
  dls::serve::write_frame(pipe.a, sent);
  const auto clean =
      dls::serve::read_frame_resync(pipe.b, 1024, &skipped);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(skipped, 0u);
}

TEST(FrameTest, ResyncGivesUpPastScanBudget) {
  Pipe pipe = make_pipe();
  Bytes garbage(64, 0xAB);
  pipe.a.write(garbage);
  dls::serve::write_frame(pipe.a,
                          Frame{FrameType::kBid, bytes_of({1})});
  EXPECT_THROW(
      dls::serve::read_frame_resync(pipe.b, /*max_scan_bytes=*/16),
      DecodeError);
}

TEST(FrameTest, ResyncReportsEofWhileHunting) {
  Pipe pipe = make_pipe();
  // Enough garbage to fill a whole header window, then EOF mid-hunt.
  pipe.a.write(Bytes(kFrameHeaderSize + 4, 0x0C));
  pipe.a.close();
  EXPECT_THROW(dls::serve::read_frame_resync(pipe.b, 1024), DecodeError);
}

TEST(FrameTest, CorruptedPayloadIsChecksumMismatch) {
  using dls::serve::FrameChecksumError;
  Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({1, 2, 3, 4})});
  wire[kFrameHeaderSize + 2] ^= 0x10;  // flip one payload bit
  try {
    dls::serve::decode_frame(wire);
    FAIL() << "corrupted payload accepted";
  } catch (const FrameChecksumError& e) {
    EXPECT_NE(e.announced(), e.computed());
  }
}

TEST(FrameTest, CorruptedChecksumFieldIsChecksumMismatch) {
  using dls::serve::FrameChecksumError;
  Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest, bytes_of({1, 2, 3, 4})});
  wire[kFrameHeaderSize - 1] ^= 0x01;  // flip a bit of the checksum itself
  EXPECT_THROW(dls::serve::decode_frame(wire), FrameChecksumError);
}

TEST(FrameTest, ChecksumMismatchLeavesStreamFrameAligned) {
  // The announced length is fully consumed before the checksum verdict,
  // so a server can skip the poison frame and keep reading.
  using dls::serve::FrameChecksumError;
  Pipe pipe = make_pipe();
  Bytes corrupt = dls::serve::encode_frame(
      Frame{FrameType::kBid, bytes_of({1, 2, 3})});
  corrupt[kFrameHeaderSize] ^= 0x80;
  pipe.a.write(corrupt);
  const Frame good{FrameType::kReport, bytes_of({4, 5, 6})};
  dls::serve::write_frame(pipe.a, good);
  EXPECT_THROW(dls::serve::read_frame(pipe.b), FrameChecksumError);
  const auto got = dls::serve::read_frame(pipe.b);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, good.type);
  EXPECT_EQ(got->payload, good.payload);
}

TEST(FrameTest, MalformedHeaderOnStreamIsDecodeError) {
  Pipe pipe = make_pipe();
  Bytes wire = dls::serve::encode_frame(
      Frame{FrameType::kBid, bytes_of({1})});
  wire[0] ^= 0xFF;  // corrupt the magic
  pipe.a.write(wire);
  EXPECT_THROW(dls::serve::read_frame(pipe.b), DecodeError);
}

}  // namespace
