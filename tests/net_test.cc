// Tests for src/net: fabric delivery/loss/severing, secure channel records,
// and the Guillotine handshake refusal policy.
#include <gtest/gtest.h>

#include "src/net/fabric.h"
#include "src/net/secure_channel.h"

namespace guillotine {
namespace {

TEST(FabricTest, NicToNicDelivery) {
  SimClock clock;
  NetFabric fabric(clock);
  NicDevice a(1), b(2);
  fabric.AttachNic(&a);
  fabric.AttachNic(&b);
  Cycles cost = 0;
  IoRequest send;
  send.opcode = static_cast<u32>(NicOpcode::kSend);
  PutU32(send.payload, 2);
  const Bytes body = ToBytes("hi");
  send.payload.insert(send.payload.end(), body.begin(), body.end());
  a.Handle(send, 0, cost);
  fabric.Pump();                 // picks up outbound; not yet due
  EXPECT_EQ(b.inbound_depth(), 0u);
  clock.Advance(10 * kCyclesPerMicro);
  fabric.Pump();
  EXPECT_EQ(b.inbound_depth(), 1u);
}

TEST(FabricTest, CallbackHostsAndReplies) {
  SimClock clock;
  NetFabric fabric(clock);
  fabric.set_propagation_delay(0);
  std::vector<std::string> seen;
  fabric.AttachHost(9, [&](const Frame& f) { seen.push_back(ToString(f.payload)); });
  Frame f;
  f.src_host = 1;
  f.dst_host = 9;
  f.payload = ToBytes("query");
  fabric.Send(f);
  fabric.Pump();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "query");
}

TEST(FabricTest, UnknownDestinationDropped) {
  SimClock clock;
  NetFabric fabric(clock);
  fabric.set_propagation_delay(0);
  Frame f;
  f.dst_host = 42;
  fabric.Send(f);
  fabric.Pump();
  EXPECT_EQ(fabric.dropped(), 1u);
}

TEST(FabricTest, SeveredHostIsCutOffBothWays) {
  SimClock clock;
  NetFabric fabric(clock);
  fabric.set_propagation_delay(0);
  NicDevice a(1);
  fabric.AttachNic(&a);
  int received = 0;
  fabric.AttachHost(2, [&](const Frame&) { ++received; });
  fabric.SetHostSevered(1, true);
  // Outbound from severed host dies.
  Cycles cost = 0;
  IoRequest send;
  send.opcode = static_cast<u32>(NicOpcode::kSend);
  PutU32(send.payload, 2);
  a.Handle(send, 0, cost);
  fabric.Pump();
  EXPECT_EQ(received, 0);
  // Inbound to severed host dies.
  Frame f;
  f.src_host = 2;
  f.dst_host = 1;
  fabric.Send(f);
  fabric.Pump();
  EXPECT_EQ(a.inbound_depth(), 0u);
  // Reconnect restores flow.
  fabric.SetHostSevered(1, false);
  fabric.Send(f);
  fabric.Pump();
  EXPECT_EQ(a.inbound_depth(), 1u);
}

TEST(FabricTest, SameDeliveryTimeTieBreaksByEnqueueOrder) {
  SimClock clock;
  NetFabric fabric(clock);
  std::vector<u32> order;
  fabric.AttachHost(9, [&](const Frame& f) { order.push_back(f.src_host); });
  // Frame from host 1 sent at t=0 with 10us of cable; frame from host 2
  // sent at t=5us with 5us of cable: both are due at exactly t=10us, so the
  // pinned (deliver_at, enqueue-seq) total order delivers host 1 first.
  fabric.set_propagation_delay(10 * kCyclesPerMicro);
  Frame a;
  a.src_host = 1;
  a.dst_host = 9;
  fabric.Send(a);
  clock.Advance(5 * kCyclesPerMicro);
  fabric.set_propagation_delay(5 * kCyclesPerMicro);
  Frame b;
  b.src_host = 2;
  b.dst_host = 9;
  fabric.Send(b);
  clock.Advance(5 * kCyclesPerMicro);
  fabric.Pump();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  // And when the later send is due *earlier*, deliver_at wins the sort.
  order.clear();
  fabric.set_propagation_delay(10 * kCyclesPerMicro);
  fabric.Send(a);
  fabric.set_propagation_delay(2 * kCyclesPerMicro);
  fabric.Send(b);
  clock.Advance(10 * kCyclesPerMicro);
  fabric.Pump();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 1u);
}

TEST(FabricTest, MidPropagationSeveranceDropsInFlightFrames) {
  SimClock clock;
  NetFabric fabric(clock);
  fabric.set_propagation_delay(10 * kCyclesPerMicro);
  int received = 0;
  fabric.AttachHost(1, [&](const Frame&) { ++received; });
  fabric.AttachHost(2, [&](const Frame&) { ++received; });
  // One frame toward host 2 and one *from* host 2, both mid-cable when the
  // cut lands: neither may ever arrive, and both count as dropped.
  Frame to_severed;
  to_severed.src_host = 1;
  to_severed.dst_host = 2;
  fabric.Send(to_severed);
  Frame from_severed;
  from_severed.src_host = 2;
  from_severed.dst_host = 1;
  fabric.Send(from_severed);
  EXPECT_EQ(fabric.sent(), 2u);
  clock.Advance(5 * kCyclesPerMicro);
  fabric.SetHostSevered(2, true);
  EXPECT_EQ(fabric.dropped(), 2u);  // dropped at cut time, not delivery time
  clock.Advance(20 * kCyclesPerMicro);
  fabric.Pump();
  EXPECT_EQ(received, 0);
  // Healing the host later does not resurrect frames that died in the cable.
  fabric.SetHostSevered(2, false);
  clock.Advance(20 * kCyclesPerMicro);
  fabric.Pump();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(fabric.dropped(), 2u);
}

class HandshakeTest : public ::testing::Test {
 protected:
  HandshakeTest() : rng_(7), ca_(GenerateKeyPair(rng_)) {}

  EndpointIdentity Make(std::string name, bool guillotine) {
    return MakeEndpoint(std::move(name), ca_, "regulator", guillotine, 0,
                        1'000'000'000, rng_);
  }

  Rng rng_;
  SimSigKeyPair ca_;
};

TEST_F(HandshakeTest, PlainClientToGuillotineServerSucceeds) {
  const EndpointIdentity client = Make("client.example", false);
  const EndpointIdentity server = Make("guillotine-hv.example", true);
  auto result = Handshake(client, server, ca_.pub, 100, rng_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Client learned the peer is a Guillotine hypervisor (self-identification).
  EXPECT_TRUE(result->peer_is_guillotine);
}

TEST_F(HandshakeTest, GuillotineToGuillotineRefused) {
  const EndpointIdentity hv1 = Make("hv1", true);
  const EndpointIdentity hv2 = Make("hv2", true);
  const auto result = Handshake(hv1, hv2, ca_.pub, 100, rng_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(HandshakeTest, GuillotineClientToPlainServerSucceeds) {
  const EndpointIdentity hv = Make("hv1", true);
  const EndpointIdentity plain = Make("db.example", false);
  EXPECT_TRUE(Handshake(hv, plain, ca_.pub, 100, rng_).ok());
}

TEST_F(HandshakeTest, ForgedCertificateRejected) {
  EndpointIdentity client = Make("client", false);
  const EndpointIdentity server = Make("server", false);
  // Re-sign the client cert with a key that is not the regulator's.
  const SimSigKeyPair rogue = GenerateKeyPair(rng_);
  SignCertificate(client.cert, rogue);
  EXPECT_FALSE(Handshake(client, server, ca_.pub, 100, rng_).ok());
}

TEST_F(HandshakeTest, ExpiredCertificateRejected) {
  const EndpointIdentity client = Make("client", false);
  const EndpointIdentity server = Make("server", false);
  EXPECT_FALSE(Handshake(client, server, ca_.pub, 2'000'000'000, rng_).ok());
}

TEST_F(HandshakeTest, ChannelsInteroperate) {
  const EndpointIdentity client = Make("client", false);
  const EndpointIdentity server = Make("server", true);
  auto result = Handshake(client, server, ca_.pub, 100, rng_);
  ASSERT_TRUE(result.ok());
  const Bytes msg = ToBytes("inference request");
  const auto record = result->client_channel.Seal(msg);
  const auto opened = result->server_channel.Open(record);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, msg);
  // Ciphertext differs from plaintext.
  EXPECT_NE(record.ciphertext, msg);
}

TEST_F(HandshakeTest, TamperedRecordRejected) {
  const EndpointIdentity client = Make("client", false);
  const EndpointIdentity server = Make("server", false);
  auto result = Handshake(client, server, ca_.pub, 100, rng_);
  ASSERT_TRUE(result.ok());
  auto record = result->client_channel.Seal(ToBytes("payload"));
  record.ciphertext[0] ^= 1;
  EXPECT_FALSE(result->server_channel.Open(record).ok());
}

TEST_F(HandshakeTest, ReplayRejected) {
  const EndpointIdentity client = Make("client", false);
  const EndpointIdentity server = Make("server", false);
  auto result = Handshake(client, server, ca_.pub, 100, rng_);
  ASSERT_TRUE(result.ok());
  const auto record = result->client_channel.Seal(ToBytes("one"));
  ASSERT_TRUE(result->server_channel.Open(record).ok());
  EXPECT_FALSE(result->server_channel.Open(record).ok());  // replay
}

TEST_F(HandshakeTest, BidirectionalTraffic) {
  const EndpointIdentity client = Make("client", false);
  const EndpointIdentity server = Make("server", true);
  auto result = Handshake(client, server, ca_.pub, 100, rng_);
  ASSERT_TRUE(result.ok());
  const auto up = result->client_channel.Seal(ToBytes("up"));
  EXPECT_EQ(ToString(*result->server_channel.Open(up)), "up");
  const auto down = result->server_channel.Seal(ToBytes("down"));
  EXPECT_EQ(ToString(*result->client_channel.Open(down)), "down");
}

TEST_F(HandshakeTest, ReplayHasDistinctErrorAndTraceEvent) {
  const EndpointIdentity client = Make("client", false);
  const EndpointIdentity server = Make("server", false);
  auto result = Handshake(client, server, ca_.pub, 100, rng_);
  ASSERT_TRUE(result.ok());
  SimClock clock;
  EventTrace trace;
  result->server_channel.BindTrace(&trace, &clock, "server");
  const auto first = result->client_channel.Seal(ToBytes("one"));
  const auto second = result->client_channel.Seal(ToBytes("two"));
  ASSERT_TRUE(result->server_channel.Open(first).ok());
  // A replayed record is an ordering violation, not a forgery: it must get
  // its own status code (distinct from the MAC-mismatch kUnauthenticated),
  // bump the replay counter, and land a channel.replay security event.
  const auto replayed = result->server_channel.Open(first);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(result->server_channel.stats().replays_rejected, 1u);
  EXPECT_EQ(trace.CountKind("channel.replay"), 1u);
  EXPECT_EQ(trace.CountCategory(TraceCategory::kSecurity), 1u);
  // Skipping ahead (out-of-order, not just replayed) is the same violation.
  auto third = result->client_channel.Seal(ToBytes("three"));
  third.sequence += 5;
  const auto skipped = result->server_channel.Open(third);
  ASSERT_FALSE(skipped.ok());
  EXPECT_EQ(skipped.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(result->server_channel.stats().replays_rejected, 2u);
  // Whereas a tampered record at the *right* sequence stays kUnauthenticated.
  auto tampered = second;
  tampered.ciphertext[0] ^= 1;
  const auto forged = result->server_channel.Open(tampered);
  ASSERT_FALSE(forged.ok());
  EXPECT_EQ(forged.status().code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(result->server_channel.stats().replays_rejected, 2u);
}

TEST_F(HandshakeTest, SealBatchIsByteIdenticalToSerialSeal) {
  // Two channel pairs keyed identically: one seals the coalesced frame via
  // SealBatch, the other seals the same frame bytes via plain Seal. The
  // batching fast path must not change a single ciphertext or tag byte.
  const EndpointIdentity client = Make("client", false);
  const EndpointIdentity server = Make("server", false);
  Rng rng_a(1234);
  auto a = Handshake(client, server, ca_.pub, 100, rng_a);
  Rng rng_b(1234);
  auto b = Handshake(client, server, ca_.pub, 100, rng_b);
  ASSERT_TRUE(a.ok() && b.ok());
  const std::vector<Bytes> payloads = {ToBytes("req-0"), ToBytes("req-1"),
                                       ToBytes(""), ToBytes("a longer request body")};
  const auto batched = a->client_channel.SealBatch(payloads);
  const auto serial =
      b->client_channel.Seal(SecureChannel::EncodeBatchFrame(payloads));
  EXPECT_EQ(batched.ciphertext, serial.ciphertext);
  EXPECT_EQ(batched.tag, serial.tag);
  EXPECT_EQ(batched.sequence, serial.sequence);
  // And the coalesced record opens back into the original payloads.
  const auto opened = a->server_channel.OpenBatch(batched);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(*opened, payloads);
  EXPECT_EQ(a->client_channel.stats().batches_sealed, 1u);
  EXPECT_EQ(a->client_channel.stats().payloads_sealed, payloads.size());
  EXPECT_EQ(a->client_channel.stats().records_sealed, 1u);
  EXPECT_EQ(a->server_channel.stats().batches_opened, 1u);
  EXPECT_EQ(a->server_channel.stats().payloads_opened, payloads.size());
}

TEST(SecureChannelTest, RecordBytesFollowTheHmacKeystream) {
  // Known-answer check of the record format, derived here without the
  // channel: keystream block i of record s is HMAC(key, le64(s) || le64(i)),
  // and the tag is HMAC(key, le64(s) || ciphertext).
  Sha256Digest key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<u8>(3 * i + 1);
  }
  SecureChannel channel(key, Sha256Digest{});
  for (u64 sequence = 0; sequence < 3; ++sequence) {
    Bytes plaintext(100);  // three whole keystream blocks and a partial one
    for (size_t i = 0; i < plaintext.size(); ++i) {
      plaintext[i] = static_cast<u8>(i * 7 + sequence);
    }
    Bytes expect(plaintext.size());
    for (size_t i = 0; i < plaintext.size(); ++i) {
      Bytes counter;
      PutU64(counter, sequence);
      PutU64(counter, i / 32);
      expect[i] = plaintext[i] ^ HmacSha256(key, counter)[i % 32];
    }
    Bytes mac_input;
    PutU64(mac_input, sequence);
    mac_input.insert(mac_input.end(), expect.begin(), expect.end());
    const SecureChannel::Record record = channel.Seal(plaintext);
    EXPECT_EQ(record.sequence, sequence);
    EXPECT_EQ(record.ciphertext, expect);
    EXPECT_EQ(record.tag, HmacSha256(key, mac_input));
  }
  EXPECT_EQ(channel.stats().keystream_blocks, 12u);
}

TEST(BatchFrameTest, DecodeRejectsMalformedFrames) {
  const std::vector<Bytes> payloads = {ToBytes("x"), ToBytes("yz")};
  Bytes frame = SecureChannel::EncodeBatchFrame(payloads);
  ASSERT_TRUE(SecureChannel::DecodeBatchFrame(frame).ok());
  // Truncated mid-payload.
  Bytes truncated(frame.begin(), frame.end() - 1);
  EXPECT_FALSE(SecureChannel::DecodeBatchFrame(truncated).ok());
  // Trailing garbage after the declared payloads.
  Bytes trailing = frame;
  trailing.push_back(0x5A);
  EXPECT_FALSE(SecureChannel::DecodeBatchFrame(trailing).ok());
  // Empty batches round-trip too (a flush with nothing queued).
  const Bytes empty = SecureChannel::EncodeBatchFrame({});
  const auto decoded = SecureChannel::DecodeBatchFrame(empty);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST_F(HandshakeTest, ResumedSessionInteroperatesWithFreshKeysAndNoSignatures) {
  const EndpointIdentity client = Make("client", false);
  const EndpointIdentity server = Make("server", true);
  auto full = Handshake(client, server, ca_.pub, 100, rng_);
  ASSERT_TRUE(full.ok());
  SessionTicket ticket = full->ticket;
  EXPECT_TRUE(ticket.peer_is_guillotine);

  auto resumed = ResumeHandshake(ticket);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(ticket.resumptions, 1u);
  EXPECT_TRUE(resumed->peer_is_guillotine);
  // Two messages, no certificate or transcript signatures: orders of
  // magnitude cheaper than the full handshake.
  EXPECT_EQ(resumed->stats.messages, 2);
  EXPECT_LT(resumed->stats.client_cycles + resumed->stats.server_cycles,
            (full->stats.client_cycles + full->stats.server_cycles) / 10);
  // The resumed pair interoperates...
  const auto record = resumed->client_channel.Seal(ToBytes("after resume"));
  const auto opened = resumed->server_channel.Open(record);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(ToString(*opened), "after resume");
  // ...with traffic keys unrelated to the original session's: the original
  // server cannot open the resumed session's records.
  auto stale = full->server_channel.Open(record);
  EXPECT_FALSE(stale.ok());
  // Each resumption salts fresh keys: the same plaintext seals differently.
  auto again = ResumeHandshake(ticket);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ticket.resumptions, 2u);
  const auto record2 = again->client_channel.Seal(ToBytes("after resume"));
  EXPECT_NE(record.ciphertext, record2.ciphertext);
}

// Refusal policy truth table as a parameterized property.
struct RefusalCase {
  bool client_guillotine;
  bool server_guillotine;
  bool expect_ok;
};

class RefusalMatrix : public ::testing::TestWithParam<RefusalCase> {};

TEST_P(RefusalMatrix, PolicyHolds) {
  Rng rng(99);
  const SimSigKeyPair ca = GenerateKeyPair(rng);
  const auto client = MakeEndpoint("c", ca, "reg", GetParam().client_guillotine, 0,
                                   1'000'000, rng);
  const auto server = MakeEndpoint("s", ca, "reg", GetParam().server_guillotine, 0,
                                   1'000'000, rng);
  EXPECT_EQ(Handshake(client, server, ca.pub, 10, rng).ok(), GetParam().expect_ok);
}

INSTANTIATE_TEST_SUITE_P(AllPairs, RefusalMatrix,
                         ::testing::Values(RefusalCase{false, false, true},
                                           RefusalCase{true, false, true},
                                           RefusalCase{false, true, true},
                                           RefusalCase{true, true, false}));

}  // namespace
}  // namespace guillotine
