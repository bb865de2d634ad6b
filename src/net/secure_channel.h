// Secure channel with Guillotine self-identification.
//
// Paper section 3.3: a Guillotine hypervisor always uses encrypted,
// authenticated protocols; its certificate (issued and signed by an AI
// regulator) carries an extension identifying it as a Guillotine
// hypervisor; it announces this during the handshake so peers can apply
// default suspicion; and — critically — "a Guillotine hypervisor will
// refuse connection attempts from other Guillotine hypervisors", blocking
// collective model self-optimization.
//
// The handshake is TLS-1.3-shaped (hello + certificate + verification +
// traffic-key derivation) over SimSig certificates; record protection is an
// HMAC-counter stream cipher with an HMAC tag (an honest AEAD structure
// with toy primitives — see the SimSig substitution note). Two fast paths
// serve the federated cross-host tier:
//   - ResumeHandshake: TLS-PSK-shaped session resumption from a prior full
//     handshake's ticket — fresh traffic keys from two hashes, zero SimSig
//     operations — so a per-host-pair channel cache pays certificate and
//     transcript signatures exactly once per pair.
//   - SealBatch/OpenBatch: N queued payloads coalesced into ONE framed
//     record (one keystream schedule, one tag), byte-identical to sealing
//     the same frame through Seal.
#ifndef SRC_NET_SECURE_CHANNEL_H_
#define SRC_NET_SECURE_CHANNEL_H_

#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/crypto/cert.h"
#include "src/crypto/hmac.h"

namespace guillotine {

// One side's identity and connection policy.
struct EndpointIdentity {
  Certificate cert;
  SimSigKeyPair key;       // private key matching cert.subject_key
  bool refuse_guillotine_peers = false;  // true on Guillotine hypervisors
};

struct HandshakeStats {
  Cycles client_cycles = 0;
  Cycles server_cycles = 0;
  int messages = 0;
};

// Per-channel operation counters, for the fabric bench's cost accounting.
struct ChannelStats {
  u64 records_sealed = 0;    // every Seal/SealBatch produces one record
  u64 records_opened = 0;
  u64 batches_sealed = 0;    // SealBatch calls
  u64 batches_opened = 0;
  u64 payloads_sealed = 0;   // payloads across all SealBatch calls
  u64 payloads_opened = 0;
  u64 keystream_blocks = 0;  // 32-byte HMAC blocks derived for the cipher
  u64 replays_rejected = 0;  // out-of-sequence records refused by Open
};

// An established channel: both directions share traffic keys derived from
// the handshake transcripts.
class SecureChannel {
 public:
  SecureChannel(Sha256Digest send_key, Sha256Digest recv_key);

  struct Record {
    Bytes ciphertext;
    Sha256Digest tag{};
    u64 sequence = 0;
  };

  Record Seal(std::span<const u8> plaintext);
  Result<Bytes> Open(const Record& record);

  // ---- Coalesced fast path ----
  // Frame layout: u32 payload count, then each payload length-prefixed.
  // SealBatch is definitionally Seal(EncodeBatchFrame(payloads)) — the
  // byte-identity the net tests pin — but N requests now share one record
  // sequence, one keystream derivation schedule, and one HMAC tag instead
  // of paying all three per request.
  static Bytes EncodeBatchFrame(const std::vector<Bytes>& payloads);
  static Result<std::vector<Bytes>> DecodeBatchFrame(std::span<const u8> frame);
  Record SealBatch(const std::vector<Bytes>& payloads);
  Result<std::vector<Bytes>> OpenBatch(const Record& record);

  // Optional audit binding: replay/out-of-order rejections emit a
  // `channel.replay` security event stamped with the bound clock.
  void BindTrace(EventTrace* trace, const SimClock* clock, std::string source);

  const ChannelStats& stats() const { return stats_; }

 private:
  // out = in XOR the record's HMAC keystream (in.size() == out.size()).
  void XorKeystream(const HmacKey& key, u64 sequence, std::span<const u8> in,
                    std::span<u8> out);

  Sha256Digest send_key_;
  Sha256Digest recv_key_;
  // Precomputed-pad HMAC keys (see HmacKey): every keystream block and
  // record tag skips the two pad compressions a fresh HMAC would pay.
  HmacKey send_mac_;
  HmacKey recv_mac_;
  u64 send_seq_ = 0;
  u64 recv_seq_ = 0;
  ChannelStats stats_;
  EventTrace* trace_ = nullptr;
  const SimClock* trace_clock_ = nullptr;
  std::string trace_source_;
};

// Resumption state from a full handshake: a master secret both ends share,
// salted by a resumption counter so every resumed session gets fresh
// traffic keys.
struct SessionTicket {
  Sha256Digest master{};
  u64 resumptions = 0;
  bool peer_is_guillotine = false;  // carried over from the full handshake
};

struct HandshakeResult {
  SecureChannel client_channel;
  SecureChannel server_channel;
  bool peer_is_guillotine = false;  // what the client learned about the server
  HandshakeStats stats;
  SessionTicket ticket;
};

// Runs the full handshake between `client` and `server`, verifying both
// certificates against `regulator_ca` at time `now`. Enforces the
// Guillotine-refuses-Guillotine policy in both directions. On success the
// two SecureChannel objects hold matching traffic keys.
Result<HandshakeResult> Handshake(const EndpointIdentity& client,
                                  const EndpointIdentity& server,
                                  const SimSigPublicKey& regulator_ca, Cycles now,
                                  Rng& rng);

// Session resumption (TLS-1.3-PSK-shaped): derives fresh traffic keys from
// `ticket` — two hashes, zero certificate or transcript signature
// operations — and advances the ticket's resumption counter. This is the
// handshake-amortization path: a host-pair channel cache full-handshakes
// once, then reconnects through here for the deployment's lifetime.
Result<HandshakeResult> ResumeHandshake(SessionTicket& ticket);

// Builds an endpoint identity: generates a keypair and a certificate signed
// by `issuer` (set guillotine=true to add the hypervisor extension).
EndpointIdentity MakeEndpoint(std::string subject, const SimSigKeyPair& issuer,
                              std::string issuer_name, bool guillotine,
                              Cycles not_before, Cycles not_after, Rng& rng);

}  // namespace guillotine

#endif  // SRC_NET_SECURE_CHANNEL_H_
