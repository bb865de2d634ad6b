#include "src/net/secure_channel.h"

#include <algorithm>
#include <array>

namespace guillotine {

namespace {

std::span<const u8> DigestSpan(const Sha256Digest& d) {
  return std::span<const u8>(d.data(), d.size());
}

}  // namespace

SecureChannel::SecureChannel(Sha256Digest send_key, Sha256Digest recv_key)
    : send_key_(send_key),
      recv_key_(recv_key),
      send_mac_(DigestSpan(send_key_)),
      recv_mac_(DigestSpan(recv_key_)) {}

void SecureChannel::BindTrace(EventTrace* trace, const SimClock* clock,
                              std::string source) {
  trace_ = trace;
  trace_clock_ = clock;
  trace_source_ = std::move(source);
}

void SecureChannel::XorKeystream(const HmacKey& key, u64 sequence,
                                 std::span<const u8> in, std::span<u8> out) {
  // Block i of the keystream is HMAC(key, le64(sequence) || le64(i)), the
  // PutU64 encoding.
  std::array<u8, 16> counter;
  for (int i = 0; i < 8; ++i) {
    counter[i] = static_cast<u8>(sequence >> (8 * i));
  }
  for (size_t offset = 0, block = 0; offset < in.size(); offset += 32, ++block) {
    for (int i = 0; i < 8; ++i) {
      counter[8 + i] = static_cast<u8>(block >> (8 * i));
    }
    const Sha256Digest ks = key.Mac(counter);
    const size_t n = std::min<size_t>(32, in.size() - offset);
    for (size_t i = 0; i < n; ++i) {
      out[offset + i] = in[offset + i] ^ ks[i];
    }
    ++stats_.keystream_blocks;
  }
}

SecureChannel::Record SecureChannel::Seal(std::span<const u8> plaintext) {
  Record record;
  record.sequence = send_seq_++;
  record.ciphertext.resize(plaintext.size());
  XorKeystream(send_mac_, record.sequence, plaintext, record.ciphertext);
  Bytes mac_input;
  PutU64(mac_input, record.sequence);
  mac_input.insert(mac_input.end(), record.ciphertext.begin(), record.ciphertext.end());
  record.tag = send_mac_.Mac(std::span<const u8>(mac_input.data(), mac_input.size()));
  ++stats_.records_sealed;
  return record;
}

Result<Bytes> SecureChannel::Open(const Record& record) {
  if (record.sequence != recv_seq_) {
    ++stats_.replays_rejected;
    if (trace_ != nullptr) {
      trace_->Event(trace_clock_ != nullptr ? trace_clock_->now() : 0,
                    TraceCategory::kSecurity, trace_source_, "channel.replay",
                    "record sequence {} != expected {}",
                    {record.sequence, recv_seq_},
                    static_cast<i64>(record.sequence));
    }
    // Deliberately distinct from the kUnauthenticated MAC-mismatch below:
    // a replayed or reordered record is a channel-state violation the
    // cached-channel fast path must surface as such.
    return FailedPrecondition(
        "replayed or out-of-order record: got sequence " +
        std::to_string(record.sequence) + ", expected " +
        std::to_string(recv_seq_));
  }
  Bytes mac_input;
  PutU64(mac_input, record.sequence);
  mac_input.insert(mac_input.end(), record.ciphertext.begin(), record.ciphertext.end());
  const Sha256Digest expect =
      recv_mac_.Mac(std::span<const u8>(mac_input.data(), mac_input.size()));
  if (!DigestEqual(expect, record.tag)) {
    return Unauthenticated("record MAC mismatch");
  }
  ++recv_seq_;
  Bytes plaintext(record.ciphertext.size());
  XorKeystream(recv_mac_, record.sequence, record.ciphertext, plaintext);
  ++stats_.records_opened;
  return plaintext;
}

Bytes SecureChannel::EncodeBatchFrame(const std::vector<Bytes>& payloads) {
  Bytes frame;
  PutU32(frame, static_cast<u32>(payloads.size()));
  for (const Bytes& payload : payloads) {
    PutBytes(frame, std::span<const u8>(payload.data(), payload.size()));
  }
  return frame;
}

Result<std::vector<Bytes>> SecureChannel::DecodeBatchFrame(
    std::span<const u8> frame) {
  ByteReader reader(frame);
  u32 count = 0;
  if (!reader.ReadU32(count)) {
    return InvalidArgument("batch frame truncated before payload count");
  }
  std::vector<Bytes> payloads;
  payloads.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    Bytes payload;
    if (!reader.ReadBytes(payload)) {
      return InvalidArgument("batch frame truncated inside payload " +
                             std::to_string(i));
    }
    payloads.push_back(std::move(payload));
  }
  if (!reader.done()) {
    return InvalidArgument("batch frame carries trailing bytes");
  }
  return payloads;
}

SecureChannel::Record SecureChannel::SealBatch(const std::vector<Bytes>& payloads) {
  const Bytes frame = EncodeBatchFrame(payloads);
  Record record = Seal(std::span<const u8>(frame.data(), frame.size()));
  ++stats_.batches_sealed;
  stats_.payloads_sealed += payloads.size();
  return record;
}

Result<std::vector<Bytes>> SecureChannel::OpenBatch(const Record& record) {
  GLL_ASSIGN_OR_RETURN(Bytes frame, Open(record));
  GLL_ASSIGN_OR_RETURN(
      std::vector<Bytes> payloads,
      DecodeBatchFrame(std::span<const u8>(frame.data(), frame.size())));
  ++stats_.batches_opened;
  stats_.payloads_opened += payloads.size();
  return payloads;
}

EndpointIdentity MakeEndpoint(std::string subject, const SimSigKeyPair& issuer,
                              std::string issuer_name, bool guillotine,
                              Cycles not_before, Cycles not_after, Rng& rng) {
  EndpointIdentity ep;
  ep.key = GenerateKeyPair(rng);
  ep.cert.serial = rng.Next();
  ep.cert.subject = std::move(subject);
  ep.cert.issuer = std::move(issuer_name);
  ep.cert.subject_key = ep.key.pub;
  ep.cert.not_before = not_before;
  ep.cert.not_after = not_after;
  if (guillotine) {
    ep.cert.extensions.push_back(CertExtension{std::string(kGuillotineExtensionKey),
                                               std::string(kGuillotineExtensionValue)});
    ep.refuse_guillotine_peers = true;
  }
  SignCertificate(ep.cert, issuer);
  return ep;
}

Result<HandshakeResult> Handshake(const EndpointIdentity& client,
                                  const EndpointIdentity& server,
                                  const SimSigPublicKey& regulator_ca, Cycles now,
                                  Rng& rng) {
  HandshakeStats stats;

  // ClientHello: nonce + client certificate (certificates are exchanged in
  // both directions; the paper requires the hypervisor to announce itself).
  const u64 client_nonce = rng.Next();
  stats.messages += 1;
  stats.client_cycles += 2'000;

  // Server verifies the client certificate and applies its refusal policy.
  GLL_RETURN_IF_ERROR(VerifyCertificate(client.cert, regulator_ca, now));
  stats.server_cycles += 20'000;  // signature verification
  if (server.refuse_guillotine_peers && client.cert.IsGuillotineHypervisor()) {
    return PermissionDenied(
        "guillotine hypervisor '" + server.cert.subject +
        "' refuses connection from guillotine hypervisor '" + client.cert.subject + "'");
  }

  // ServerHello: nonce + server certificate.
  const u64 server_nonce = rng.Next();
  stats.messages += 1;
  stats.server_cycles += 2'000;

  // Client verifies the server certificate and applies its refusal policy.
  GLL_RETURN_IF_ERROR(VerifyCertificate(server.cert, regulator_ca, now));
  stats.client_cycles += 20'000;
  if (client.refuse_guillotine_peers && server.cert.IsGuillotineHypervisor()) {
    return PermissionDenied(
        "guillotine hypervisor '" + client.cert.subject +
        "' refuses connection to guillotine hypervisor '" + server.cert.subject + "'");
  }

  // Mutual signature over the transcript (identity proof).
  Bytes transcript;
  PutU64(transcript, client_nonce);
  PutU64(transcript, server_nonce);
  PutString(transcript, client.cert.subject);
  PutString(transcript, server.cert.subject);
  const SimSignature client_sig =
      Sign(client.key, std::span<const u8>(transcript.data(), transcript.size()));
  const SimSignature server_sig =
      Sign(server.key, std::span<const u8>(transcript.data(), transcript.size()));
  stats.client_cycles += 30'000;
  stats.server_cycles += 30'000;
  stats.messages += 2;
  if (!Verify(client.cert.subject_key,
              std::span<const u8>(transcript.data(), transcript.size()), client_sig)) {
    return Unauthenticated("client transcript signature invalid");
  }
  if (!Verify(server.cert.subject_key,
              std::span<const u8>(transcript.data(), transcript.size()), server_sig)) {
    return Unauthenticated("server transcript signature invalid");
  }

  // Traffic keys from the transcript (stand-in for the TLS key schedule).
  Bytes c2s_label = transcript;
  PutString(c2s_label, "c2s");
  Bytes s2c_label = transcript;
  PutString(s2c_label, "s2c");
  const Sha256Digest c2s = Sha256::Hash(std::span<const u8>(c2s_label.data(), c2s_label.size()));
  const Sha256Digest s2c = Sha256::Hash(std::span<const u8>(s2c_label.data(), s2c_label.size()));

  // Resumption master secret: both ends can later derive fresh traffic keys
  // from it without another signature exchange.
  Bytes resume_label = transcript;
  PutString(resume_label, "resume");
  SessionTicket ticket;
  ticket.master =
      Sha256::Hash(std::span<const u8>(resume_label.data(), resume_label.size()));
  ticket.peer_is_guillotine = server.cert.IsGuillotineHypervisor();

  HandshakeResult result{SecureChannel(c2s, s2c), SecureChannel(s2c, c2s),
                         server.cert.IsGuillotineHypervisor(), stats,
                         std::move(ticket)};
  return result;
}

Result<HandshakeResult> ResumeHandshake(SessionTicket& ticket) {
  // One message each way carrying the ticket id + resumption counter; both
  // sides derive keys locally. No certificates, no SimSig.
  HandshakeStats stats;
  stats.messages = 2;
  stats.client_cycles = 1'000;
  stats.server_cycles = 1'000;

  Bytes c2s_label;
  PutBytes(c2s_label, std::span<const u8>(ticket.master.data(), ticket.master.size()));
  PutU64(c2s_label, ticket.resumptions);
  Bytes s2c_label = c2s_label;
  PutString(c2s_label, "resume-c2s");
  PutString(s2c_label, "resume-s2c");
  const Sha256Digest c2s =
      Sha256::Hash(std::span<const u8>(c2s_label.data(), c2s_label.size()));
  const Sha256Digest s2c =
      Sha256::Hash(std::span<const u8>(s2c_label.data(), s2c_label.size()));
  ++ticket.resumptions;

  HandshakeResult result{SecureChannel(c2s, s2c), SecureChannel(s2c, c2s),
                         ticket.peer_is_guillotine, stats, ticket};
  return result;
}

}  // namespace guillotine
