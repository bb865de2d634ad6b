#include "src/core/federation.h"

#include <algorithm>

namespace guillotine {

namespace {

constexpr Cycles kEndpointCertLifetime = 3'600 * kCyclesPerSecond;
// Fabric host ids: the router, and member i at kBaseHost + i.
constexpr u32 kRouterHost = 900;
constexpr u32 kBaseHost = 901;
// Shared-fabric time per PumpOnce.
constexpr Cycles kQuantum = 20'000;
constexpr Cycles kPropagationDelay = 5 * kCyclesPerMicro;

u32 HostId(size_t member) { return kBaseHost + static_cast<u32>(member); }

Bytes EncodeRecord(const SecureChannel::Record& record) {
  Bytes out;
  PutU64(out, record.sequence);
  PutBytes(out, std::span<const u8>(record.ciphertext.data(), record.ciphertext.size()));
  PutBytes(out, std::span<const u8>(record.tag.data(), record.tag.size()));
  return out;
}

std::optional<SecureChannel::Record> DecodeRecord(std::span<const u8> payload) {
  ByteReader reader(payload);
  SecureChannel::Record record;
  Bytes tag;
  if (!reader.ReadU64(record.sequence) || !reader.ReadBytes(record.ciphertext) ||
      !reader.ReadBytes(tag) || tag.size() != record.tag.size() || !reader.done()) {
    return std::nullopt;
  }
  std::copy(tag.begin(), tag.end(), record.tag.begin());
  return record;
}

}  // namespace

// Router-side state of one fleet member; its deployment lives in fleet_.
struct FederatedFleet::Member {
  EndpointIdentity ep;
  std::string name;
  bool joined = false;
  bool severed = false;
  std::optional<SessionTicket> ticket;
  std::optional<SecureChannel> router_chan;  // router's end (send = c2s)
  std::optional<SecureChannel> host_chan;    // host's end
  std::vector<u64> outstanding;  // request ids routed but not yet answered
  std::unique_ptr<InferenceTransport> transport;
};

namespace {

class FederationTransport : public InferenceTransport {
 public:
  FederationTransport(FederatedFleet& fleet, size_t member, std::string name)
      : fleet_(fleet), member_(member), name_(std::move(name)) {}

  std::string_view remote_name() const override { return name_; }
  Result<std::string> RoundTrip(const std::string& prompt,
                                Cycles& cycles) override {
    return fleet_.RemoteRoundTrip(member_, prompt, cycles);
  }

 private:
  FederatedFleet& fleet_;
  size_t member_;
  std::string name_;
};

}  // namespace

FederatedFleet::FederatedFleet(FederationConfig config)
    : config_(std::move(config)),
      rng_(config_.deployment.seed ^ 0xFEDFAB1E5ULL),
      fabric_(clock_),
      fleet_(config_.num_hosts, config_.deployment) {
  fabric_.set_propagation_delay(kPropagationDelay);
  regulator_key_ = GenerateKeyPair(rng_);
  router_ep_ = MakeEndpoint("fed-router", regulator_key_, "regulator",
                            /*guillotine=*/false, 0, kEndpointCertLifetime, rng_);
  for (size_t i = 0; i < fleet_.size(); ++i) {
    auto member = std::make_unique<Member>();
    member->name = "fed-host-" + std::to_string(i);
    // Serving hosts are Guillotine hypervisors and announce it; the router
    // front-end is not one, so router<->host handshakes pass the
    // Guillotine-refuses-Guillotine policy while host<->host ones would not.
    member->ep = MakeEndpoint(member->name, regulator_key_, "regulator",
                              /*guillotine=*/true, 0, kEndpointCertLifetime, rng_);
    // Commissioning: the router's golden-value database learns each member's
    // measured platform and device key up front; Join re-measures live.
    MeasurementRegister reg;
    fleet_.system(i).hv().MeasurePlatform(reg);
    verifier_.TrustMeasurement(member->name, reg.value());
    verifier_.TrustDeviceKey(fleet_.system(i).device_key().pub);
    members_.push_back(std::move(member));
  }
  fabric_.AttachHost(kRouterHost,
                     [this](const Frame& frame) { OnRouterFrame(frame); });
}

FederatedFleet::~FederatedFleet() = default;

Status FederatedFleet::HostEverywhere(const MlpModel& model) {
  return fleet_.HostEverywhere(model);
}

void FederatedFleet::ChargeCompressionsSince(u64 baseline) {
  stats_.transport_cycles +=
      (Sha256::compressions() - baseline) * kCyclesPerSha256Compression;
}

void FederatedFleet::AttachMemberHost(size_t member) {
  fabric_.AttachHost(HostId(member), [this, member](const Frame& frame) {
    OnHostFrame(member, frame);
  });
}

Status FederatedFleet::Join(size_t member, std::string_view tamper) {
  if (member >= members_.size()) {
    return InvalidArgument("Join: no such federation member");
  }
  Member& m = *members_[member];
  if (m.joined) {
    return OkStatus();
  }

  // Challenge-response attestation: fresh router nonce, live platform
  // measurement, quote signed by the member's device key.
  const u64 nonce = rng_.Next();
  GuillotineSystem& sys = fleet_.system(member);
  MeasurementRegister reg;
  sys.hv().MeasurePlatform(reg);
  if (tamper == "measurement") {
    reg.Extend("rogue-implant", "unmeasured-component");
  }
  const AttestationQuote quote =
      MakeQuote(reg, tamper == "nonce" ? nonce ^ 1 : nonce,
                /*seal_intact=*/tamper != "seal", sys.device_key());
  const Status verdict = verifier_.VerifyQuote(quote, nonce);
  if (!verdict.ok()) {
    ++stats_.join_refusals;
    trace_.Record(clock_.now(), TraceCategory::kAttestation, "fed-router",
                  "federation.join_refused", m.name + ": " + verdict.message(),
                  static_cast<i64>(member));
    return verdict;
  }

  // The one full handshake this host pair will ever pay: every later
  // reconnect resumes from the ticket.
  const u64 comp0 = Sha256::compressions();
  Result<HandshakeResult> hs =
      Handshake(router_ep_, m.ep, regulator_key_.pub, clock_.now(), rng_);
  if (!hs.ok()) {
    ++stats_.join_refusals;
    return hs.status();
  }
  ChargeCompressionsSince(comp0);
  stats_.transport_cycles += hs->stats.client_cycles + hs->stats.server_cycles;
  ++stats_.full_handshakes;
  m.ticket = hs->ticket;
  m.router_chan.emplace(std::move(hs->client_channel));
  m.host_chan.emplace(std::move(hs->server_channel));
  m.router_chan->BindTrace(&trace_, &clock_, "fed-router");
  m.host_chan->BindTrace(&trace_, &clock_, m.name);
  AttachMemberHost(member);
  m.joined = true;
  trace_.Event(clock_.now(), TraceCategory::kAttestation, "fed-router",
               "federation.join", "{}", {m.name}, static_cast<i64>(member));
  return OkStatus();
}

Status FederatedFleet::JoinAll() {
  for (size_t i = 0; i < members_.size(); ++i) {
    GLL_RETURN_IF_ERROR(Join(i));
  }
  return OkStatus();
}

GuillotineSystem& FederatedFleet::system(size_t member) {
  return fleet_.system(member);
}

void FederatedFleet::Submit(std::string prompt) {
  pending_.emplace_back(next_request_id_++, std::move(prompt));
  ++stats_.submitted;
}

void FederatedFleet::FlushToMember(size_t member) {
  Member& m = *members_[member];
  if (!m.joined || m.severed || pending_.empty()) {
    return;
  }
  std::vector<Bytes> payloads;
  std::vector<u64> ids;
  while (!pending_.empty() && payloads.size() < config_.batch_window) {
    auto [id, prompt] = std::move(pending_.front());
    pending_.pop_front();
    Bytes payload;
    PutU64(payload, id);
    PutString(payload, prompt);
    payloads.push_back(std::move(payload));
    ids.push_back(id);
  }
  const u64 comp0 = Sha256::compressions();
  const SecureChannel::Record record = m.router_chan->SealBatch(payloads);
  ChargeCompressionsSince(comp0);
  stats_.transport_cycles += kPropagationDelay;  // the request frame
  ++stats_.records_routed;
  m.outstanding.insert(m.outstanding.end(), ids.begin(), ids.end());
  fabric_.Send(Frame{kRouterHost, HostId(member), EncodeRecord(record)});
}

void FederatedFleet::PumpOnce() {
  // Rotate the flush origin so short queues spread across hosts over time.
  const size_t n = members_.size();
  for (size_t k = 0; k < n; ++k) {
    FlushToMember((next_flush_ + k) % n);
  }
  if (n > 0) {
    next_flush_ = (next_flush_ + 1) % n;
  }
  clock_.Advance(kQuantum);
  fabric_.Pump();
}

u64 FederatedFleet::RunUntilDrained(u64 max_pumps) {
  const u64 completed0 = stats_.completed;
  for (u64 pump = 0; pump < max_pumps; ++pump) {
    bool outstanding = !pending_.empty();
    for (const auto& member : members_) {
      outstanding = outstanding || !member->outstanding.empty();
    }
    if (!outstanding) {
      break;
    }
    bool routable = false;
    for (const auto& member : members_) {
      routable = routable || (member->joined && !member->severed);
    }
    if (!routable) {
      break;  // nothing can drain the queue; don't spin to max_pumps
    }
    PumpOnce();
  }
  return stats_.completed - completed0;
}

std::vector<FederatedResponse> FederatedFleet::TakeResponses() {
  std::vector<FederatedResponse> out = std::move(completed_);
  completed_.clear();
  std::sort(out.begin(), out.end(),
            [](const FederatedResponse& a, const FederatedResponse& b) {
              return a.id < b.id;
            });
  return out;
}

void FederatedFleet::OnHostFrame(size_t member, const Frame& frame) {
  Member& m = *members_[member];
  const std::optional<SecureChannel::Record> record =
      DecodeRecord(std::span<const u8>(frame.payload.data(), frame.payload.size()));
  if (!record.has_value() || !m.host_chan.has_value()) {
    ++stats_.record_failures;
    return;
  }
  const u64 comp0 = Sha256::compressions();
  Result<std::vector<Bytes>> payloads = m.host_chan->OpenBatch(*record);
  ChargeCompressionsSince(comp0);
  if (!payloads.ok()) {
    ++stats_.record_failures;
    return;
  }
  std::vector<Bytes> responses;
  responses.reserve(payloads->size());
  for (const Bytes& payload : *payloads) {
    ByteReader reader(std::span<const u8>(payload.data(), payload.size()));
    u64 id = 0;
    std::string prompt;
    if (!reader.ReadU64(id) || !reader.ReadString(prompt)) {
      ++stats_.record_failures;
      continue;
    }
    GuillotineSystem& sys = fleet_.system(member);
    const Cycles serve_start = sys.clock().now();
    const Result<std::string> result = sys.Infer(prompt);
    stats_.serve_cycles += sys.clock().now() - serve_start;
    Bytes response;
    PutU64(response, id);
    PutU32(response, result.ok() ? 1 : 0);
    PutString(response, result.ok() ? *result : result.status().message());
    responses.push_back(std::move(response));
  }
  const u64 comp1 = Sha256::compressions();
  const SecureChannel::Record reply = m.host_chan->SealBatch(responses);
  ChargeCompressionsSince(comp1);
  stats_.transport_cycles += kPropagationDelay;  // the response frame
  fabric_.Send(Frame{HostId(member), kRouterHost, EncodeRecord(reply)});
}

void FederatedFleet::OnRouterFrame(const Frame& frame) {
  if (frame.src_host < kBaseHost ||
      frame.src_host >= kBaseHost + static_cast<u32>(members_.size())) {
    ++stats_.record_failures;
    return;
  }
  Member& m = *members_[frame.src_host - kBaseHost];
  const std::optional<SecureChannel::Record> record =
      DecodeRecord(std::span<const u8>(frame.payload.data(), frame.payload.size()));
  if (!record.has_value() || !m.router_chan.has_value()) {
    ++stats_.record_failures;
    return;
  }
  const u64 comp0 = Sha256::compressions();
  Result<std::vector<Bytes>> payloads = m.router_chan->OpenBatch(*record);
  ChargeCompressionsSince(comp0);
  if (!payloads.ok()) {
    ++stats_.record_failures;
    return;
  }
  for (const Bytes& payload : *payloads) {
    ByteReader reader(std::span<const u8>(payload.data(), payload.size()));
    u64 id = 0;
    u32 ok_flag = 0;
    std::string text;
    if (!reader.ReadU64(id) || !reader.ReadU32(ok_flag) || !reader.ReadString(text)) {
      ++stats_.record_failures;
      continue;
    }
    completed_.push_back(FederatedResponse{id, ok_flag != 0, std::move(text)});
    ++stats_.completed;
    if (ok_flag == 0) {
      ++stats_.failed;
    }
    const auto it = std::find(m.outstanding.begin(), m.outstanding.end(), id);
    if (it != m.outstanding.end()) {
      m.outstanding.erase(it);
    }
  }
}

void FederatedFleet::SeverHost(size_t member) {
  if (member >= members_.size()) {
    return;
  }
  Member& m = *members_[member];
  if (m.severed) {
    return;
  }
  fabric_.SetHostSevered(HostId(member), true);
  m.severed = true;
  stats_.lost += m.outstanding.size();
  trace_.Event(clock_.now(), TraceCategory::kPhysical, "fed-router",
               "federation.sever", "{}", {m.name},
               static_cast<i64>(m.outstanding.size()));
  m.outstanding.clear();
}

Status FederatedFleet::HealHost(size_t member) {
  if (member >= members_.size()) {
    return InvalidArgument("HealHost: no such federation member");
  }
  Member& m = *members_[member];
  if (!m.severed) {
    return OkStatus();
  }
  fabric_.SetHostSevered(HostId(member), false);
  m.severed = false;
  if (!m.joined || !m.ticket.has_value()) {
    return OkStatus();  // never joined; a future Join pays the full handshake
  }
  // Frames died mid-stream, so both record sequences are unsynchronized;
  // resumption re-keys the pair from the cached ticket with zero signature
  // operations — the handshake-amortization path under fault recovery.
  const u64 comp0 = Sha256::compressions();
  Result<HandshakeResult> hs = ResumeHandshake(*m.ticket);
  if (!hs.ok()) {
    return hs.status();
  }
  ChargeCompressionsSince(comp0);
  stats_.transport_cycles += hs->stats.client_cycles + hs->stats.server_cycles;
  ++stats_.resumed_handshakes;
  m.router_chan.emplace(std::move(hs->client_channel));
  m.host_chan.emplace(std::move(hs->server_channel));
  m.router_chan->BindTrace(&trace_, &clock_, "fed-router");
  m.host_chan->BindTrace(&trace_, &clock_, m.name);
  trace_.Event(clock_.now(), TraceCategory::kAttestation, "fed-router",
               "federation.resume", "{}", {m.name}, static_cast<i64>(member));
  return OkStatus();
}

Result<std::string> FederatedFleet::RemoteRoundTrip(size_t member,
                                                    const std::string& prompt,
                                                    Cycles& cycles) {
  if (member >= members_.size()) {
    return InvalidArgument("RemoteRoundTrip: no such federation member");
  }
  Member& m = *members_[member];
  if (!m.joined) {
    return FailedPrecondition("member " + m.name + " has not joined the ring");
  }
  if (m.severed) {
    return Unavailable("member " + m.name + " is severed");
  }
  const Cycles start = clock_.now();
  const u64 id = next_request_id_++;
  ++stats_.submitted;
  Bytes payload;
  PutU64(payload, id);
  PutString(payload, prompt);
  const u64 comp0 = Sha256::compressions();
  const SecureChannel::Record record = m.router_chan->SealBatch({payload});
  ChargeCompressionsSince(comp0);
  stats_.transport_cycles += kPropagationDelay;
  ++stats_.records_routed;
  m.outstanding.push_back(id);
  fabric_.Send(Frame{kRouterHost, HostId(member), EncodeRecord(record)});
  // The synchronous slow path: advance shared time until the reply lands
  // (one quantum out, one back at the default propagation delay).
  for (int pump = 0; pump < 64; ++pump) {
    clock_.Advance(kQuantum);
    fabric_.Pump();
    for (auto it = completed_.begin(); it != completed_.end(); ++it) {
      if (it->id != id) {
        continue;
      }
      const FederatedResponse response = std::move(*it);
      completed_.erase(it);
      cycles = clock_.now() - start;
      if (!response.ok) {
        return Aborted("remote deployment refused: " + response.text);
      }
      return response.text;
    }
    if (m.severed) {
      break;  // the request died with the cable
    }
  }
  cycles = clock_.now() - start;
  return Unavailable("no response from " + m.name + " (frame lost or severed)");
}

InferenceTransport& FederatedFleet::transport(size_t member) {
  Member& m = *members_.at(member);
  if (m.transport == nullptr) {
    m.transport = std::make_unique<FederationTransport>(*this, member, m.name);
  }
  return *m.transport;
}

}  // namespace guillotine
