// FederatedFleet: N GuillotineSystem deployments as distinct hosts on ONE
// shared NetFabric, fronted by a router tier that forwards inference
// requests to remote replicas over SecureChannel (paper section 3.3: every
// cross-deployment hop runs an encrypted, authenticated, Guillotine-
// identifying channel — never around it).
//
// Ring membership is attestation-gated: a host joins only after the router
// challenges it with a fresh nonce, the host quotes its measured platform
// (MeasurementRegister + device key), and the router's AttestationVerifier
// accepts the quote. An unattested host — broken seal, stale nonce, rogue
// measurement, unknown device key — never joins and never gets a channel.
//
// The cross-host path is then made fast in three measured layers:
//   1. Handshake amortization: a per-host-pair channel cache. The pair pays
//      one full SimSig handshake at join; reconnects (e.g. after a severed
//      cable heals) go through ResumeHandshake — zero signature operations —
//      so steady-state traffic performs no Handshake invocations at all.
//   2. Record coalescing: each pump quantum the router drains up to
//      `batch_window` queued requests per host into ONE SealBatch record —
//      one keystream schedule + one HMAC tag amortized across the batch,
//      with HmacKey midstate caching underneath (byte-identical ciphertext
//      to the serial path).
//   3. Vectored framing: a coalesced record crosses the fabric as ONE
//      in-flight frame, so frames-per-request falls with the batch size
//      (NetFabric::sent() is the bench's evidence).
//
// Transport cycles are charged from measured crypto work — deltas of
// Sha256::compressions() times kCyclesPerSha256Compression, plus handshake
// stats and per-frame propagation — so all three optimizations show up
// directly in FABRICBENCH's req/Gcycle.
#ifndef SRC_CORE_FEDERATION_H_
#define SRC_CORE_FEDERATION_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/guillotine.h"
#include "src/crypto/attest.h"
#include "src/net/secure_channel.h"

namespace guillotine {

// Simulated cost of one SHA-256 compression round on the crypto block.
inline constexpr Cycles kCyclesPerSha256Compression = 200;

// Fault-injection modes for Join (mirrors kSnapshotTamperModes): "none"
// joins cleanly; "seal" quotes with a broken tamper-evident seal;
// "nonce" answers the challenge with a stale nonce; "measurement" extends
// the platform measurement with a rogue component.
inline constexpr std::string_view kJoinTamperModes[] = {"none", "seal",
                                                        "nonce", "measurement"};

struct FederationConfig {
  size_t num_hosts = 2;
  size_t batch_window = 8;  // max requests coalesced per record per host
  DeploymentConfig deployment;  // member template; seed/host id offset by i
};

struct FederationStats {
  u64 submitted = 0;
  u64 completed = 0;  // responses back at the router (ok or refused remotely)
  u64 failed = 0;     // completed but refused by the remote deployment
  u64 lost = 0;       // outstanding on a host severed mid-stream
  u64 full_handshakes = 0;
  u64 resumed_handshakes = 0;
  u64 join_refusals = 0;
  u64 records_routed = 0;   // request records sealed + sent by the router
  u64 record_failures = 0;  // records a host or the router refused to open
  Cycles transport_cycles = 0;  // crypto (measured) + propagation + handshakes
  Cycles serve_cycles = 0;      // remote deployments' Infer busy time
};

struct FederatedResponse {
  u64 id = 0;
  bool ok = false;
  std::string text;
};

class FederatedFleet {
 public:
  explicit FederatedFleet(FederationConfig config);
  FederatedFleet(const FederatedFleet&) = delete;
  FederatedFleet& operator=(const FederatedFleet&) = delete;
  ~FederatedFleet();

  // Attaches devices and attestation-loads `model` into every member (each
  // member self-verifies; see GuillotineFleet::HostEverywhere).
  Status HostEverywhere(const MlpModel& model);

  // Attestation-gated ring admission. `tamper` is a kJoinTamperModes name;
  // everything except "none" must be refused (the member stays out of the
  // ring, no channel is established, stats().join_refusals grows). Join,
  // HealHost and RemoteRoundTrip refuse a `member` >= size() as
  // InvalidArgument; SeverHost ignores one.
  Status Join(size_t member, std::string_view tamper = "none");
  Status JoinAll();

  // ---- Router request path ----
  void Submit(std::string prompt);
  // One quantum: the router flushes queued requests (up to batch_window per
  // host, one coalesced record per host), time advances, the fabric pumps.
  // A full round trip takes two pumps at the default propagation delay.
  void PumpOnce();
  // Pumps until every submitted request is completed or lost (bounded by
  // `max_pumps`). Returns the number of newly completed responses.
  u64 RunUntilDrained(u64 max_pumps = 10'000);
  // Completed responses accumulated since the last take, submission order.
  std::vector<FederatedResponse> TakeResponses();

  // ---- Mid-stream severance (the cable is cut) ----
  // Outstanding requests on the member die with the in-flight frames; the
  // router stops routing to it.
  void SeverHost(size_t member);
  // Reconnects the healed member through session resumption (fresh traffic
  // keys from the cached ticket, zero signature operations).
  Status HealHost(size_t member);

  // Synchronous per-request round trip over the secure channel to `member`
  // (the batch=1 slow path). Used by the RemoteReplica transports so a
  // front-end ModelService can dispatch straight into the federation.
  Result<std::string> RemoteRoundTrip(size_t member, const std::string& prompt,
                                      Cycles& cycles);
  // Transport adapter for `member`, for ModelService::AddReplica wiring.
  // Throws std::out_of_range for a `member` >= size(), as system() does.
  InferenceTransport& transport(size_t member);

  // ---- Introspection ----
  size_t size() const { return members_.size(); }
  GuillotineSystem& system(size_t member);
  const FederationStats& stats() const { return stats_; }
  NetFabric& fabric() { return fabric_; }
  const EventTrace& trace() const { return trace_; }

 private:
  struct Member;

  void AttachMemberHost(size_t member);
  void OnHostFrame(size_t member, const Frame& frame);
  void OnRouterFrame(const Frame& frame);
  void FlushToMember(size_t member);
  void ChargeCompressionsSince(u64 baseline);

  FederationConfig config_;
  SimClock clock_;
  EventTrace trace_;
  Rng rng_;
  NetFabric fabric_;
  SimSigKeyPair regulator_key_;
  EndpointIdentity router_ep_;
  AttestationVerifier verifier_;
  FederationStats stats_;
  std::vector<std::unique_ptr<Member>> members_;
  GuillotineFleet fleet_;  // the member deployments, one per host
  std::deque<std::pair<u64, std::string>> pending_;  // (id, prompt) at router
  std::vector<FederatedResponse> completed_;
  u64 next_request_id_ = 1;
  size_t next_flush_ = 0;  // rotating flush origin for fair host assignment
};

}  // namespace guillotine

#endif  // SRC_CORE_FEDERATION_H_
