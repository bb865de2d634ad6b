// Tests for src/core/federation: attestation-gated ring membership, the
// coalesced cross-host serving path, handshake amortization (full handshake
// exactly once per host pair, resumption after severance), mid-stream
// severance loss accounting, and RemoteReplica dispatch through a front-end
// ModelService.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <tuple>

#include "src/core/federation.h"
#include "src/service/service.h"

namespace guillotine {
namespace {

FederationConfig FleetConfig(size_t hosts, size_t batch_window = 8) {
  FederationConfig fc;
  fc.num_hosts = hosts;
  fc.batch_window = batch_window;
  fc.deployment.console.heartbeat.period = 100'000;
  fc.deployment.console.heartbeat.timeout = 10'000'000'000ULL;  // effectively off
  return fc;
}

MlpModel TestModel(u64 seed = 9) {
  Rng rng(seed);
  return MlpModel::Random({8, 16, 4}, rng);
}

TEST(FederationTest, CleanJoinEstablishesChannelsOnce) {
  FederatedFleet fleet(FleetConfig(2));
  ASSERT_TRUE(fleet.HostEverywhere(TestModel()).ok());
  Cycles cycles = 0;
  EXPECT_EQ(fleet.RemoteRoundTrip(0, "before join", cycles).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fleet.JoinAll().ok());
  EXPECT_EQ(fleet.stats().full_handshakes, 2u);
  EXPECT_EQ(fleet.stats().join_refusals, 0u);
  EXPECT_EQ(fleet.trace().CountKind("federation.join"), 2u);
  // Both channels carry a round trip.
  EXPECT_TRUE(fleet.RemoteRoundTrip(0, "joined", cycles).ok());
  EXPECT_TRUE(fleet.RemoteRoundTrip(1, "joined", cycles).ok());
  // Joining again is a no-op: the channel cache means no second handshake.
  ASSERT_TRUE(fleet.Join(0).ok());
  EXPECT_EQ(fleet.stats().full_handshakes, 2u);
}

TEST(FederationTest, TamperedQuotesNeverJoinTheRing) {
  for (const std::string_view tamper : kJoinTamperModes) {
    if (tamper == "none") {
      continue;
    }
    FederatedFleet fleet(FleetConfig(1));
    ASSERT_TRUE(fleet.HostEverywhere(TestModel()).ok());
    const Status joined = fleet.Join(0, tamper);
    EXPECT_FALSE(joined.ok()) << "tamper=" << tamper;
    // Not in the ring, no handshake, a refusal on the books, and an audit
    // event.
    Cycles cycles = 0;
    EXPECT_EQ(fleet.RemoteRoundTrip(0, "who are you", cycles).status().code(),
              StatusCode::kFailedPrecondition)
        << "tamper=" << tamper;
    EXPECT_EQ(fleet.stats().full_handshakes, 0u) << "tamper=" << tamper;
    EXPECT_EQ(fleet.stats().join_refusals, 1u) << "tamper=" << tamper;
    EXPECT_EQ(fleet.trace().CountKind("federation.join_refused"), 1u)
        << "tamper=" << tamper;
    // An unattested host gets no traffic either.
    fleet.Submit("who are you");
    EXPECT_EQ(fleet.RunUntilDrained(16), 0u) << "tamper=" << tamper;
    EXPECT_EQ(fleet.stats().records_routed, 0u) << "tamper=" << tamper;
  }
}

TEST(FederationTest, CrossHostServingCompletesWithCorrectResponses) {
  FederatedFleet fleet(FleetConfig(2));
  ASSERT_TRUE(fleet.HostEverywhere(TestModel()).ok());
  ASSERT_TRUE(fleet.JoinAll().ok());
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    fleet.Submit("summarize shard " + std::to_string(i % 3));
  }
  EXPECT_EQ(fleet.RunUntilDrained(), static_cast<u64>(kRequests));
  const std::vector<FederatedResponse> responses = fleet.TakeResponses();
  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(responses[static_cast<size_t>(i)].id, static_cast<u64>(i + 1));
    EXPECT_TRUE(responses[static_cast<size_t>(i)].ok);
    EXPECT_FALSE(responses[static_cast<size_t>(i)].text.empty());
  }
  // The member deployments serve identical models, so identical prompts got
  // identical answers wherever they were routed.
  EXPECT_EQ(responses[0].text, responses[3].text);
  EXPECT_EQ(responses[1].text, responses[4].text);
  const FederationStats& stats = fleet.stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.lost, 0u);
  EXPECT_GT(stats.serve_cycles, 0u);
  EXPECT_GT(stats.transport_cycles, 0u);
}

TEST(FederationTest, SteadyStateTrafficPaysNoFurtherHandshakes) {
  FederatedFleet fleet(FleetConfig(2, /*batch_window=*/4));
  ASSERT_TRUE(fleet.HostEverywhere(TestModel()).ok());
  ASSERT_TRUE(fleet.JoinAll().ok());
  const u64 handshakes_after_join = fleet.stats().full_handshakes;
  EXPECT_EQ(handshakes_after_join, 2u);  // exactly one per host pair
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 10; ++i) {
      fleet.Submit("round " + std::to_string(round) + " req " + std::to_string(i));
    }
    fleet.RunUntilDrained();
  }
  EXPECT_EQ(fleet.stats().completed, 40u);
  // Handshake amortization: 40 cross-host requests, zero new handshakes.
  EXPECT_EQ(fleet.stats().full_handshakes, handshakes_after_join);
  EXPECT_EQ(fleet.stats().resumed_handshakes, 0u);
  // Record coalescing: far fewer sealed records than requests.
  EXPECT_LT(fleet.stats().records_routed, 40u);
  // Vectored framing: one frame per record each way, so the fabric carried
  // 2 * records_routed frames, not 2 * requests.
  EXPECT_EQ(fleet.fabric().sent(), 2 * fleet.stats().records_routed);
}

TEST(FederationTest, SeveranceLosesInFlightWorkAndResumptionRecovers) {
  FederatedFleet fleet(FleetConfig(2));
  ASSERT_TRUE(fleet.HostEverywhere(TestModel()).ok());
  ASSERT_TRUE(fleet.JoinAll().ok());
  for (int i = 0; i < 6; ++i) {
    fleet.Submit("pre-sever " + std::to_string(i));
  }
  // One pump routes the requests; the replies are still mid-cable when the
  // cut lands on member 0.
  fleet.PumpOnce();
  const u64 dropped_before = fleet.fabric().dropped();
  fleet.SeverHost(0);
  EXPECT_GT(fleet.stats().lost, 0u);
  EXPECT_GT(fleet.fabric().dropped(), dropped_before);
  EXPECT_EQ(fleet.trace().CountKind("federation.sever"), 1u);
  // The survivor keeps serving.
  Cycles cycles = 0;
  EXPECT_EQ(fleet.RemoteRoundTrip(0, "during outage", cycles).status().code(),
            StatusCode::kUnavailable);
  fleet.Submit("during outage");
  fleet.RunUntilDrained();
  EXPECT_EQ(fleet.stats().full_handshakes, 2u);
  // Healing re-keys through resumption — not a new full handshake.
  ASSERT_TRUE(fleet.HealHost(0).ok());
  EXPECT_EQ(fleet.stats().resumed_handshakes, 1u);
  EXPECT_EQ(fleet.stats().full_handshakes, 2u);
  EXPECT_EQ(fleet.trace().CountKind("federation.resume"), 1u);
  const u64 completed_before = fleet.stats().completed;
  for (int i = 0; i < 8; ++i) {
    fleet.Submit("post-heal " + std::to_string(i));
  }
  fleet.RunUntilDrained();
  EXPECT_EQ(fleet.stats().completed - completed_before, 8u);
  // Lost requests stay lost: completed + lost == submitted.
  EXPECT_EQ(fleet.stats().completed + fleet.stats().lost, fleet.stats().submitted);
}

TEST(FederationTest, OutOfRangeMemberIsRefusedAndChangesNothing) {
  FederatedFleet fleet(FleetConfig(2));
  ASSERT_TRUE(fleet.HostEverywhere(TestModel()).ok());
  ASSERT_TRUE(fleet.JoinAll().ok());
  const size_t missing = fleet.size();
  EXPECT_EQ(fleet.Join(missing).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.HealHost(missing).code(), StatusCode::kInvalidArgument);
  Cycles cycles = 0;
  EXPECT_EQ(fleet.RemoteRoundTrip(missing, "anyone there", cycles).status().code(),
            StatusCode::kInvalidArgument);
  fleet.SeverHost(missing);  // ignored
  EXPECT_THROW(fleet.transport(missing), std::out_of_range);
  EXPECT_THROW(fleet.system(missing), std::out_of_range);
  GuillotineFleet local(1, DeploymentConfig{});
  EXPECT_THROW(local.system(1), std::out_of_range);
  EXPECT_EQ(fleet.trace().CountKind("federation.sever"), 0u);
  EXPECT_EQ(fleet.stats().submitted, 0u);
  EXPECT_EQ(fleet.stats().full_handshakes, 2u);
  // The members in range still serve.
  EXPECT_TRUE(fleet.RemoteRoundTrip(1, "still here", cycles).ok());
}

TEST(FederationTest, RemoteReplicaServesThroughModelService) {
  FederatedFleet fleet(FleetConfig(2));
  ASSERT_TRUE(fleet.HostEverywhere(TestModel()).ok());
  ASSERT_TRUE(fleet.JoinAll().ok());
  ModelServiceConfig svc;
  svc.num_shards = 2;
  ModelService service(svc);
  RemoteReplica r0(fleet.transport(0), "remote-0");
  RemoteReplica r1(fleet.transport(1), "remote-1");
  service.AddReplica(&r0, 0);
  service.AddReplica(&r1, 1);
  std::vector<InferenceRequest> requests;
  for (u64 i = 0; i < 8; ++i) {
    requests.push_back(InferenceRequest{i + 1, "front-end req " + std::to_string(i), 0, 0});
  }
  const ContinuousReport report = service.RunAll(std::move(requests));
  EXPECT_EQ(report.completed, 8u);
  EXPECT_EQ(report.failed, 0u);
  // Both remote members served.
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_GT(report.shards[0].completed, 0u);
  EXPECT_GT(report.shards[1].completed, 0u);
  // Every front-end request went over the wire as its own record (the
  // batch=1 slow path the coalesced pump exists to beat).
  EXPECT_EQ(fleet.stats().records_routed, 8u);
  // A severed remote surfaces as an unavailable replica, not a hang.
  fleet.SeverHost(0);
  Cycles cycles = 0;
  const Result<std::string> refused = fleet.transport(0).RoundTrip("hello", cycles);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
}

TEST(FederationTest, RerunsAreByteIdentical) {
  auto run_digest = [] {
    FederatedFleet fleet(FleetConfig(2));
    if (!fleet.HostEverywhere(TestModel()).ok() || !fleet.JoinAll().ok()) {
      return std::pair<u64, u64>{0, 0};
    }
    for (int i = 0; i < 9; ++i) {
      fleet.Submit("digest req " + std::to_string(i));
    }
    fleet.RunUntilDrained();
    fleet.SeverHost(1);
    (void)fleet.HealHost(1);
    fleet.Submit("after heal");
    fleet.RunUntilDrained();
    u64 hash = 1469598103934665603ULL;
    for (const TraceEvent& e : fleet.trace().events()) {
      for (const char c : e.kind + e.detail + std::to_string(e.time)) {
        hash ^= static_cast<u8>(c);
        hash *= 1099511628211ULL;
      }
    }
    return std::pair<u64, u64>{hash, fleet.stats().completed};
  };
  const auto first = run_digest();
  const auto second = run_digest();
  ASSERT_GT(first.second, 0u);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

// Transport cycles are charged from this thread's SHA-256 compression
// deltas, so two fleets serving side by side on two threads must each read
// exactly what a solo run reads.
TEST(FederationTest, ConcurrentFleetsChargeOnlyTheirOwnCrypto) {
  auto serve = [] {
    FederatedFleet fleet(FleetConfig(2));
    FederationStats stats;
    if (!fleet.HostEverywhere(TestModel()).ok() || !fleet.JoinAll().ok()) {
      return stats;
    }
    for (int i = 0; i < 200; ++i) {
      fleet.Submit("concurrent req " + std::to_string(i));
    }
    fleet.RunUntilDrained();
    return fleet.stats();
  };
  auto fields = [](const FederationStats& s) {
    return std::make_tuple(s.submitted, s.completed, s.failed, s.lost,
                           s.full_handshakes, s.resumed_handshakes,
                           s.join_refusals, s.records_routed,
                           s.record_failures, s.transport_cycles,
                           s.serve_cycles);
  };
  const FederationStats solo = serve();
  ASSERT_EQ(solo.completed, 200u);
  ASSERT_GT(solo.transport_cycles, 0u);
  FederationStats a;
  FederationStats b;
  std::thread ta([&] { a = serve(); });
  std::thread tb([&] { b = serve(); });
  ta.join();
  tb.join();
  EXPECT_EQ(fields(a), fields(solo));
  EXPECT_EQ(fields(b), fields(solo));
}

}  // namespace
}  // namespace guillotine
