// RAG-backed model service: the paper's section 2 workload — request queues,
// replicas, KV cache, and retrieval-augmented generation — running on top of
// a Guillotine deployment. Retrievals flow through the port API, so every
// document the model pulls is in the audit log.
//
//   $ ./examples/rag_service
#include <cstdio>
#include <cstdlib>

#include "src/core/guillotine.h"
#include "src/service/service.h"

using namespace guillotine;

namespace {

// Stops the example when a step its output depends on did not run.
void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    std::printf("%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  std::printf("== RAG model service on Guillotine ==\n\n");

  // Knowledge base served through the RagStore device.
  RagStore knowledge(16);
  knowledge.AddText("runbook: restart the ingestion pipeline with ops restart");
  knowledge.AddText("policy: customer data is retained for 90 days");
  knowledge.AddText("oncall: page the storage team for raid degradation");
  knowledge.AddText("faq: the api rate limit is 100 requests per minute");
  knowledge.AddText("runbook: rotate credentials monthly via the vault job");

  DeploymentConfig config;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  GuillotineSystem sys(config);
  Require(sys.AttachDefaultDevices(&knowledge), "device setup");
  Rng rng(11);
  const MlpModel model = MlpModel::Random({16, 32, 8}, rng);
  Require(sys.HostModel(model, sys.MakeVerifier()), "model load");

  // The serving layer performs retrieval through the hypervisor-mediated
  // RAG port before each inference (CPU-orchestrated RAG, as in section 2).
  auto retrieve = [&](const std::string& prompt) -> std::vector<RagHit> {
    const PortBinding* binding = sys.hv().FindPort(*sys.rag_port());
    RingView requests = sys.machine().io_dram().RequestRing(binding->region);
    IoSlot slot;
    slot.opcode = static_cast<u32>(RagOpcode::kQuery);
    slot.tag = 1;
    PutU32(slot.payload, 2);  // top-2
    for (i64 v : EmbedPrompt(prompt, knowledge.dim())) {
      PutU64(slot.payload, static_cast<u64>(v));
    }
    Require(requests.Push(slot), "retrieval request");
    sys.hv().ServiceOnce(0, /*poll_all=*/true);
    RingView responses = sys.machine().io_dram().ResponseRing(binding->region);
    std::vector<RagHit> hits;
    if (auto resp = responses.Pop()) {
      ByteReader reader(resp->payload);
      u32 count = 0;
      reader.ReadU32(count);
      for (u32 i = 0; i < count; ++i) {
        RagHit hit;
        u64 score_fixed = 0;
        reader.ReadU64(hit.id);
        reader.ReadU64(score_fixed);
        reader.ReadString(hit.text);
        hit.score = FromFixed(static_cast<i64>(score_fixed));
        hits.push_back(std::move(hit));
      }
    }
    return hits;
  };

  const char* kQueries[] = {
      "how do I restart the ingestion pipeline",
      "how long is customer data retained",
      "who do I page for raid degradation",
  };
  for (const char* query : kQueries) {
    std::printf("query: \"%s\"\n", query);
    const auto hits = retrieve(query);
    for (const auto& hit : hits) {
      std::printf("  retrieved (%.2f): %s\n", hit.score, hit.text.c_str());
    }
    std::string augmented(query);
    for (const auto& hit : hits) {
      augmented += " | " + hit.text;
    }
    const auto reply = sys.Infer(augmented);
    std::printf("  model: %s\n\n",
                reply.ok() ? reply->c_str() : reply.status().ToString().c_str());
  }

  // Multi-turn sessions exercising the KV cache through the service layer.
  std::printf("service run (multi-turn sessions, KV cache):\n");
  GuillotineReplica replica(sys);
  ModelServiceConfig service_config;
  service_config.kv = KvCacheConfig{64};
  ModelService service(service_config);
  service.AddReplica(&replica);
  std::vector<InferenceRequest> requests;
  std::string context = "conversation:";
  for (u64 turn = 0; turn < 8; ++turn) {
    context += " turn " + std::to_string(turn);
    requests.push_back({turn, context, turn * 3'000'000, /*session=*/1});
  }
  const ContinuousReport report = service.RunAll(std::move(requests));
  std::printf("  completed=%llu failed=%llu kv_hit_rate=%.2f mean_latency=%.0f kcyc\n",
              static_cast<unsigned long long>(report.completed),
              static_cast<unsigned long long>(report.failed), report.kv_hit_rate,
              report.latency.mean() / 1e3);

  std::printf("\nevery retrieval above is in the audit trail: %zu port events\n",
              sys.trace().CountCategory(TraceCategory::kPortIo));
  return 0;
}
