// Retrieval-augmented generation store (paper sections 2 and 3.1: "as the
// model ponders a query, the model may issue a database read to fetch
// query-specific contextual information"). A brute-force cosine-similarity
// vector index over fixed-point embeddings, plus a Device wrapper so models
// reach it only through the port API — making every retrieval observable.
#ifndef SRC_SERVICE_RAG_H_
#define SRC_SERVICE_RAG_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/machine/device.h"
#include "src/model/weights.h"

namespace guillotine {

struct RagDocument {
  u64 id = 0;
  std::string text;
  std::vector<i64> embedding;  // Q(kFracBits)
};

struct RagHit {
  u64 id = 0;
  double score = 0.0;
  std::string text;
};

class RagStore {
 public:
  explicit RagStore(u32 dim) : dim_(dim) {}

  u32 dim() const { return dim_; }
  size_t size() const { return docs_.size(); }

  // Embeds `text` with the toy tokenizer projection.
  u64 AddText(std::string text);

  std::vector<RagHit> TopK(const std::vector<i64>& query, size_t k) const;

  static double Cosine(const std::vector<i64>& a, const std::vector<i64>& b);

 private:
  u32 dim_;
  std::vector<RagDocument> docs_;
  u64 next_id_ = 1;
};

enum class RagOpcode : u32 {
  kQuery = 1,  // payload: [k u32][i64 embedding...]; response: hits
  kCount = 2,  // response: [num_docs u64]
};

// Port-API front end for a RagStore.
class RagStoreDevice : public Device {
 public:
  RagStoreDevice(RagStore& store, std::string name = "ragdb0")
      : store_(store), name_(std::move(name)) {}

  DeviceType type() const override { return DeviceType::kRagStore; }
  const std::string& name() const override { return name_; }

  IoResponse Handle(const IoRequest& request, Cycles now,
                    Cycles& service_cycles) override;

 private:
  RagStore& store_;
  std::string name_;
};

}  // namespace guillotine

#endif  // SRC_SERVICE_RAG_H_
