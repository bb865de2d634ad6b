#include "src/service/rag.h"

#include <algorithm>
#include <cmath>

#include "src/model/tokenizer.h"

namespace guillotine {

u64 RagStore::AddText(std::string text) {
  RagDocument doc;
  doc.id = next_id_++;
  doc.embedding = EmbedPrompt(text, dim_);
  doc.text = std::move(text);
  const u64 id = doc.id;
  docs_.push_back(std::move(doc));
  return id;
}

double RagStore::Cosine(const std::vector<i64>& a, const std::vector<i64>& b) {
  if (a.size() != b.size() || a.empty()) {
    return 0.0;
  }
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    na += static_cast<double>(a[i]) * static_cast<double>(a[i]);
    nb += static_cast<double>(b[i]) * static_cast<double>(b[i]);
  }
  if (na == 0.0 || nb == 0.0) {
    return 0.0;
  }
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

std::vector<RagHit> RagStore::TopK(const std::vector<i64>& query, size_t k) const {
  std::vector<RagHit> hits;
  hits.reserve(docs_.size());
  for (const auto& doc : docs_) {
    RagHit hit;
    hit.id = doc.id;
    hit.score = Cosine(query, doc.embedding);
    hit.text = doc.text;
    hits.push_back(std::move(hit));
  }
  std::sort(hits.begin(), hits.end(),
            [](const RagHit& a, const RagHit& b) { return a.score > b.score; });
  if (hits.size() > k) {
    hits.resize(k);
  }
  return hits;
}

IoResponse RagStoreDevice::Handle(const IoRequest& request, Cycles /*now*/,
                                  Cycles& service_cycles) {
  IoResponse resp;
  resp.tag = request.tag;
  if (!powered_) {
    resp.status = 0xDEAD;
    service_cycles = 10;
    return resp;
  }
  switch (static_cast<RagOpcode>(request.opcode)) {
    case RagOpcode::kQuery: {
      ByteReader reader(request.payload);
      u32 k = 0;
      if (!reader.ReadU32(k) || k == 0) {
        resp.status = 1;
        service_cycles = 50;
        return resp;
      }
      std::vector<i64> query(reader.remaining() / 8);
      for (auto& v : query) {
        u64 raw = 0;
        reader.ReadU64(raw);
        v = static_cast<i64>(raw);
      }
      if (query.size() != store_.dim()) {
        resp.status = 2;
        service_cycles = 50;
        return resp;
      }
      const auto hits = store_.TopK(query, k);
      PutU32(resp.payload, static_cast<u32>(hits.size()));
      for (const auto& hit : hits) {
        PutU64(resp.payload, hit.id);
        PutU64(resp.payload, static_cast<u64>(ToFixed(hit.score)));
        PutString(resp.payload, hit.text);
      }
      // Brute-force scan cost: per-document dot product.
      service_cycles = 2'000 + store_.size() * store_.dim() * 2;
      resp.status = 0;
      return resp;
    }
    case RagOpcode::kCount: {
      PutU64(resp.payload, store_.size());
      service_cycles = 100;
      resp.status = 0;
      return resp;
    }
  }
  resp.status = 0xFFFF;
  service_cycles = 10;
  return resp;
}

}  // namespace guillotine
