#include "src/service/replica.h"

namespace guillotine {

Result<std::string> RemoteReplica::Infer(const std::string& prompt,
                                         Cycles& service_cycles) {
  return transport_.RoundTrip(prompt, service_cycles);
}

Result<std::string> NativeReplica::Infer(const std::string& prompt,
                                         Cycles& service_cycles) {
  const std::vector<i64> input = EmbedPrompt(prompt, model_.input_dim());
  const std::vector<i64> output = model_.Forward(input);
  u64 macs = 0;
  for (size_t l = 0; l < model_.num_layers(); ++l) {
    macs += static_cast<u64>(model_.layer(l).in_dim) * model_.layer(l).out_dim;
  }
  service_cycles = 1'000 + macs / macs_per_cycle_;
  return RenderOutput(output);
}

}  // namespace guillotine
