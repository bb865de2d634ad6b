// Machine topology configuration, the fixed silicon parameters, and the
// model-core physical address map.
//
// The defining Guillotine property (paper section 3.2) is encoded here as
// an address map: a model core can reach its own DRAM and the shared IO DRAM
// window, and nothing else. Hypervisor memory has no address at all: the
// software hypervisor's state lives in host objects, out of reach of every
// guest load and store, which is the simulator's equivalent of "the model
// core lacks the physical buses needed to access hypervisor DRAM". The
// hypervisor complex does have its own cache hierarchy (see hv_core.h); the
// co_tenant_l3 flag exists only to build the *baseline* (traditional
// hypervisor) configuration in which that hierarchy shares the model's L3,
// which experiment E2 compares against.
#ifndef SRC_MACHINE_CONFIG_H_
#define SRC_MACHINE_CONFIG_H_

#include "src/common/types.h"
#include "src/mem/cache.h"

namespace guillotine {

// Model-core physical address map.
inline constexpr PhysAddr kIoDramBase = 0x4000'0000;  // 1 GiB window base

// Cache geometry, the same in both complexes (the hypervisor core builds no
// L1i: it runs native code, see hv_core.h).
inline constexpr CacheConfig kL1iConfig{16 * 1024, 64, 4, 2};
inline constexpr CacheConfig kL1dConfig{32 * 1024, 64, 8, 4};
inline constexpr CacheConfig kL2Config{256 * 1024, 64, 8, 12};
inline constexpr CacheConfig kL3Config{2 * 1024 * 1024, 64, 16, 40};

// Mispredicted-branch penalty for the bimodal predictor.
inline constexpr Cycles kMispredictPenalty = 2;
// Cycles to enter a trap handler / return from one.
inline constexpr Cycles kTrapEntryCost = 5;

// Silicon identity measured during attestation.
inline constexpr u64 kSiliconId = 0x6715'0001;

struct LapicConfig {
  bool throttle_enabled = true;
};

// The defaults are the board every deployment, scenario, bench and example
// builds: one model core and one hypervisor core, 1 MiB of model DRAM and a
// 512 KiB IO DRAM window. A site overrides only what it really varies.
struct MachineConfig {
  int num_model_cores = 1;
  int num_hv_cores = 1;

  size_t model_dram_bytes = 1 << 20;
  size_t io_dram_bytes = 512 * 1024;

  // Baseline-only: model complex and hypervisor complex share one L3, as on
  // a traditional virtualization-aware processor. Guillotine silicon keeps
  // this false.
  bool co_tenant_l3 = false;

  LapicConfig lapic;
};

}  // namespace guillotine

#endif  // SRC_MACHINE_CONFIG_H_
