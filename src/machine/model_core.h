// ModelCore: a GISA-64 core of the model complex.
//
// Paper section 3.2 gives hypervisor cores these powers over model cores,
// all of which are implemented here and exposed only through the ControlBus:
//   * forcibly pause all operations;
//   * inspect and modify the ISA-level state of a halted core;
//   * set watchpoints on model code or memory locations;
//   * configure the MMU so the model cannot create new executable pages or
//     write to old ones (ExecLockdown);
//   * forcibly clear all microarchitectural state (caches, TLB, branch
//     predictor);
//   * single-step or fully resume a halted core;
//   * forcibly power down a halted core.
//
// The address map enforces the topology claims: model DRAM and the shared
// IO DRAM window are reachable; nothing else exists. A store into the IO
// DRAM doorbell page is the only way the model can signal the hypervisor.
//
// Predecode. Each core caches decoded instructions in a small direct-mapped
// table keyed by the *physical* fetch address, i.e. after Mmu::Translate and
// the lockdown check, so a remapped page or an armed lockdown can never reuse
// a decode it should not. Only the read-and-decode of the 8 instruction bytes
// is cached: translation, the lockdown check, bounds checks, watchpoints, the
// L1i access and every CoreStats counter still run on every fetch, so the
// simulated cycles are exactly those of decoding afresh. Each entry is stamped
// with model DRAM's code_epoch() (see dram.h), which every write of a page a
// decode came from advances; an entry from an older epoch is decoded again.
// Illegal encodings and instructions that straddle a 4 KiB page are never
// cached.
#ifndef SRC_MACHINE_MODEL_CORE_H_
#define SRC_MACHINE_MODEL_CORE_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/clock.h"
#include "src/common/trace.h"
#include "src/machine/branch_predictor.h"
#include "src/machine/config.h"
#include "src/machine/core_state.h"
#include "src/machine/io_dram.h"
#include "src/mem/cache.h"
#include "src/mem/mmu.h"

namespace guillotine {

class ModelCore {
 public:
  // `l3` is the model complex's shared L3 (may be co-tenant in the baseline
  // configuration). `trace` may be null.
  ModelCore(int id, Dram& model_dram, IoDram& io_dram, Cache* l3, EventTrace* trace);

  using DoorbellFn = std::function<void(u32 port_id, int core_id)>;
  void set_doorbell_handler(DoorbellFn fn) { doorbell_fn_ = std::move(fn); }

  RunState state() const { return state_; }
  HaltReason halt_reason() const { return halt_reason_; }
  TrapCause fault_cause() const { return fault_cause_; }

  // Executes at most `budget` cycles; returns cycles actually consumed.
  Cycles Run(Cycles budget);

  // External interrupt injection (hypervisor completion interrupts). The
  // interrupt is queued and delivered when the guest has IENABLE set.
  void RaiseExternalInterrupt(TrapCause cause);

  // ---- Control-bus-facing operations (call through ControlBus, which
  // enforces preconditions and charges hypervisor cycles) ----
  void Pause(HaltReason reason);
  Status Resume();
  Status SingleStep(Cycles& consumed);
  Status PowerDownCore();
  void PowerUpCore(u64 boot_pc);
  void FlushMicroarch();
  void SetLockdown(const ExecLockdown& lockdown) { lockdown_ = lockdown; }
  const ExecLockdown& lockdown() const { return lockdown_; }
  u32 AddWatchpoint(u64 lo, u64 hi, bool on_exec, bool on_read, bool on_write);
  void ClearWatchpoints() { watchpoints_.clear(); }
  std::vector<CoreEvent> TakeEvents();

  ArchState& arch() { return arch_; }
  const CoreStats& stats() const { return stats_; }
  CoreCaches& caches() { return caches_; }
  Tlb& tlb() { return tlb_; }

 private:
  struct MemAccess {
    PhysAddr pa = 0;
    Cycles latency = 0;
    TrapCause fault = TrapCause::kNone;
    bool watchpoint_hit = false;
    bool io = false;  // routed to the shared IO DRAM window, not model DRAM
  };

  // One predecode table entry.
  struct Predecoded {
    PhysAddr pa;
    u64 epoch;
    Instruction in;
    Cycles latency;
  };
  static constexpr size_t kPredecodeSlots = 256;
  static constexpr PhysAddr kNoPa = ~PhysAddr{0};  // never an in-bounds fetch

  // Translates + routes + times one access. Applies watchpoints.
  MemAccess AccessMemory(VirtAddr va, AccessType type, size_t len);
  // True when [pa, pa + len) lies inside the shared IO DRAM window.
  bool InIoWindow(PhysAddr pa, size_t len) const;
  // Loads from the IO window, which AccessMemory routed `pa` to.
  bool ReadIo(PhysAddr pa, size_t len, u64& out);
  bool WritePhys(PhysAddr pa, size_t len, u64 value);

  // The decode of the instruction at model-DRAM address `pa` (bounds-checked
  // by the fetch), or null for an illegal encoding. Cached unless it
  // straddles a page.
  const Predecoded* Decode(PhysAddr pa) {
    const Predecoded& slot = predecode_[SlotIndex(pa)];
    if (slot.pa == pa && slot.epoch == model_dram_.code_epoch()) {
      return &slot;
    }
    return DecodeMiss(pa);
  }
  const Predecoded* DecodeMiss(PhysAddr pa);
  static size_t SlotIndex(PhysAddr pa) { return (pa / kInstrBytes) % kPredecodeSlots; }
  void AllocatePredecode();

  void EnterTrap(TrapCause cause, u64 epc);
  // True (and a CoreEvent recorded) when an armed watchpoint covers the
  // access. Inline so the common case, none armed, costs one compare.
  bool CheckWatchpoints(PhysAddr pa, size_t len, AccessType type) {
    return !watchpoints_.empty() && !suppress_active_ && ScanWatchpoints(pa, len, type);
  }
  bool ScanWatchpoints(PhysAddr pa, size_t len, AccessType type);
  Cycles ExecuteOne();  // single instruction, no state gate

  int id_;
  Dram& model_dram_;
  IoDram& io_dram_;
  EventTrace* trace_;

  ArchState arch_;
  RunState state_ = RunState::kHalted;  // cores boot halted; hv releases them
  HaltReason halt_reason_ = HaltReason::kHypervisorPause;
  TrapCause fault_cause_ = TrapCause::kNone;

  CoreCaches caches_;
  Cache* l3_;
  Tlb tlb_;
  Mmu mmu_;
  BranchPredictor predictor_;
  ExecLockdown lockdown_;

  std::vector<Watchpoint> watchpoints_;
  u32 next_watchpoint_id_ = 1;
  std::deque<TrapCause> pending_irqs_;
  std::vector<CoreEvent> events_;
  bool suppress_watchpoints_once_ = false;
  bool suppress_active_ = false;

  CoreStats stats_;
  DoorbellFn doorbell_fn_;

  // kPredecodeSlots entries, allocated on the first instruction executed.
  std::unique_ptr<Predecoded[]> predecode_;
  Predecoded uncached_{};  // the decode of a page-straddling instruction

  static constexpr Cycles kIoDramLatency = 60;  // uncached shared-window access
};

}  // namespace guillotine

#endif  // SRC_MACHINE_MODEL_CORE_H_
