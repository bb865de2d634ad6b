// Guest-side port runtime: GISA code generators for talking to the
// Guillotine port API from inside the sandbox. These are the sequences any
// model-side runtime would link against — write a request slot into the
// shared IO DRAM request ring, store to the doorbell address (the interrupt-
// raising write of paper section 3.3), and poll the response ring.
#ifndef SRC_MODEL_GUEST_LIB_H_
#define SRC_MODEL_GUEST_LIB_H_

#include "src/hv/port_table.h"
#include "src/isa/assembler.h"

namespace guillotine {

// Register conventions for the emitted subroutines (callers use Call()):
//   PortSend:  a0=opcode, a1=tag, a2=payload src addr, a3=payload bytes
//              returns a0=0 on success, 1 when the request ring is full.
//   PortRecv:  blocking poll; returns a0=payload addr (inside the response
//              slot), a1=payload bytes, a2=status word; consumes the slot.
//   Clobbers t0-t7.

// Emits the send subroutine for `port` and returns its label. Bind-order:
// call after the main code has been emitted or jump over it explicitly.
ProgramBuilder::Label EmitPortSendFn(ProgramBuilder& b, const PortGuestInfo& port);

// Emits the blocking receive subroutine for `port`.
ProgramBuilder::Label EmitPortRecvFn(ProgramBuilder& b, const PortGuestInfo& port);

}  // namespace guillotine

#endif  // SRC_MODEL_GUEST_LIB_H_
