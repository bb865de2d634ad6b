// Block storage device behind the port API. Used by the RAG example and by
// the model service substrate for checkpoint/embedding persistence. The
// sectors live in a Dram, so the disk is materialized a 4 KiB page at a time
// on first write and a sector nothing has written reads as zeros, exactly as
// a zero-filled disk would (see dram.h).
#ifndef SRC_MACHINE_STORAGE_H_
#define SRC_MACHINE_STORAGE_H_

#include "src/machine/device.h"
#include "src/mem/dram.h"

namespace guillotine {

enum class StorageOpcode : u32 {
  kRead = 1,   // payload: [sector u64][count u32]; response: data
  kWrite = 2,  // payload: [sector u64][data]; response: empty
  kInfo = 3,   // response: [num_sectors u64][sector_bytes u32]
};

class StorageDevice : public Device {
 public:
  StorageDevice(u64 num_sectors, u32 sector_bytes = 512, std::string name = "disk0");

  DeviceType type() const override { return DeviceType::kStorage; }
  const std::string& name() const override { return name_; }

  IoResponse Handle(const IoRequest& request, Cycles now,
                    Cycles& service_cycles) override;

 private:
  u64 num_sectors_;
  u32 sector_bytes_;
  std::string name_;
  Dram blocks_;
};

}  // namespace guillotine

#endif  // SRC_MACHINE_STORAGE_H_
