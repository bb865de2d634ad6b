// Device interface for everything behind the port API.
//
// Model cores never touch these objects (paper section 3.2: no port-mapped
// or memory-mapped IO on model cores, and SR-IOV-style direct assignment is
// explicitly disallowed). Only hypervisor cores, via the software
// hypervisor's port table, invoke Device::Handle — which is what makes every
// model/device interaction synchronously monitorable.
#ifndef SRC_MACHINE_DEVICE_H_
#define SRC_MACHINE_DEVICE_H_

#include <memory>
#include <string>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace guillotine {

enum class DeviceType : u32 {
  kNic = 1,
  kStorage = 2,
  kAccelerator = 3,
  kRagStore = 4,
  kControlChannel = 5,  // containment-path endpoints (kill-class ports)
};

std::string_view DeviceTypeName(DeviceType t);

struct IoRequest {
  u32 opcode = 0;
  u64 tag = 0;
  Bytes payload;
};

// status 0 = success; device-specific nonzero codes otherwise.
struct IoResponse {
  u32 status = 0;
  u64 tag = 0;
  Bytes payload;
};

class Device {
 public:
  virtual ~Device() = default;

  virtual DeviceType type() const = 0;
  virtual const std::string& name() const = 0;

  // Services one request. `service_cycles` is the simulated device busy time
  // the hypervisor core observes before the response is available.
  virtual IoResponse Handle(const IoRequest& request, Cycles now,
                            Cycles& service_cycles) = 0;

  // Physical-hypervisor hook: a powered-down device rejects all requests.
  void set_powered(bool on) { powered_ = on; }

 protected:
  bool powered_ = true;
};

}  // namespace guillotine

#endif  // SRC_MACHINE_DEVICE_H_
