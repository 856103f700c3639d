// Compile-only fixture for the status discipline gate (the
// `nodiscard_gate*` ctests, label `lint`). As written, every must-use call
// below is discarded, so `-Werror=unused-result` must reject this
// translation unit with one diagnostic per call. Compiled with
// -DCHAMELEON_NODISCARD_CONTROL, the same calls are consumed and the
// translation unit must compile. Never linked into a binary.

#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace chameleon {

util::Status Save();
util::Result<int> Load();

#ifndef CHAMELEON_NODISCARD_CONTROL

void DiscardEveryMustUseCall(obs::Registry* registry) {
  Save();
  Load();
  registry->Counter("gate.discarded");
}

#else

bool ConsumeEveryMustUseCall(obs::Registry* registry) {
  const util::Status saved = Save();
  const util::Result<int> loaded = Load();
  obs::Counter* counter = registry->Counter("gate.consumed");
  return saved.ok() && loaded.ok() && counter != nullptr;
}

#endif

}  // namespace chameleon
