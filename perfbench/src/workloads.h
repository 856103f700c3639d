// The three benchmark workloads. Each fills a WorkloadResult with the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "src/common.h"

namespace perfbench {

/// Closed loop, one client, in-process: FERET repairs at tau=100.
WorkloadResult RunRepairFeret(const RunArgs& args);

/// Open loop against the chameleond binary at three fixed rates.
WorkloadResult RunServeMix(const RunArgs& args);

/// Closed loop, one thread: streaming inserts beside full coverage audits.
WorkloadResult RunCoverageStream(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
