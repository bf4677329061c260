//===- Workloads.h - The benchmark's three workloads -----------*- C++ -*-===//
///
/// \file
/// Each function runs one workload end to end (set-up, measured batches,
/// output checks) and fills a Result. End-to-end metrics common to all
/// workloads: setup_s, wall_s (median batch wall), op_ms.p50/.tail,
/// ops_per_s and busy_s, where an operation is the whole matrix, a storm
/// phase or a frame. Per-layer metrics are filled only in traced runs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

/// The Figure 7 Ultrabook matrix at scale 1: nine workloads on the CPU
/// model and four GPU configurations, one region and cold runtime per
/// cell, Workload::verify after every cell.
Result runPaperMatrix(const Options &O);

/// Cold JIT compiles from closed-loop client threads against one shared
/// Runtime per GPU configuration.
Result runCompileStorm(const Options &O);

/// Seeded scheduler frames under FootprintPolicy::Verify with object-store
/// session clients churning alongside.
Result runSchedFrames(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
