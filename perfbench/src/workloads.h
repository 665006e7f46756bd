// The benchmark's workloads.  Each runs untraced (end-to-end metrics)
// or traced (per-layer metrics) according to Options::trace.
#pragma once

#include <map>
#include <string>

#include "common.h"

namespace perfbench {

/// month_sharded and halfyear_union_ckpt (batch.cc).
Report run_batch(const Options& opt);
/// live_hourly (live.cc).
Report run_live(const Options& opt);

/// Threads doing work at once in a workload run (engine workers,
/// writer, reader and feeder); a thread blocked joining its workers is
/// not counted.  Never more than nproc().
unsigned batch_threads();
unsigned live_engine_threads();

/// Every per-layer metric, in print order, with its unit.  A traced run
/// prints all of them; a layer the workload never enters reads 0.
void add_layer_metrics(Report& rep, const std::map<std::string, double>& measured);

}  // namespace perfbench
