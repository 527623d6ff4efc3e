// The four workloads: train, dp, md, serve (README.md says why each
// exists).  Each generates its inputs from the seed, sets the system up
// several times (setup_s is the median), measures for the requested
// seconds, checks its outputs, and fills the report.  A traced run
// measures the per-layer metrics instead of the end-to-end ones.
#pragma once

#include "harness.hpp"

namespace fastchg::e2e {

/// Run `opt.workload` into `rep`.  Throws fastchg::Error on an unknown
/// workload or a failure of the harness itself.
void run_workload(const Options& opt, Report& rep);

}  // namespace fastchg::e2e
