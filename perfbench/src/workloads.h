// The workloads, scan and interactive. run_serving fills `report` with
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run, which also writes the Chrome trace to `trace_path`).
#pragma once

#include <string>

#include "fixture.h"
#include "report.h"

namespace perfbench {

void run_serving(const Options& opt, Mix mix, Report& report,
                 const std::string& trace_path);

}  // namespace perfbench
