// The traced run's per-layer breakdown: timed calls into each layer's
// public functions, made from the benchmark's own code on the workload's
// own data and mix. Self time of a layer is its call time minus the call
// time of the layer beneath it for the same query (medians).
#pragma once

#include <string>
#include <vector>

#include "fixture.h"
#include "report.h"

namespace perfbench {

struct LayerInputs {
  std::string dataset;     ///< served, mapped and read by the probes
  std::vector<Query> mix;  ///< the workload's requests with ground truth
  gs::Settings producer;   ///< settings of the producer probes
  int ranks = 1;           ///< MPI ranks of the producer probes
  std::string dir;         ///< scratch for sockets and the probe's output
  std::uint64_t seed = 1;
  Daemon* direct = nullptr;    ///< reused when the workload has one
  Cluster* cluster = nullptr;  ///< reused when the workload has one
};

/// Runs every layer probe and adds the per-layer metrics to `report`.
/// Throws when a probed call returns a wrong or failed answer.
void probe_layers(const LayerInputs& in, Tracer& tracer, Report& report);

}  // namespace perfbench
