// Harness-internal steps shared by the flat runs (experiment.cpp) and
// the aggregation tier (aggregator.cpp). Not part of the public API.
#pragma once

#include <memory>
#include <string>

#include "archive/writer.h"
#include "harness/experiment.h"

namespace asdf::harness {

/// The flight recorder for a run when `spec.archiveDir` is set (null
/// otherwise); `source` names the tap in the archive's meta record.
std::unique_ptr<archive::ArchiveWriter> makeRecorder(
    const ExperimentSpec& spec, const std::string& source);

/// The injected fault as the spec states it. Runs that observe the
/// fault's actual end (sim, live) overwrite `faultEnd`.
analysis::GroundTruth truthFromSpec(const ExperimentSpec& spec);

/// Orders `result.monitoringEvents` by time, then channel, keeping the
/// emission order of ties (analysis instances may emit concurrently).
void sortMonitoringEvents(ExperimentResult& result);

/// Appends one Table 4 report per channel that carried traffic.
void recordChannelReports(ExperimentResult& result,
                          rpc::TransportRegistry& transports,
                          const ExperimentSpec& spec);

}  // namespace asdf::harness
