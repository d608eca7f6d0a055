// The four workloads. Each one synthesizes its seeded inputs, builds its
// oracles, sets up several times, measures, checks every output, and fills
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run).
#pragma once

#include <cstdint>
#include <functional>

#include "bench.h"
#include "layers.h"

namespace perfbench {

/// What a workload run hands to main(): the metrics are printed there.
struct Outcome {
  EndToEnd e2e;
  Layers layers;
};

/// Everything a workload needs from the command line and the run.
struct Context {
  const Args& args;
  Tracer& tracer;
  const Report& report;
  CheckLog& checks;
};

/// Set-up repeats at least kSetupMinReps times and until kSetupMinSeconds
/// have passed (at most kSetupMaxReps); setup_s is the median.
inline constexpr int kSetupMinReps = 3;
inline constexpr int kSetupMaxReps = 25;
inline constexpr double kSetupMinSeconds = 1.0;
/// Share of --seconds the traced run spends untraced, to measure
/// trace.overhead against; the rest is the traced measurement.
inline constexpr double kUntracedShare = 0.4;

/// Repeats `setup` as above; returns the median of the seconds each
/// repetition reports.
double median_setup(const std::function<double()>& setup);

/// Closed loop: one call at a time, the next issued when the previous
/// returns, until `budget` seconds have passed (at least one call). `call`
/// gets the call id and returns its own wall seconds.
Samples closed_loop(double budget, std::int64_t& next_id,
                    const std::function<double(std::int64_t)>& call);

/// Geometry helper: Nu x Nv detector, Np views, N^3 volume.
ifdk::geo::CbctGeometry make_geometry(std::size_t nu, std::size_t nv,
                                      std::size_t np, std::size_t n);

Outcome run_fdk_scan(const Context& ctx);
Outcome run_fdk_stream(const Context& ctx);
Outcome run_sart(const Context& ctx);
Outcome run_service_mixed(const Context& ctx);

}  // namespace perfbench
