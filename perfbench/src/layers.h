// The benchmark's metric sets and the per-layer replays.
//
// EndToEnd and Layers hold every metric BENCHMARK.json names, so each
// workload prints the same keys: a layer a workload does not exercise reads
// 0 (no stage time, no batches), which is itself the measurement. The
// replays (R) call one module's public function single-threaded on the
// workload's own inputs and decomposition plan.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "common/image.h"
#include "common/timer.h"
#include "common/volume.h"
#include "geometry/cbct.h"
#include "ifdk/plan.h"

namespace perfbench {

/// What a user of the system sees; printed with --trace 0.
struct EndToEnd {
  Samples latency_s;           ///< one request: call wall or job latency
  double volumes_per_s = 0;    ///< stored volumes per wall second
  double psnr_db_min = 0;      ///< worst output volume vs ground truth
  double setup_s = 0;          ///< median of the set-up repetitions
};

/// One value per per-layer metric; printed with --trace 1.
struct Layers {
  double backproj_gups = 0;
  double backproj_inner_products_per_update = 0;
  double fft_rows_per_s = 0;
  double filter_proj_per_s = 0;
  /// Per-volume paper stage seconds (IfdkStats / StreamingStats wall).
  double ifdk_load_s = 0, ifdk_filter_s = 0, ifdk_allgather_s = 0,
         ifdk_backprojection_s = 0, ifdk_transpose_s = 0, ifdk_reduce_s = 0,
         ifdk_store_s = 0;
  /// Busy/wall per pipeline thread of the critical rank.
  double ifdk_filter_thread = 0, ifdk_main_thread = 0, ifdk_bp_thread = 0,
         ifdk_reduce_thread = 0, ifdk_store_thread = 0;
  double ifdk_volume_latency_s = 0;
  double minimpi_allgather_gbps = 0;
  double minimpi_reduce_gbps = 0;
  double minimpi_allreduce_s = 0;
  double minimpi_world_spawn_s = 0;
  /// PFS traffic per call (per job on the service workload).
  double pfs_read_ops = 0, pfs_read_mb = 0, pfs_read_busy_s = 0;
  double pfs_write_ops = 0, pfs_write_mb = 0, pfs_write_busy_s = 0;
  double projector_views_per_s = 0;
  /// Per-iteration stage seconds (IterStats wall / iterations run).
  double iterative_normalize_s = 0, iterative_forward_s = 0,
         iterative_backproject_s = 0, iterative_allreduce_s = 0,
         iterative_update_s = 0;
  double iterative_bp_updates_per_s = 0;
  double iterative_residual_rmse_final = 0;
  double postproc_store_codec_mb_per_s = 0;
  double postproc_store_ratio = 0;
  double postproc_store_psnr_db_min = 0;
  double service_batches = 0, service_resplits = 0;
  double service_queue_latency_s = 0, service_sart_latency_s = 0,
         service_generator_lag_s = 0;
  double plan_allgather_bytes_per_round = 0;
  double plan_reduce_bytes_per_epoch = 0;
  double plan_device_bytes = 0;
  double perfmodel_predicted_s = 0;
  double perfmodel_predicted_over_measured = 0;
  double process_cpu_s = 0;
  double trace_overhead = 0;
};

void emit_end_to_end(Report& report, const EndToEnd& e2e);
void emit_layers(Report& report, const Layers& layers);

/// The options every workload runs its 2x2 world with.
ifdk::IfdkOptions world_options();

/// Runs every replay (R) on `g`'s decomposition plan with the workload's
/// projections and one of its volumes (X-major), each inside a span, and
/// sets the replay metrics and the plan's exact counts in `layers`.
void run_replays(Layers& layers, const ifdk::geo::CbctGeometry& g,
                 std::span<const ifdk::Image2D> projections,
                 const ifdk::Volume& volume, Tracer& tracer);

/// PFS traffic per unit of work (call or job).
void fill_pfs(Layers& layers, const CountingFs::Totals& traffic,
              double units);

/// Median over calls of the per-volume paper stages and thread busy/wall.
void fill_ifdk_stages(Layers& layers, const std::vector<ifdk::StageTimer>& wall,
                      const std::vector<ifdk::StageTimer>& efficiency,
                      double volumes_per_call);

/// Evaluates Eqs. 8-19 with a MicroBench filled from the replay metrics
/// and the PFS rates measured in `traffic`, prints each predicted stage
/// beside the measured one, and sets the perfmodel metrics. Call after
/// run_replays and fill_ifdk_stages; `measured_per_volume_s` is the median
/// untraced wall per volume.
void model_beside_measurement(const Report& report, Layers& layers,
                              const ifdk::geo::CbctGeometry& g,
                              const CountingFs::Totals& traffic,
                              double measured_per_volume_s);

/// Prints each span name's self time (span minus its children).
void print_self_times(const Report& report, const Tracer& tracer);

}  // namespace perfbench
