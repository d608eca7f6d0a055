#include "layers.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "backproj/backprojector.h"
#include "fft/fft.h"
#include "filter/filter_engine.h"
#include "iterative/iterative.h"
#include "minimpi/minimpi.h"
#include "perfmodel/model.h"
#include "postproc/compression.h"
#include "projector/forward.h"

namespace perfbench {

using ifdk::Image2D;
using ifdk::Volume;

void emit_end_to_end(Report& report, const EndToEnd& e2e) {
  const Samples::Tail tail = e2e.latency_s.tail();
  char line[160];
  std::snprintf(line, sizeof(line),
                "  (latency tail = p%.1f of %zu samples, %zu beyond it)",
                tail.percentile, e2e.latency_s.size(), tail.beyond);
  report.note(line);
  report.metric("latency_s.p50", e2e.latency_s.median(), "s");
  report.metric("latency_s.tail", tail.value, "s");
  report.metric("volumes_per_s", e2e.volumes_per_s, "1/s");
  report.metric("psnr_db_min", e2e.psnr_db_min, "dB");
  report.metric("setup_s", e2e.setup_s, "s");
  report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
}

void emit_layers(Report& report, const Layers& l) {
  struct Row {
    const char* name;
    const char* unit;
    double Layers::*field;
  };
  static const Row rows[] = {
      {"backproj.gups", "GUPS", &Layers::backproj_gups},
      {"backproj.inner_products_per_update", "count",
       &Layers::backproj_inner_products_per_update},
      {"fft.rows_per_s", "1/s", &Layers::fft_rows_per_s},
      {"filter.proj_per_s", "1/s", &Layers::filter_proj_per_s},
      {"ifdk.load_s", "s", &Layers::ifdk_load_s},
      {"ifdk.filter_s", "s", &Layers::ifdk_filter_s},
      {"ifdk.allgather_s", "s", &Layers::ifdk_allgather_s},
      {"ifdk.backprojection_s", "s", &Layers::ifdk_backprojection_s},
      {"ifdk.transpose_s", "s", &Layers::ifdk_transpose_s},
      {"ifdk.reduce_s", "s", &Layers::ifdk_reduce_s},
      {"ifdk.store_s", "s", &Layers::ifdk_store_s},
      {"ifdk.filter_thread", "fraction", &Layers::ifdk_filter_thread},
      {"ifdk.main_thread", "fraction", &Layers::ifdk_main_thread},
      {"ifdk.bp_thread", "fraction", &Layers::ifdk_bp_thread},
      {"ifdk.reduce_thread", "fraction", &Layers::ifdk_reduce_thread},
      {"ifdk.store_thread", "fraction", &Layers::ifdk_store_thread},
      {"ifdk.volume_latency_s", "s", &Layers::ifdk_volume_latency_s},
      {"minimpi.allgather_gbps", "GB/s", &Layers::minimpi_allgather_gbps},
      {"minimpi.reduce_gbps", "GB/s", &Layers::minimpi_reduce_gbps},
      {"minimpi.allreduce_s", "s", &Layers::minimpi_allreduce_s},
      {"minimpi.world_spawn_s", "s", &Layers::minimpi_world_spawn_s},
      {"pfs.read_ops", "count", &Layers::pfs_read_ops},
      {"pfs.read_mb", "MiB", &Layers::pfs_read_mb},
      {"pfs.read_busy_s", "s", &Layers::pfs_read_busy_s},
      {"pfs.write_ops", "count", &Layers::pfs_write_ops},
      {"pfs.write_mb", "MiB", &Layers::pfs_write_mb},
      {"pfs.write_busy_s", "s", &Layers::pfs_write_busy_s},
      {"projector.views_per_s", "1/s", &Layers::projector_views_per_s},
      {"iterative.normalize_s", "s", &Layers::iterative_normalize_s},
      {"iterative.forward_s", "s", &Layers::iterative_forward_s},
      {"iterative.backproject_s", "s", &Layers::iterative_backproject_s},
      {"iterative.allreduce_s", "s", &Layers::iterative_allreduce_s},
      {"iterative.update_s", "s", &Layers::iterative_update_s},
      {"iterative.bp_updates_per_s", "1/s",
       &Layers::iterative_bp_updates_per_s},
      {"iterative.residual_rmse_final", "rmse",
       &Layers::iterative_residual_rmse_final},
      {"postproc.store_codec_mb_per_s", "MiB/s",
       &Layers::postproc_store_codec_mb_per_s},
      {"postproc.store_ratio", "ratio", &Layers::postproc_store_ratio},
      {"postproc.store_psnr_db_min", "dB",
       &Layers::postproc_store_psnr_db_min},
      {"service.batches", "count", &Layers::service_batches},
      {"service.resplits", "count", &Layers::service_resplits},
      {"service.queue_latency_s", "s", &Layers::service_queue_latency_s},
      {"service.sart_latency_s", "s", &Layers::service_sart_latency_s},
      {"service.generator_lag_s", "s", &Layers::service_generator_lag_s},
      {"plan.allgather_bytes_per_round", "bytes",
       &Layers::plan_allgather_bytes_per_round},
      {"plan.reduce_bytes_per_epoch", "bytes",
       &Layers::plan_reduce_bytes_per_epoch},
      {"plan.device_bytes", "bytes", &Layers::plan_device_bytes},
      {"perfmodel.predicted_s", "s", &Layers::perfmodel_predicted_s},
      {"perfmodel.predicted_over_measured", "ratio",
       &Layers::perfmodel_predicted_over_measured},
      {"process.cpu_s", "s", &Layers::process_cpu_s},
      {"trace.overhead", "ratio", &Layers::trace_overhead},
  };
  for (const Row& row : rows) report.metric(row.name, l.*row.field, row.unit);
}

ifdk::IfdkOptions world_options() {
  ifdk::IfdkOptions opts;
  opts.ranks = kRanks;
  opts.rows = kRows;
  return opts;
}

namespace {

/// Median seconds of one repetition of `fn`, repeated until both `min_reps`
/// repetitions and `min_seconds` of work have run. `prepare` runs untimed
/// before each repetition.
template <typename Prepare, typename Fn>
double replay_seconds(Prepare&& prepare, Fn&& fn, int min_reps = 3,
                      double min_seconds = 0.2) {
  std::vector<double> times;
  double total = 0;
  while (static_cast<int>(times.size()) < min_reps || total < min_seconds) {
    prepare();
    const double start = now_s();
    fn();
    times.push_back(now_s() - start);
    total += times.back();
  }
  return median_of(times);
}

constexpr auto kNothing = [] {};

struct CollectiveTimes {
  double allgather_round_s = 0;
  double reduce_s = 0;
  double allreduce_s = 0;
};

/// The minimpi replays, on the same 2x2 world and communicator split the
/// runtime uses (column comm = rank / R, row comm = rank % R).
CollectiveTimes time_collectives(const ifdk::DecompositionPlan& plan) {
  constexpr int kGatherRounds = 16;
  constexpr int kReduceReps = 6;
  constexpr int kAllreduceReps = 4;
  CollectiveTimes out;
  const std::size_t proj_bytes = plan.pixels * sizeof(float);
  const std::size_t slab = plan.slab_floats();
  const std::size_t vol = plan.volume_floats();
  const int rows = plan.grid.rows;
  ifdk::mpi::run_world(plan.ranks(), [&](ifdk::mpi::Comm& world) {
    const int rank = world.rank();
    ifdk::mpi::Comm col = world.split(rank / rows, rank % rows);
    ifdk::mpi::Comm row = world.split(rank % rows, rank / rows);
    std::vector<float> send(std::max(slab, vol), 1.0f);
    std::vector<float> gathered(proj_bytes / sizeof(float) * col.size());
    std::vector<float> reduced(std::max(slab, vol));

    auto timed = [&](int reps, auto&& op) {
      op();  // warm-up
      world.barrier();
      const double start = now_s();
      for (int i = 0; i < reps; ++i) op();
      world.barrier();
      return (now_s() - start) / reps;
    };
    const double gather = timed(kGatherRounds, [&] {
      auto req = col.iallgather_ring(send.data(), proj_bytes, gathered.data());
      req.wait();
    });
    const double reduce = timed(kReduceReps, [&] {
      auto req = row.ireduce(send.data(),
                             row.rank() == 0 ? reduced.data() : nullptr, slab,
                             ifdk::mpi::ReduceOp::kSum, 0);
      req.wait();
    });
    const double allreduce = timed(kAllreduceReps, [&] {
      auto req = world.ireduce(send.data(),
                               rank == 0 ? reduced.data() : nullptr, vol,
                               ifdk::mpi::ReduceOp::kSum, 0);
      req.wait();
      world.bcast(reduced.data(), vol * sizeof(float), 0);
    });
    if (rank == 0) {
      out = {gather, reduce, allreduce};
    }
  });
  return out;
}

}  // namespace

void run_replays(Layers& l, const ifdk::geo::CbctGeometry& g,
                 std::span<const Image2D> projections, const Volume& volume,
                 Tracer& tracer) {
  const ifdk::IfdkOptions opts = world_options();
  const ifdk::DecompositionPlan plan = ifdk::DecompositionPlan::make(g, opts);
  l.plan_allgather_bytes_per_round =
      static_cast<double>(plan.allgather_bytes_per_round());
  l.plan_reduce_bytes_per_epoch =
      static_cast<double>(plan.reduce_bytes_per_epoch());
  l.plan_device_bytes = static_cast<double>(plan.device_bytes());

  {
    // Back-projection in rank (row 0, column 0)'s slab-pair configuration
    // over that column's projection share — one Bp-thread's work.
    Tracer::Span span(tracer, "replay.backproj");
    ifdk::bp::BpConfig cfg;
    cfg.batch = opts.bp_batch;
    cfg.simd_backend = opts.simd_backend;
    cfg.k_begin = 0;
    cfg.k_half = plan.slab_h;
    const ifdk::bp::Backprojector bp(g, cfg);
    const auto matrices = ifdk::geo::make_all_projection_matrices(g);
    const std::size_t base = plan.column_base(0);
    const std::size_t count = g.np / static_cast<std::size_t>(plan.grid.columns);
    Volume slab(g.nx, g.ny, 2 * plan.slab_h, ifdk::VolumeLayout::kZMajor);
    const double s = replay_seconds(kNothing, [&] {
      bp.accumulate(slab, projections.subspan(base, count),
                    std::span(matrices).subspan(base, count));
    });
    const ifdk::bp::OpCounts ops = bp.count_ops(count);
    l.backproj_gups = static_cast<double>(ops.voxel_updates) / s / 1073741824.0;
    l.backproj_inner_products_per_update = ops.inner_products_per_update();
  }

  const ifdk::filter::FilterEngine engine(g);
  Image2D work(g.nu, g.nv, /*zero_fill=*/false);
  auto restore = [&] {
    std::memcpy(work.data(), projections[0].data(), work.bytes());
  };
  {
    Tracer::Span span(tracer, "replay.fft");
    const ifdk::fft::RowConvolver conv(g.nu, engine.kernel());
    ifdk::fft::Workspace ws;
    const double s = replay_seconds(
        restore, [&] { conv.convolve_rows(work.data(), g.nv, ws); });
    l.fft_rows_per_s = static_cast<double>(g.nv) / s;
  }
  {
    Tracer::Span span(tracer, "replay.filter");
    ifdk::fft::Workspace ws;
    const double s = replay_seconds(restore, [&] { engine.apply(work, ws); });
    l.filter_proj_per_s = 1.0 / s;
  }
  {
    Tracer::Span span(tracer, "replay.minimpi");
    const CollectiveTimes c = time_collectives(plan);
    l.minimpi_allgather_gbps =
        l.plan_allgather_bytes_per_round / c.allgather_round_s / 1e9;
    l.minimpi_reduce_gbps = l.plan_reduce_bytes_per_epoch / c.reduce_s / 1e9;
    l.minimpi_allreduce_s = c.allreduce_s;
    l.minimpi_world_spawn_s = replay_seconds(
        kNothing,
        [&] {
          ifdk::mpi::run_world(kRanks, [&](ifdk::mpi::Comm& world) {
            const int rank = world.rank();
            [[maybe_unused]] ifdk::mpi::Comm col =
                world.split(rank / kRows, rank % kRows);
            [[maybe_unused]] ifdk::mpi::Comm row =
                world.split(rank % kRows, rank / kRows);
            world.barrier();
          });
        },
        10, 0.05);
  }
  {
    Tracer::Span span(tracer, "replay.projector");
    const ifdk::projector::ForwardProjector fp(g);
    std::size_t view = 0;
    const double s = replay_seconds(kNothing, [&] {
      (void)fp.project(volume, g.beta(view++ % g.np));
    });
    l.projector_views_per_s = 1.0 / s;
  }
  {
    Tracer::Span span(tracer, "replay.iterative_bp");
    Volume acc(g.nx, g.ny, g.nz);
    std::size_t view = 0;
    const double s = replay_seconds(kNothing, [&] {
      const std::size_t v = view++ % g.np;
      ifdk::iterative::backproject_unweighted(g, projections[v], g.beta(v),
                                              acc);
    });
    l.iterative_bp_updates_per_s = static_cast<double>(acc.voxels()) / s;
  }
  {
    // The compressed store path: one slice at a time, quantized to 12 bits
    // and serialized, exactly as the async writer stores it.
    Tracer::Span span(tracer, "replay.postproc");
    const std::size_t slice_px = g.nx * g.ny;
    Volume slice(slice_px, 1, 1);
    const double s = replay_seconds(kNothing, [&] {
      for (std::size_t k = 0; k < g.nz; ++k) {
        std::memcpy(slice.data(), volume.slice(k), slice_px * sizeof(float));
        const auto blob = ifdk::postproc::serialize_volume(
            ifdk::postproc::compress(slice, 12));
        (void)blob;
      }
    });
    l.postproc_store_codec_mb_per_s = static_cast<double>(volume.bytes()) / 1048576.0 / s;
  }
}

void fill_pfs(Layers& l, const CountingFs::Totals& t, double units) {
  const double d = units > 0 ? units : 1.0;
  l.pfs_read_ops = static_cast<double>(t.read_ops) / d;
  l.pfs_read_mb = static_cast<double>(t.read_bytes) / 1048576.0 / d;
  l.pfs_read_busy_s = t.read_busy_s / d;
  l.pfs_write_ops = static_cast<double>(t.write_ops) / d;
  l.pfs_write_mb = static_cast<double>(t.write_bytes) / 1048576.0 / d;
  l.pfs_write_busy_s = t.write_busy_s / d;
}

void fill_ifdk_stages(Layers& l, const std::vector<ifdk::StageTimer>& wall,
                      const std::vector<ifdk::StageTimer>& efficiency,
                      double volumes_per_call) {
  auto stage = [&](const std::vector<ifdk::StageTimer>& timers,
                   const char* name, double divisor) {
    std::vector<double> values;
    for (const ifdk::StageTimer& t : timers) values.push_back(t.get(name));
    return median_of(values) / divisor;
  };
  const double v = volumes_per_call;
  l.ifdk_load_s = stage(wall, "load", v);
  l.ifdk_filter_s = stage(wall, "filter", v);
  l.ifdk_allgather_s = stage(wall, "allgather", v);
  l.ifdk_backprojection_s = stage(wall, "backprojection", v);
  l.ifdk_transpose_s = stage(wall, "transpose", v);
  l.ifdk_reduce_s = stage(wall, "reduce", v);
  l.ifdk_store_s = stage(wall, "store", v);
  l.ifdk_filter_thread = stage(efficiency, "filter_thread", 1);
  l.ifdk_main_thread = stage(efficiency, "main_thread", 1);
  l.ifdk_bp_thread = stage(efficiency, "bp_thread", 1);
  l.ifdk_reduce_thread = stage(efficiency, "reduce_thread", 1);
  l.ifdk_store_thread = stage(efficiency, "store_thread", 1);
}

void model_beside_measurement(const Report& report, Layers& l,
                              const ifdk::geo::CbctGeometry& g,
                              const CountingFs::Totals& traffic,
                              double measured_per_volume_s) {
  ifdk::perfmodel::MicroBench mb;
  // One node of four ranks. Each rank filters on its own thread, so the
  // node's filtering throughput is four single-thread replays.
  mb.gpus_per_node = kRanks;
  mb.th_flt = kRanks * l.filter_proj_per_s;
  // One AllGather round moves one projection per rank of the column.
  mb.th_allgather =
      l.minimpi_allgather_gbps * 1e9 / l.plan_allgather_bytes_per_round;
  mb.bp_gups = l.backproj_gups;
  mb.th_reduce = l.minimpi_reduce_gbps * 1e9;
  mb.batch = world_options().bp_batch;
  // Measured single-operation PFS rates in this run; PCIe and the device
  // transpose keep the model's defaults (no such hardware on a CPU host).
  if (traffic.read_busy_s > 0) {
    mb.bw_load = static_cast<double>(traffic.read_bytes) / traffic.read_busy_s;
  }
  if (traffic.write_busy_s > 0) {
    mb.bw_store =
        static_cast<double>(traffic.write_bytes) / traffic.write_busy_s;
  }
  const ifdk::perfmodel::Breakdown b =
      ifdk::perfmodel::predict(g.problem(), {kRows, kRanks / kRows}, mb);
  l.perfmodel_predicted_s = b.t_runtime;
  l.perfmodel_predicted_over_measured =
      measured_per_volume_s > 0 ? b.t_runtime / measured_per_volume_s : 0;

  report.note("  model beside measurement, seconds per volume "
              "(measured = traced-pass median stage, busy time max over ranks)");
  report.note("    stage            measured   predicted  (paper Eq.)");
  struct Row {
    const char* stage;
    double measured;
    double predicted;
    const char* eq;
  };
  const Row rows[] = {
      {"load", l.ifdk_load_s, b.t_load, "8"},
      {"filter", l.ifdk_filter_s, b.t_flt, "9"},
      {"allgather", l.ifdk_allgather_s, b.t_allgather, "10"},
      {"backprojection", l.ifdk_backprojection_s, b.t_bp, "11-12"},
      {"transpose", l.ifdk_transpose_s, b.t_trans, "13"},
      {"reduce", l.ifdk_reduce_s, b.t_reduce, "15"},
      {"store", l.ifdk_store_s, b.t_store, "16"},
      {"runtime", measured_per_volume_s, b.t_runtime, "17-19"},
  };
  char line[160];
  for (const Row& row : rows) {
    std::snprintf(line, sizeof(line), "    %-15s %10.5f %11.5f  (%s)",
                  row.stage, row.measured, row.predicted, row.eq);
    report.note(line);
  }
}

void print_self_times(const Report& report, const Tracer& tracer) {
  report.note("  self time by span (span minus its children), seconds:");
  char line[160];
  for (const auto& [name, seconds] : tracer.self_seconds()) {
    std::snprintf(line, sizeof(line), "    %-28s %10.5f", name.c_str(),
                  seconds);
    report.note(line);
  }
}

}  // namespace perfbench
