// sart: a closed loop of distributed SART jobs through run_iterative. Forward
// projection and its normalization dominate; back-projection and the volume
// all-reduce make up the rest. The only workload that drives the projector,
// the iterative layer and the volume all-reduce.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ifdk/framework.h"
#include "iterative/distributed.h"
#include "postproc/compression.h"
#include "workloads.h"

namespace perfbench {

using ifdk::Image2D;
using ifdk::Volume;

namespace {
/// Residuals may not grow between iterations by more than this factor.
constexpr double kResidualSlack = 1.0001;
}  // namespace

Outcome run_sart(const Context& ctx) {
  const ifdk::geo::CbctGeometry g = ctx.args.tiny
                                        ? make_geometry(32, 32, 16, 16)
                                        : make_geometry(64, 64, 64, 64);
  Tracer& tracer = ctx.tracer;
  Outcome out;

  ifdk::Rng rng(salted_seed(ctx.args.seed, "sart"));
  const ifdk::phantom::Phantom phantom = perturbed_shepp_logan(rng);
  const std::vector<Image2D> projections =
      project_views(phantom, g, std::max(1u, std::thread::hardware_concurrency()));
  const Volume truth = ifdk::phantom::voxelize(phantom, g);

  const ifdk::IfdkOptions opts = world_options();
  ifdk::JobSpec job{"proj/", "vol/slice_", {}};
  job.workload = ifdk::WorkloadKind::kIterative;
  job.iterative.algorithm = ifdk::iterative::Algorithm::kSart;
  job.iterative.iterations = 2;

  std::unique_ptr<CountingFs> fs;
  Volume first;
  bool measuring = false;
  std::vector<ifdk::StageTimer> walls;  // per traced call, per iteration
  std::vector<double> residual_final, volume_latency;

  auto call = [&](std::int64_t id) -> double {
    ctx.checks.begin();
    const double start = now_s();
    double wall = 0;
    try {
      ifdk::iterative::IterStats st;
      {
        Tracer::Span span(tracer, "iterative.run_iterative", id);
        Tracer::RootScope root(tracer, span, id);
        st = ifdk::iterative::run_iterative(g, *fs, opts, job);
      }
      wall = now_s() - start;
      ctx.checks.expect(st.iterations_run == job.iterative.iterations,
                        "sart stopped early");
      for (std::size_t i = 1; i < st.residual_rmse.size(); ++i) {
        ctx.checks.expect(
            st.residual_rmse[i] <= st.residual_rmse[i - 1] * kResidualSlack,
            "sart residual grew at iteration " + std::to_string(i));
      }
      if (tracer.enabled()) {
        ifdk::StageTimer per_iteration;
        for (const auto& [stage, seconds] : st.wall.stages()) {
          per_iteration.add(stage, seconds / st.iterations_run);
        }
        walls.push_back(per_iteration);
        residual_final.push_back(st.residual_rmse.back());
        volume_latency.push_back(fs->last_write(job.output_prefix) - start);
      }
      Tracer::Span span(tracer, "check");
      Volume v = [&] {
        Tracer::Span load(tracer, "ifdk.load_volume");
        const CountingFs::Uncounted uncounted;
        return ifdk::load_volume(*fs, job.output_prefix, g.vol_dims());
      }();
      maybe_corrupt(v, ctx.args.corrupt && measuring);
      if (first.voxels() == 0) {
        first = std::move(v);
      } else {
        ctx.checks.expect(bitwise_equal(first, v),
                          "sart volume differs from the first call");
      }
    } catch (const std::exception& e) {
      if (wall == 0) wall = now_s() - start;
      ctx.checks.fail(std::string("sart call threw: ") + e.what());
    }
    ctx.checks.end();
    return wall;
  };

  std::int64_t next_id = 0;
  out.e2e.setup_s = median_setup([&] {
    fs.reset();
    const double start = now_s();
    fs = std::make_unique<CountingFs>(tracer);
    ifdk::stage_projections(*fs, job.input_prefix, projections);
    const double staged = now_s() - start;
    return staged + call(next_id++);
  });
  if (first.voxels() == 0) {
    throw std::runtime_error("no set-up call produced a volume");
  }
  out.e2e.psnr_db_min = ifdk::postproc::psnr_db(truth, first);

  measuring = true;
  if (!ctx.args.trace) {
    out.e2e.latency_s = closed_loop(ctx.args.seconds, next_id, call);
    out.e2e.volumes_per_s = 1.0 / out.e2e.latency_s.median();
    return out;
  }

  const Samples untraced =
      closed_loop(ctx.args.seconds * kUntracedShare, next_id, call);
  tracer.set_enabled(true);
  const CountingFs::Totals before = fs->totals();
  const double cpu_before = process_cpu_s();
  const Samples traced =
      closed_loop(ctx.args.seconds * (1 - kUntracedShare), next_id, call);
  const double calls = static_cast<double>(traced.size());
  Layers& l = out.layers;
  l.process_cpu_s = (process_cpu_s() - cpu_before) / calls;
  fill_pfs(l, CountingFs::delta(fs->totals(), before), calls);
  auto stage = [&](const char* name) {
    std::vector<double> values;
    for (const ifdk::StageTimer& t : walls) values.push_back(t.get(name));
    return median_of(values);
  };
  l.iterative_normalize_s = stage("normalize");
  l.iterative_forward_s = stage("forward");
  l.iterative_backproject_s = stage("backproject");
  l.iterative_allreduce_s = stage("allreduce");
  l.iterative_update_s = stage("update");
  l.iterative_residual_rmse_final = median_of(residual_final);
  l.ifdk_volume_latency_s = median_of(volume_latency);
  l.postproc_store_ratio = 1.0;  // raw slices
  l.trace_overhead = traced.median() / untraced.median();
  run_replays(l, g, projections, first, tracer);
  return out;
}

}  // namespace perfbench
