// fdk_scan and fdk_stream: closed loops over run_distributed (one volume per
// call) and run_streaming (one 4D-CT stream of several frames per call).
//
// fdk_scan puts a small detector in front of a large volume, so
// back-projection dominates each rank and an 8 MiB row reduce plus the
// slice store follow it. fdk_stream puts a wide detector in front of a small
// volume, so filtering and the 1 MiB-projection AllGather dominate and the
// Bp-thread idles most of the wall.
#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "ifdk/fdk.h"
#include "ifdk/framework.h"
#include "postproc/compression.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ifdk::Image2D;
using ifdk::Volume;

/// The distributed result must match the serial oracle this closely (the
/// bound the framework tests pin: same arithmetic, different grouping).
constexpr double kOracleTolerance = 1e-6;

struct FdkSpec {
  const char* name;
  ifdk::geo::CbctGeometry geometry;
  int frames = 1;
  bool streaming = false;
};

std::string in_prefix(int f) { return "in" + std::to_string(f) + "/"; }
std::string out_prefix(int f) { return "out" + std::to_string(f) + "/slice_"; }

Outcome run_fdk(const Context& ctx, const FdkSpec& spec) {
  const ifdk::geo::CbctGeometry& g = spec.geometry;
  Tracer& tracer = ctx.tracer;
  Outcome out;

  // Inputs and oracles (not part of set-up time): one seeded phantom per
  // frame, its analytic projections, the serial FDK oracle and the
  // voxelized ground truth.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::vector<Image2D>> projections;
  std::vector<Volume> oracle, truth;
  {
    ifdk::ThreadPool pool(hw);
    ifdk::FdkOptions fdk;
    fdk.filter.pool = &pool;
    fdk.backprojection.pool = &pool;
    ifdk::Rng rng(salted_seed(ctx.args.seed, spec.name));
    for (int f = 0; f < spec.frames; ++f) {
      const ifdk::phantom::Phantom phantom = perturbed_shepp_logan(rng);
      projections.push_back(project_views(phantom, g, hw));
      oracle.push_back(ifdk::reconstruct_fdk(g, projections.back(), fdk).volume);
      truth.push_back(ifdk::phantom::voxelize(phantom, g));
    }
  }

  ifdk::IfdkOptions opts = world_options();
  opts.input_prefix = in_prefix(0);
  opts.output_prefix = out_prefix(0);
  std::vector<ifdk::JobSpec> jobs;
  for (int f = 0; f < spec.frames; ++f) {
    jobs.push_back(ifdk::JobSpec{in_prefix(f), out_prefix(f), {}});
  }

  std::unique_ptr<CountingFs> fs;
  std::vector<Volume> first(static_cast<std::size_t>(spec.frames));
  bool measuring = false;
  // Collected while tracing only.
  std::vector<ifdk::StageTimer> walls, efficiencies;
  std::vector<double> volume_latency, store_ratio;

  auto check_frame = [&](int f) {
    Tracer::Span span(tracer, "check");
    Volume v = [&] {
      Tracer::Span load(tracer, "ifdk.load_volume");
      const CountingFs::Uncounted uncounted;
      return ifdk::load_volume(*fs, out_prefix(f), g.vol_dims());
    }();
    maybe_corrupt(v, ctx.args.corrupt && measuring);
    const std::string frame = "frame " + std::to_string(f);
    ctx.checks.expect(relative_rmse(oracle[f], v) <= kOracleTolerance,
                      frame + ": relative RMSE vs serial FDK oracle above 1e-6");
    if (first[f].voxels() == 0) {
      first[f] = std::move(v);
    } else {
      ctx.checks.expect(bitwise_equal(first[f], v),
                        frame + ": volume differs from the first call");
    }
  };

  // One call; returns its wall (the checks that follow are not timed).
  auto call = [&](std::int64_t id) -> double {
    ctx.checks.begin();
    const double start = now_s();
    double wall = 0;
    try {
      {
        Tracer::Span span(tracer,
                          spec.streaming ? "ifdk.run_streaming"
                                         : "ifdk.run_distributed",
                          id);
        Tracer::RootScope root(tracer, span, id);
        if (spec.streaming) {
          const ifdk::StreamingStats st = ifdk::run_streaming(g, *fs, opts, jobs);
          for (int f = 0; f < spec.frames; ++f) {
            ctx.checks.expect(st.volume_errors[f].empty(),
                              "frame store failed: " + st.volume_errors[f]);
          }
          if (tracer.enabled()) {
            walls.push_back(st.wall);
            efficiencies.push_back(st.overlap_efficiency);
            store_ratio.push_back(st.store_ratio());
          }
        } else {
          const ifdk::IfdkStats st = ifdk::run_distributed(g, *fs, opts);
          if (tracer.enabled()) {
            walls.push_back(st.wall);
            efficiencies.push_back(st.overlap_efficiency);
            store_ratio.push_back(1.0);  // raw slices: stored == raw bytes
          }
        }
      }
      wall = now_s() - start;
      if (tracer.enabled()) {
        for (int f = 0; f < spec.frames; ++f) {
          volume_latency.push_back(fs->last_write(out_prefix(f)) - start);
        }
      }
      for (int f = 0; f < spec.frames; ++f) check_frame(f);
    } catch (const std::exception& e) {
      if (wall == 0) wall = now_s() - start;
      ctx.checks.fail(std::string(spec.name) + " call threw: " + e.what());
    }
    ctx.checks.end();
    return wall;
  };

  std::int64_t next_id = 0;
  out.e2e.setup_s = median_setup([&] {
    fs.reset();
    const double start = now_s();
    fs = std::make_unique<CountingFs>(tracer);
    for (int f = 0; f < spec.frames; ++f) {
      ifdk::stage_projections(*fs, in_prefix(f), projections[f]);
    }
    const double staged = now_s() - start;
    return staged + call(next_id++);
  });
  double psnr_min = std::numeric_limits<double>::infinity();
  for (int f = 0; f < spec.frames; ++f) {
    if (first[f].voxels() == 0) {
      throw std::runtime_error("no set-up call produced frame " +
                               std::to_string(f));
    }
    psnr_min = std::min(psnr_min, ifdk::postproc::psnr_db(truth[f], first[f]));
  }
  out.e2e.psnr_db_min = psnr_min;

  measuring = true;
  if (!ctx.args.trace) {
    out.e2e.latency_s = closed_loop(ctx.args.seconds, next_id, call);
    out.e2e.volumes_per_s = spec.frames / out.e2e.latency_s.median();
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
  const CountingFs::Totals traffic =
      CountingFs::delta(fs->totals(), before);
  fill_pfs(l, traffic, calls);
  fill_ifdk_stages(l, walls, efficiencies, spec.frames);
  l.ifdk_volume_latency_s = median_of(volume_latency);
  l.postproc_store_ratio = median_of(store_ratio);
  l.trace_overhead = traced.median() / untraced.median();

  run_replays(l, g, projections[0], first[0], tracer);
  model_beside_measurement(ctx.report, l, g, traffic,
                           untraced.median() / spec.frames);
  return out;
}

}  // namespace

Outcome run_fdk_scan(const Context& ctx) {
  FdkSpec spec{"fdk_scan",
               ctx.args.tiny ? make_geometry(32, 32, 16, 16)
                             : make_geometry(128, 128, 128, 128),
               1, false};
  return run_fdk(ctx, spec);
}

Outcome run_fdk_stream(const Context& ctx) {
  FdkSpec spec{"fdk_stream",
               ctx.args.tiny ? make_geometry(32, 32, 16, 16)
                             : make_geometry(512, 512, 32, 64),
               ctx.args.tiny ? 2 : 4, true};
  return run_fdk(ctx, spec);
}

}  // namespace perfbench
