// service_mixed: an open loop of small jobs from two tenants into one
// ReconService. Seeded Poisson arrivals at a fixed rate of about half the
// service's drain capacity on a 4-core host; two thirds FDK, one third
// one-iteration SART, and tenant "a"'s FDK jobs use the 12-bit compressed
// store. World spin-up, batching, queueing and the store codec dominate; the
// kernels do little. One generator thread submits on schedule and polls
// every JobHandle; a job's latency runs from its scheduled arrival to the
// poll that observes it stored.
//
// latency_s covers the FDK jobs, the interactive class. A SART job costs
// about four FDK jobs here, so over all jobs the median falls between the
// two modes (it is the FDK jobs' 75th percentile) and jumps between them
// when the host speeds up or slows down. SART jobs still load the queue —
// an FDK job that waits behind one shows in the tail — and their own
// latency is the per-layer service.sart_latency_s.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ifdk/framework.h"
#include "iterative/distributed.h"
#include "postproc/compression.h"
#include "service/recon_service.h"
#include "workloads.h"

namespace perfbench {

using ifdk::Image2D;
using ifdk::Volume;
using ifdk::service::JobHandle;
using ifdk::service::JobState;

namespace {

/// Distinct seeded input scans; jobs pick one each.
constexpr int kInputSets = 6;
/// Fixed arrival rate, jobs per second.
constexpr double kArrivalRate = 60.0;
/// Poll interval of the generator thread.
constexpr auto kPoll = std::chrono::microseconds(200);
/// Jobs still open this long after the last arrival count as failed.
constexpr double kDrainLimit_s = 60.0;
constexpr int kStoreBits = 12;

enum class Kind { kFdk, kFdkCompressed, kSart };

struct PlannedJob {
  double arrival = 0;  ///< seconds after the phase starts
  int set = 0;
  Kind kind = Kind::kFdk;
  const char* tenant = "a";
};

/// Seeded schedule of round(rate * duration) jobs: Poisson arrivals
/// conditioned on that count (normalized exponential gaps, i.e. uniform
/// order statistics over the phase), so the offered load is the same on
/// every seed. The mix comes in shuffled blocks of {FDK, FDK, SART}; each
/// job gets a random tenant and input set.
std::vector<PlannedJob> make_schedule(ifdk::Rng& rng, double duration) {
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(kArrivalRate * duration)));
  std::vector<double> arrivals(n + 1);
  double t = 0;
  for (double& a : arrivals) {
    t += -std::log(1.0 - rng.next_double());
    a = t;
  }
  std::vector<PlannedJob> jobs(n);
  std::uint64_t sart_slot = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 == 0) sart_slot = rng.next_below(3);
    PlannedJob& job = jobs[i];
    job.arrival = duration * arrivals[i] / arrivals[n];
    const bool tenant_a = rng.next_below(2) == 0;
    job.tenant = tenant_a ? "a" : "b";
    job.kind = i % 3 == sart_slot ? Kind::kSart
               : tenant_a         ? Kind::kFdkCompressed
                                  : Kind::kFdk;
    job.set = static_cast<int>(rng.next_below(kInputSets));
  }
  return jobs;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kFdk:
      return "service.job.fdk";
    case Kind::kFdkCompressed:
      return "service.job.fdk_compressed";
    case Kind::kSart:
      break;
  }
  return "service.job.sart";
}

std::string in_prefix(int set) { return "set" + std::to_string(set) + "/"; }

ifdk::JobSpec make_spec(Kind kind, int set, const std::string& output,
                        const std::string& tenant) {
  ifdk::JobSpec spec{in_prefix(set), output, {}};
  spec.tenant = tenant;
  // FDK is the interactive class and SART the batch class: an FDK job waits
  // at most for the dispatch in flight, never for queued SART work.
  spec.priority = kind == Kind::kSart ? 0 : 1;
  if (kind == Kind::kSart) {
    spec.workload = ifdk::WorkloadKind::kIterative;
    spec.iterative.algorithm = ifdk::iterative::Algorithm::kSart;
    spec.iterative.iterations = 1;
    spec.iterative.step_fraction = 1.0;
  } else if (kind == Kind::kFdkCompressed) {
    spec.compress_store = true;
    spec.store_bits = kStoreBits;
  }
  return spec;
}

/// What one open-loop phase measured.
struct Phase {
  /// FDK jobs only: see the header comment.
  Samples latency;
  std::vector<double> sart_latency;
  double jobs_per_s = 0;
  double max_lag_s = 0;
  std::size_t stored = 0;
  std::vector<double> queue_latency, volume_latency, store_psnr;
};

}  // namespace

Outcome run_service_mixed(const Context& ctx) {
  const ifdk::geo::CbctGeometry g = ctx.args.tiny
                                        ? make_geometry(32, 32, 16, 16)
                                        : make_geometry(64, 64, 16, 32);
  Tracer& tracer = ctx.tracer;
  Outcome out;
  const ifdk::IfdkOptions opts = world_options();

  // Inputs, and the reference volumes each job kind must reproduce bit for
  // bit: a direct run_distributed (raw FDK), a direct one-job run_streaming
  // with the compressed store, and a direct run_iterative.
  ifdk::Rng rng(salted_seed(ctx.args.seed, "service_mixed"));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::vector<Image2D>> projections;
  std::vector<Volume> ref_fdk, ref_cmp, ref_sart;
  double psnr_min = std::numeric_limits<double>::infinity();
  {
    CountingFs scratch(tracer);
    for (int k = 0; k < kInputSets; ++k) {
      const ifdk::phantom::Phantom phantom = perturbed_shepp_logan(rng);
      projections.push_back(project_views(phantom, g, hw));
      ifdk::stage_projections(scratch, in_prefix(k), projections.back());
      ifdk::IfdkOptions direct = opts;
      direct.input_prefix = in_prefix(k);
      direct.output_prefix = "ref/fdk_";
      ifdk::run_distributed(g, scratch, direct);
      ref_fdk.push_back(ifdk::load_volume(scratch, "ref/fdk_", g.vol_dims()));
      const ifdk::JobSpec cmp =
          make_spec(Kind::kFdkCompressed, k, "ref/cmp_", "a");
      ifdk::run_streaming(g, scratch, opts, std::span(&cmp, 1));
      ref_cmp.push_back(ifdk::load_volume(scratch, "ref/cmp_", g.vol_dims(),
                                          /*compressed_store=*/true));
      ifdk::iterative::run_iterative(g, scratch, opts,
                                     make_spec(Kind::kSart, k, "ref/sart_", "b"));
      ref_sart.push_back(
          ifdk::load_volume(scratch, "ref/sart_", g.vol_dims()));
      const Volume truth = ifdk::phantom::voxelize(phantom, g);
      for (const Volume* v : {&ref_fdk[k], &ref_cmp[k], &ref_sart[k]}) {
        psnr_min = std::min(psnr_min, ifdk::postproc::psnr_db(truth, *v));
      }
    }
  }
  out.e2e.psnr_db_min = psnr_min;
  auto reference = [&](Kind kind, int set) -> const Volume& {
    switch (kind) {
      case Kind::kFdk:
        return ref_fdk[set];
      case Kind::kFdkCompressed:
        return ref_cmp[set];
      case Kind::kSart:
        break;
    }
    return ref_sart[set];
  };

  std::unique_ptr<CountingFs> fs;
  std::unique_ptr<ifdk::service::ReconService> svc;
  ifdk::service::ServiceOptions sopts;
  sopts.ifdk = opts;
  bool measuring = false;

  // Checks one terminal job's output against its reference; while tracing,
  // appends a compressed job's store PSNR to `store_psnr` when given.
  auto check_job = [&](const JobHandle& h, Kind kind, int set,
                       const std::string& output,
                       std::vector<double>* store_psnr) {
    Tracer::Span span(tracer, "check", static_cast<std::int64_t>(h.id()));
    if (h.state() != JobState::kStored) {
      ctx.checks.fail("job " + std::to_string(h.id()) + " failed: " + h.error());
      return;
    }
    Volume v = [&] {
      Tracer::Span load(tracer, "ifdk.load_volume");
      const CountingFs::Uncounted uncounted;
      return ifdk::load_volume(*fs, output, g.vol_dims(),
                               kind == Kind::kFdkCompressed);
    }();
    maybe_corrupt(v, ctx.args.corrupt && measuring);
    ctx.checks.expect(bitwise_equal(reference(kind, set), v),
                      "job " + std::to_string(h.id()) +
                          " differs from the direct run on the same inputs");
    if (store_psnr != nullptr && tracer.enabled() &&
        kind == Kind::kFdkCompressed) {
      store_psnr->push_back(ifdk::postproc::psnr_db(ref_fdk[set], v));
    }
  };

  auto open_loop = [&](const std::vector<PlannedJob>& schedule) {
    Phase phase;
    struct Open {
      std::size_t index;
      JobHandle handle;
      std::string output;
    };
    std::vector<Open> open;
    const double base = now_s() + 0.01;
    double last_done = base;
    std::size_t next = 0;
    while (true) {
      double now = now_s();
      while (next < schedule.size() && base + schedule[next].arrival <= now) {
        const PlannedJob& job = schedule[next];
        const std::string output = "job" + std::to_string(next) + "/slice_";
        phase.max_lag_s =
            std::max(phase.max_lag_s, now_s() - (base + job.arrival));
        try {
          Tracer::Span span(tracer, "service.submit");
          open.push_back({next, svc->submit(make_spec(job.kind, job.set,
                                                      output, job.tenant)),
                          output});
        } catch (const std::exception& e) {
          ctx.checks.begin();
          ctx.checks.fail(std::string("submit threw: ") + e.what());
          ctx.checks.end();
        }
        ++next;
        now = now_s();
      }
      for (std::size_t i = 0; i < open.size();) {
        const JobState state = open[i].handle.state();
        if (state != JobState::kStored && state != JobState::kFailed) {
          ++i;
          continue;
        }
        const double done = now_s();
        const PlannedJob& job = schedule[open[i].index];
        const double arrival = base + job.arrival;
        tracer.record(kind_name(job.kind), arrival, done);
        ctx.checks.begin();
        if (state == JobState::kStored) {
          if (job.kind == Kind::kSart) {
            phase.sart_latency.push_back(done - arrival);
          } else {
            phase.latency.add(done - arrival);
          }
          ++phase.stored;
          last_done = done;
          phase.queue_latency.push_back(open[i].handle.queue_latency_s());
          if (job.kind != Kind::kSart) {
            phase.volume_latency.push_back(fs->last_write(open[i].output) -
                                           arrival);
          }
        }
        check_job(open[i].handle, job.kind, job.set, open[i].output,
                  &phase.store_psnr);
        ctx.checks.end();
        fs->remove_prefix(open[i].output);
        open[i] = std::move(open.back());
        open.pop_back();
      }
      if (next == schedule.size()) {
        if (open.empty()) break;
        const double last_arrival = base + schedule.back().arrival;
        if (now_s() - last_arrival > kDrainLimit_s) {
          for (const Open& o : open) {
            ctx.checks.begin();
            ctx.checks.fail("job " + std::to_string(o.handle.id()) +
                            " not finished " +
                            std::to_string(kDrainLimit_s) +
                            " s after the last arrival");
            ctx.checks.end();
          }
          break;
        }
      }
      std::this_thread::sleep_for(kPoll);
    }
    if (!schedule.empty() && last_done > base + schedule.front().arrival) {
      phase.jobs_per_s = static_cast<double>(phase.stored) /
                         (last_done - (base + schedule.front().arrival));
    }
    return phase;
  };

  // Set-up ends when one job of each kind (raw FDK, compressed FDK, SART)
  // has been stored, so every path's first-call work is inside it.
  std::int64_t warm_id = 0;
  out.e2e.setup_s = median_setup([&] {
    svc.reset();
    fs.reset();
    const double start = now_s();
    fs = std::make_unique<CountingFs>(tracer);
    for (int k = 0; k < kInputSets; ++k) {
      ifdk::stage_projections(*fs, in_prefix(k), projections[k]);
    }
    svc = std::make_unique<ifdk::service::ReconService>(g, *fs, sopts);
    const Kind kinds[] = {Kind::kFdk, Kind::kFdkCompressed, Kind::kSart};
    std::vector<std::pair<JobHandle, std::string>> warm;
    for (const Kind kind : kinds) {
      const std::string output = "warm" + std::to_string(warm_id++) + "/slice_";
      warm.emplace_back(svc->submit(make_spec(kind, 0, output, "a")), output);
    }
    for (const auto& [handle, output] : warm) handle.wait();
    const double seconds = now_s() - start;
    for (std::size_t i = 0; i < warm.size(); ++i) {
      ctx.checks.begin();
      check_job(warm[i].first, kinds[i], 0, warm[i].second, nullptr);
      ctx.checks.end();
      fs->remove_prefix(warm[i].second);
    }
    return seconds;
  });

  measuring = true;
  if (!ctx.args.trace) {
    Phase p = open_loop(make_schedule(rng, ctx.args.seconds));
    out.e2e.latency_s = std::move(p.latency);
    out.e2e.volumes_per_s = p.jobs_per_s;
    return out;
  }

  const Phase untraced =
      open_loop(make_schedule(rng, ctx.args.seconds * kUntracedShare));
  tracer.set_enabled(true);
  const CountingFs::Totals before = fs->totals();
  const ifdk::service::ServiceStats stats_before = svc->stats();
  const double cpu_before = process_cpu_s();
  const Phase traced =
      open_loop(make_schedule(rng, ctx.args.seconds * (1 - kUntracedShare)));
  const ifdk::service::ServiceStats stats_after = svc->stats();
  const double jobs = static_cast<double>(std::max<std::size_t>(1, traced.stored));
  Layers& l = out.layers;
  l.process_cpu_s = (process_cpu_s() - cpu_before) / jobs;
  fill_pfs(l, CountingFs::delta(fs->totals(), before), jobs);
  l.service_batches =
      static_cast<double>(stats_after.batches - stats_before.batches);
  l.service_resplits =
      static_cast<double>(stats_after.resplits - stats_before.resplits);
  l.service_queue_latency_s = median_of(traced.queue_latency);
  l.service_sart_latency_s = median_of(traced.sart_latency);
  l.service_generator_lag_s = traced.max_lag_s;
  l.ifdk_volume_latency_s = median_of(traced.volume_latency);
  const std::size_t raw = stats_after.store_raw_bytes - stats_before.store_raw_bytes;
  const std::size_t stored =
      stats_after.store_stored_bytes - stats_before.store_stored_bytes;
  l.postproc_store_ratio =
      stored > 0 ? static_cast<double>(raw) / static_cast<double>(stored) : 1.0;
  l.postproc_store_psnr_db_min =
      traced.store_psnr.empty()
          ? 0
          : *std::min_element(traced.store_psnr.begin(), traced.store_psnr.end());
  l.trace_overhead = traced.latency.median() / untraced.latency.median();
  run_replays(l, g, projections[0], ref_fdk[0], tracer);
  return out;
}

}  // namespace perfbench
