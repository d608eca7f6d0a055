// Shared machinery of the repository benchmark: command-line options, sample
// statistics, the metric report and its JSON line, in-memory span tracing,
// the instrumented PFS, seeded scene synthesis and the output checks.
//
// Everything here lives outside the program under test: spans are recorded
// around the benchmark's own calls into the public entry points, and the PFS
// wrapper sees only the virtual read_object / write_object boundary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/image.h"
#include "common/rng.h"
#include "common/volume.h"
#include "geometry/cbct.h"
#include "pfs/pfs.h"
#include "phantom/phantom.h"

namespace perfbench {

/// Parsed command line (see main.cpp for the flags).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test geometry: every workload at a few-millisecond size.
  bool tiny = false;
  /// Self-test: corrupt a copy of the first measured result before checking
  /// it, so the output check must count one failure.
  bool corrupt = false;
  /// Where the traced pass writes its Chrome trace-event JSON ("" = skip).
  std::string trace_out;
};

/// Seconds since process start on the steady clock (the time base of every
/// span and every arrival schedule).
double now_s();

/// A set of timing samples with the benchmark's two summaries.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t size() const { return values_.size(); }
  double median() const;
  /// The highest percentile that still has at least ten samples beyond it:
  /// the sample with exactly ten larger ones. With ten samples or fewer the
  /// maximum is returned and `percentile` reads 100.
  struct Tail {
    double value = 0;
    double percentile = 100;
    std::size_t beyond = 0;
  };
  Tail tail() const;

 private:
  std::vector<double> values_;
};

/// Median of a plain vector (0 when empty).
double median_of(std::vector<double> values);

/// The metrics a run prints: human-readable lines as they are set, and the
/// final one-line JSON object the harness parses.
class Report {
 public:
  /// Records a metric for the JSON line (and prints it).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Prints an informational line that is not part of the JSON metrics.
  void note(const std::string& line) const;
  /// Prints the final JSON line.
  void print_json(bool correct, std::size_t attempted,
                  std::size_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// -- tracing -------------------------------------------------------------------

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per span. Spans nest per thread; a span opened on a thread with no
/// open span is parented to the current root (see RootScope), which is how
/// PFS operations on the program's own threads attach to the call that
/// caused them.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Switched on only between calls, never while one is in flight.
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = none
    std::string name;
    double start = 0;
    double end = 0;
    std::int64_t call = -1;  ///< call or job id, -1 = none
    std::uint32_t tid = 0;   ///< small per-thread number
  };

  /// RAII span on the calling thread.
  class Span {
   public:
    Span(Tracer& tracer, std::string name, std::int64_t call = -1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::string name_;
    std::int64_t call_ = -1;
    double start_ = 0;
  };

  /// Makes a span the parent of spans opened on threads that have none
  /// open (the program's rank, pipeline and writer threads).
  class RootScope {
   public:
    RootScope(Tracer& tracer, const Span& span, std::int64_t call);
    ~RootScope();
    RootScope(const RootScope&) = delete;
    RootScope& operator=(const RootScope&) = delete;

   private:
    Tracer& tracer_;
  };

  /// Records a finished span with explicit times on the calling thread
  /// (used by the PFS wrapper, whose operations run on program threads).
  void record(const std::string& name, double start, double end);

  /// Self time per span name: duration minus the union of its children.
  std::map<std::string, double> self_seconds() const;
  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_trace(const std::string& path,
                          const std::string& workload,
                          std::uint64_t seed) const;
  std::size_t size() const;

 private:
  std::uint32_t thread_number();
  void push(Record record);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> root_{0};
  std::atomic<std::int64_t> root_call_{-1};
  mutable std::mutex mutex_;  // guards records_ and threads_
  std::vector<Record> records_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

// -- instrumented PFS --------------------------------------------------------

/// A ParallelFileSystem that counts operations, bytes and busy seconds at
/// the virtual read/write boundary, remembers the last write time of every
/// output prefix (object name without its trailing slice number), and —
/// when the tracer is enabled — records one span per operation.
class CountingFs : public ifdk::pfs::ParallelFileSystem {
 public:
  explicit CountingFs(Tracer& tracer) : tracer_(tracer) {}

  /// While alive, operations on the constructing thread are traced but not
  /// counted: the benchmark's own output checks are not the program's
  /// traffic.
  class Uncounted {
   public:
    Uncounted();
    ~Uncounted();
    Uncounted(const Uncounted&) = delete;
    Uncounted& operator=(const Uncounted&) = delete;
  };

  void write_object(const std::string& name, const void* data,
                    std::size_t bytes) override;
  void read_object(const std::string& name, void* data,
                   std::size_t bytes) const override;

  struct Totals {
    std::uint64_t read_ops = 0;
    std::uint64_t read_bytes = 0;
    double read_busy_s = 0;
    std::uint64_t write_ops = 0;
    std::uint64_t write_bytes = 0;
    double write_busy_s = 0;
  };
  Totals totals() const;
  /// Traffic between two snapshots.
  static Totals delta(const Totals& after, const Totals& before);
  /// now_s() of the last write under `prefix`; 0 when none.
  double last_write(const std::string& prefix) const;
  /// Removes every object whose name starts with `prefix`.
  void remove_prefix(const std::string& prefix);

 private:
  Tracer& tracer_;
  mutable std::atomic<std::uint64_t> read_ops_{0}, read_bytes_{0},
      read_ns_{0};
  std::atomic<std::uint64_t> write_ops_{0}, write_bytes_{0}, write_ns_{0};
  mutable std::mutex writes_mutex_;  // guards last_write_
  std::map<std::string, double> last_write_;
};

// -- scenes and checks ---------------------------------------------------------

/// A seeded Shepp-Logan head with every ellipsoid slightly moved, resized
/// and re-weighted, so each frame or job of a workload has its own inputs.
ifdk::phantom::Phantom perturbed_shepp_logan(ifdk::Rng& rng);

/// All Np analytic projections of `phantom`, views spread over `threads`.
std::vector<ifdk::Image2D> project_views(const ifdk::phantom::Phantom& phantom,
                                         const ifdk::geo::CbctGeometry& g,
                                         unsigned threads);

/// sqrt(mean squared difference) / max |reference| over all voxels; both
/// volumes X-major.
double relative_rmse(const ifdk::Volume& reference, const ifdk::Volume& v);
bool bitwise_equal(const ifdk::Volume& a, const ifdk::Volume& b);

/// Counts attempted and failed units of work; the first few failure
/// messages are printed.
class CheckLog {
 public:
  /// Opens one unit of work (a call or a job).
  void begin() {
    ++attempted_;
    unit_failed_ = false;
  }
  /// Marks the open unit failed and prints the first few reasons.
  void fail(const std::string& what);
  /// Records one check of the open unit: a failure when `ok` is false.
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  /// Closes the open unit; it counts once however many checks failed.
  void end() {
    if (unit_failed_) ++failed_units_;
    unit_failed_ = false;
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_units_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_units_ = 0;
  std::size_t messages_ = 0;
  bool unit_failed_ = false;
};

/// Corrupts one voxel of `volume` the first time it is called with
/// `enabled` (the self-test's proof that the checks can fail).
void maybe_corrupt(ifdk::Volume& volume, bool enabled);

/// Peak resident set of this process in MiB.
double peak_rss_mib();
/// User + system CPU seconds of this process so far.
double process_cpu_s();

/// The 2x2 rank world every workload runs on.
inline constexpr int kRanks = 4;
inline constexpr int kRows = 2;

/// Workload-name-salted seed, so workloads never share inputs.
std::uint64_t salted_seed(std::uint64_t seed, const std::string& salt);

}  // namespace perfbench
