#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

namespace perfbench {

using ifdk::Image2D;
using ifdk::Volume;

double now_s() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// -- samples -------------------------------------------------------------------

double median_of(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Samples::median() const { return median_of(values_); }

Samples::Tail Samples::tail() const {
  Tail t;
  if (values_.empty()) return t;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  if (n <= 10) {
    t.value = sorted.back();
    return t;
  }
  t.value = sorted[n - 11];
  t.beyond = 10;
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

// -- report --------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back({name, value, unit});
  std::printf("  %-36s %16.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::note(const std::string& line) const {
  std::printf("%s\n", line.c_str());
}

void Report::print_json(bool correct, std::size_t attempted,
                        std::size_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char value[64];
    // %.17g keeps every digit; non-finite values cannot appear in JSON.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out += (i == 0 ? "" : ", ");
    out += "\"" + e.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// -- tracing -------------------------------------------------------------------

namespace {
thread_local std::vector<std::uint64_t> t_open_spans;
}  // namespace

Tracer::Span::Span(Tracer& tracer, std::string name, std::int64_t call)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.next_id_.fetch_add(1);
  parent_ = t_open_spans.empty() ? tracer_.root_.load() : t_open_spans.back();
  name_ = std::move(name);
  call_ = call >= 0 ? call : tracer_.root_call_.load();
  t_open_spans.push_back(id_);
  start_ = now_s();
}

Tracer::Span::~Span() {
  if (id_ == 0) return;
  const double end = now_s();
  t_open_spans.pop_back();
  tracer_.push({id_, parent_, std::move(name_), start_, end, call_, 0});
}

Tracer::RootScope::RootScope(Tracer& tracer, const Span& span,
                             std::int64_t call)
    : tracer_(tracer) {
  tracer_.root_.store(span.id());
  tracer_.root_call_.store(call);
}

Tracer::RootScope::~RootScope() {
  tracer_.root_.store(0);
  tracer_.root_call_.store(-1);
}

void Tracer::record(const std::string& name, double start, double end) {
  if (!enabled()) return;
  const std::uint64_t parent =
      t_open_spans.empty() ? root_.load() : t_open_spans.back();
  push({next_id_.fetch_add(1), parent, name, start, end, root_call_.load(),
        0});
}

void Tracer::push(Record record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = threads_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(threads_.size()));
  record.tid = it->second;
  records_.push_back(std::move(record));
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Record& r : records_) {
    if (r.parent != 0) children[r.parent].emplace_back(r.start, r.end);
  }
  std::map<std::string, double> self;
  for (const Record& r : records_) {
    double covered = 0;
    auto it = children.find(r.id);
    if (it != children.end()) {
      // Children may overlap (concurrent PFS operations on several program
      // threads), so subtract the union of their intervals clipped to r.
      auto spans = it->second;
      std::sort(spans.begin(), spans.end());
      double cur_start = 0, cur_end = -1;
      for (auto [s, e] : spans) {
        s = std::max(s, r.start);
        e = std::min(e, r.end);
        if (e <= s) continue;
        if (s > cur_end) {
          if (cur_end > cur_start) covered += cur_end - cur_start;
          cur_start = s;
          cur_end = e;
        } else {
          cur_end = std::max(cur_end, e);
        }
      }
      if (cur_end > cur_start) covered += cur_end - cur_start;
    }
    self[r.name] += std::max(0.0, (r.end - r.start) - covered);
  }
  return self;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& workload,
                                std::uint64_t seed) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": \""
      << workload << "\", \"seed\": " << seed << "}, \"traceEvents\": [\n";
  out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"args\": {\"name\": \"perfbench "
      << workload << "\"}}";
  char line[512];
  for (const Record& r : records_) {
    std::snprintf(line, sizeof(line),
                  ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"span\": %llu, \"parent\": %llu, \"call\": %lld}}",
                  r.name.c_str(), r.tid, r.start * 1e6,
                  (r.end - r.start) * 1e6,
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent),
                  static_cast<long long>(r.call));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// -- instrumented PFS --------------------------------------------------------

namespace {

std::uint64_t to_ns(double seconds) {
  return static_cast<std::uint64_t>(std::llround(seconds * 1e9));
}

/// Object name without its trailing decimal index ("out3/slice_17" ->
/// "out3/slice_").
std::string prefix_of(const std::string& name) {
  std::size_t end = name.size();
  while (end > 0 && name[end - 1] >= '0' && name[end - 1] <= '9') --end;
  return name.substr(0, end);
}

thread_local bool t_uncounted = false;

}  // namespace

CountingFs::Uncounted::Uncounted() { t_uncounted = true; }
CountingFs::Uncounted::~Uncounted() { t_uncounted = false; }

void CountingFs::write_object(const std::string& name, const void* data,
                              std::size_t bytes) {
  const double start = now_s();
  ParallelFileSystem::write_object(name, data, bytes);
  const double end = now_s();
  tracer_.record("pfs.write_object", start, end);
  if (t_uncounted) return;
  write_ops_.fetch_add(1, std::memory_order_relaxed);
  write_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  write_ns_.fetch_add(to_ns(end - start), std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(writes_mutex_);
    double& last = last_write_[prefix_of(name)];
    last = std::max(last, end);
  }
}

void CountingFs::read_object(const std::string& name, void* data,
                             std::size_t bytes) const {
  const double start = now_s();
  ParallelFileSystem::read_object(name, data, bytes);
  const double end = now_s();
  tracer_.record("pfs.read_object", start, end);
  if (t_uncounted) return;
  read_ops_.fetch_add(1, std::memory_order_relaxed);
  read_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  read_ns_.fetch_add(to_ns(end - start), std::memory_order_relaxed);
}

CountingFs::Totals CountingFs::totals() const {
  Totals t;
  t.read_ops = read_ops_.load();
  t.read_bytes = read_bytes_.load();
  t.read_busy_s = static_cast<double>(read_ns_.load()) * 1e-9;
  t.write_ops = write_ops_.load();
  t.write_bytes = write_bytes_.load();
  t.write_busy_s = static_cast<double>(write_ns_.load()) * 1e-9;
  return t;
}

CountingFs::Totals CountingFs::delta(const Totals& after,
                                     const Totals& before) {
  Totals d;
  d.read_ops = after.read_ops - before.read_ops;
  d.read_bytes = after.read_bytes - before.read_bytes;
  d.read_busy_s = after.read_busy_s - before.read_busy_s;
  d.write_ops = after.write_ops - before.write_ops;
  d.write_bytes = after.write_bytes - before.write_bytes;
  d.write_busy_s = after.write_busy_s - before.write_busy_s;
  return d;
}

double CountingFs::last_write(const std::string& prefix) const {
  const std::lock_guard<std::mutex> lock(writes_mutex_);
  auto it = last_write_.find(prefix);
  return it == last_write_.end() ? 0.0 : it->second;
}

void CountingFs::remove_prefix(const std::string& prefix) {
  for (const std::string& name : list_objects()) {
    if (name.compare(0, prefix.size(), prefix) == 0) remove_object(name);
  }
  const std::lock_guard<std::mutex> lock(writes_mutex_);
  last_write_.erase(prefix);
}

// -- scenes and checks ---------------------------------------------------------

ifdk::phantom::Phantom perturbed_shepp_logan(ifdk::Rng& rng) {
  ifdk::phantom::Phantom p = ifdk::phantom::shepp_logan();
  auto jitter = [&](double amplitude) {
    return (2.0 * rng.next_double() - 1.0) * amplitude;
  };
  for (std::size_t i = 0; i < p.ellipsoids.size(); ++i) {
    auto& e = p.ellipsoids[i];
    // The two skull shells stay nearly fixed (they dominate every image
    // metric); the inner structures move, resize and change contrast.
    const bool shell = i < 2;
    const double move = shell ? 0.002 : 0.02;
    const double size = shell ? 0.002 : 0.05;
    e.center.x += jitter(move);
    e.center.y += jitter(move);
    e.center.z += jitter(move);
    e.semi_axes.x *= 1.0 + jitter(size);
    e.semi_axes.y *= 1.0 + jitter(size);
    e.semi_axes.z *= 1.0 + jitter(size);
    if (!shell) {
      e.density *= 1.0 + jitter(0.1);
      e.phi += jitter(0.05);
    }
  }
  return p;
}

std::vector<Image2D> project_views(const ifdk::phantom::Phantom& phantom,
                                   const ifdk::geo::CbctGeometry& g,
                                   unsigned threads) {
  std::vector<Image2D> views(g.np);
  std::vector<std::thread> workers;
  const unsigned n = std::max(1u, threads);
  for (unsigned w = 0; w < n; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t s = w; s < g.np; s += n) {
        views[s] = ifdk::phantom::project(phantom, g, g.beta(s));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return views;
}

double relative_rmse(const Volume& reference, const Volume& v) {
  if (reference.voxels() != v.voxels() || reference.voxels() == 0) {
    return std::numeric_limits<double>::infinity();
  }
  double acc = 0, peak = 0;
  for (std::size_t n = 0; n < reference.voxels(); ++n) {
    const double d = static_cast<double>(reference.data()[n]) - v.data()[n];
    acc += d * d;
    peak = std::max(peak, std::abs(static_cast<double>(reference.data()[n])));
  }
  return std::sqrt(acc / static_cast<double>(reference.voxels())) / peak;
}

bool bitwise_equal(const Volume& a, const Volume& b) {
  return a.voxels() == b.voxels() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

void CheckLog::fail(const std::string& what) {
  unit_failed_ = true;
  if (messages_ < 5) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  ++messages_;
}

void maybe_corrupt(Volume& volume, bool enabled) {
  static bool done = false;
  if (!enabled || done || volume.voxels() == 0) return;
  volume.data()[volume.voxels() / 2] += 1.0f;
  done = true;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::uint64_t salted_seed(std::uint64_t seed, const std::string& salt) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (char c : salt) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h ^ (seed * 0x9e3779b97f4a7c15ull);
}

}  // namespace perfbench
