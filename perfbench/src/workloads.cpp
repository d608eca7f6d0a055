#include "workloads.h"

#include <vector>

namespace perfbench {

double median_setup(const std::function<double()>& setup) {
  std::vector<double> times;
  const double start = now_s();
  while (static_cast<int>(times.size()) < kSetupMinReps ||
         (now_s() - start < kSetupMinSeconds &&
          static_cast<int>(times.size()) < kSetupMaxReps)) {
    times.push_back(setup());
  }
  return median_of(times);
}

Samples closed_loop(double budget, std::int64_t& next_id,
                    const std::function<double(std::int64_t)>& call) {
  Samples samples;
  const double start = now_s();
  do {
    samples.add(call(next_id++));
  } while (now_s() - start < budget);
  return samples;
}

ifdk::geo::CbctGeometry make_geometry(std::size_t nu, std::size_t nv,
                                      std::size_t np, std::size_t n) {
  return ifdk::geo::make_standard_geometry({{nu, nv, np}, {n, n, n}});
}

}  // namespace perfbench
