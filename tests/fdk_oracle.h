// Serial FDK oracle for the distributed pipeline's bitwise pins.
//
// Recomputes on one thread, without minimpi, the PFS or the engine, the
// exact arithmetic run_distributed / run_streaming perform for one volume
// under a DecompositionPlan:
//   * column c's projections are filtered by FilterEngine (per projection,
//     so the grouping onto threads cannot change a bit);
//   * row r back-projects them into its slab pair with
//     Backprojector{k_begin = r * slab_h, k_half = slab_h, batch = bp_batch},
//     one accumulate() per gather round t holding the images
//     owned_projection(0..R-1, c, t) in row order (the AllGather's rank
//     order);
//   * the C column partials of a row fold the way the row reduce does:
//     column 0 is copied, then columns 1..C-1 are added in ascending order
//     (copying first keeps -0.0 bit-exact);
//   * the folded slab pair is scattered to global slices via global_slice.
// The returned volume is X-major, the layout load_volume() reads back.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "backproj/backprojector.h"
#include "common/volume.h"
#include "filter/filter_engine.h"
#include "ifdk/plan.h"

namespace ifdk {

inline Volume serial_fdk_oracle(
    const DecompositionPlan& plan, std::span<const Image2D> projections,
    const filter::FilterOptions& filter_options = {},
    bp::simd::Backend simd_backend = bp::simd::Backend::kAuto) {
  const geo::CbctGeometry& g = plan.geometry;
  const int rows = plan.grid.rows;
  const int columns = plan.grid.columns;
  const std::size_t pair_depth = 2 * plan.slab_h;
  const filter::FilterEngine engine(g, filter_options);
  const std::vector<geo::Mat34> matrices =
      geo::make_all_projection_matrices(g);

  std::vector<Volume> folded;  // one slab pair per row
  for (int r = 0; r < rows; ++r) {
    folded.emplace_back(g.nx, g.ny, pair_depth, VolumeLayout::kZMajor);
  }
  for (int c = 0; c < columns; ++c) {
    // filtered[t * rows + r] = projection owned_projection(r, c, t).
    std::vector<Image2D> filtered;
    std::vector<geo::Mat34> mats;
    for (std::size_t t = 0; t < plan.rounds; ++t) {
      for (int r = 0; r < rows; ++r) {
        const std::size_t s = plan.owned_projection(r, c, t);
        const Image2D& raw = projections[s];
        filtered.emplace_back(raw.width(), raw.height(), /*zero_fill=*/false);
        std::copy(raw.data(), raw.data() + raw.pixels(),
                  filtered.back().data());
        engine.apply(filtered.back());
        mats.push_back(matrices[s]);
      }
    }
    const auto round_of = [&](const auto& all, std::size_t t) {
      return std::span(all).subspan(t * static_cast<std::size_t>(rows),
                                    static_cast<std::size_t>(rows));
    };
    for (int r = 0; r < rows; ++r) {
      bp::BpConfig cfg;
      cfg.batch = plan.bp_batch;
      cfg.simd_backend = simd_backend;
      cfg.k_begin = static_cast<std::size_t>(r) * plan.slab_h;
      cfg.k_half = plan.slab_h;
      const bp::Backprojector backprojector(g, cfg);
      Volume partial(g.nx, g.ny, pair_depth, VolumeLayout::kZMajor);
      for (std::size_t t = 0; t < plan.rounds; ++t) {
        backprojector.accumulate(partial, round_of(filtered, t),
                                 round_of(mats, t));
      }
      Volume& sum = folded[static_cast<std::size_t>(r)];
      if (c == 0) {
        std::copy(partial.data(), partial.data() + partial.voxels(),
                  sum.data());
      } else {
        for (std::size_t n = 0; n < sum.voxels(); ++n) {
          sum.data()[n] += partial.data()[n];
        }
      }
    }
  }

  Volume out(g.nx, g.ny, g.nz, VolumeLayout::kXMajor);
  for (int r = 0; r < rows; ++r) {
    const Volume& sum = folded[static_cast<std::size_t>(r)];
    for (std::size_t local_k = 0; local_k < pair_depth; ++local_k) {
      const std::size_t k = plan.global_slice(r, local_k);
      for (std::size_t j = 0; j < g.ny; ++j) {
        for (std::size_t i = 0; i < g.nx; ++i) {
          out.at(i, j, k) = sum.at(i, j, local_k);
        }
      }
    }
  }
  return out;
}

}  // namespace ifdk
