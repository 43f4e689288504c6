#include "geometry/quantize.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/status.hpp"
#include "geometry/bounding_box.hpp"

namespace mpte {

double QuantFrame::cell_for(double width, std::uint64_t delta) {
  return width > 0.0 ? width / static_cast<double>(delta - 1) : 1.0;
}

QuantFrame QuantFrame::of(const PointSet& points, std::uint64_t delta) {
  const BoundingBox box = BoundingBox::of(points);
  return QuantFrame{box.lo(), cell_for(box.width(), delta), delta};
}

double QuantFrame::snap(double x, std::size_t j) const {
  const double offset = (x - lo[j]) / cell;
  return std::clamp(std::round(offset), 0.0, static_cast<double>(delta - 1)) +
         1.0;
}

void QuantFrame::snap(std::span<const double> src,
                      std::span<double> dst) const {
  for (std::size_t j = 0; j < src.size(); ++j) dst[j] = snap(src[j], j);
}

Quantized quantize_to_grid(const PointSet& points, std::uint64_t delta) {
  if (delta < 2) throw MpteError("quantize_to_grid: delta must be >= 2");
  if (points.empty()) throw MpteError("quantize_to_grid: empty point set");

  const QuantFrame frame = QuantFrame::of(points, delta);
  Quantized out;
  out.delta = delta;
  out.scale_back = frame.cell;
  out.max_rounding_error = 0.0;
  out.points = PointSet(points.size(), points.dim());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto src = points[i];
    auto dst = out.points[i];
    for (std::size_t j = 0; j < points.dim(); ++j) {
      const double offset = (src[j] - frame.lo[j]) / frame.cell;
      dst[j] = frame.snap(src[j], j);
      out.max_rounding_error = std::max(
          out.max_rounding_error, std::abs(offset - (dst[j] - 1.0)) * frame.cell);
    }
  }
  return out;
}

std::uint64_t recommended_delta(const PointSet& points, double eps,
                                std::uint64_t max_delta) {
  assert(eps > 0.0);
  const auto ext = pairwise_distance_extremes(points);
  if (ext.max == 0.0 || ext.min == 0.0) return 2;
  const double width = BoundingBox::of(points).width();
  // Per-coordinate rounding error is cell/2 = width / (2(Delta-1)); the
  // distance between two points moves by at most sqrt(d) * cell. Require
  // sqrt(d) * cell <= eps * d_min.
  const double sqrt_d = std::sqrt(static_cast<double>(points.dim()));
  const double needed = width * sqrt_d / (eps * ext.min) + 1.0;
  const double clamped =
      std::clamp(needed, 2.0, static_cast<double>(max_delta));
  return static_cast<std::uint64_t>(std::ceil(clamped));
}

}  // namespace mpte
