// Quantization to the integer grid [Delta]^d.
//
// Theorems 1–2 state their bounds for P ⊆ [Delta]^d with integer
// coordinates: the minimum interpoint distance is then >= 1, so the
// hierarchy bottoms out after log2(Delta) + O(1) halvings. Real-valued
// inputs are mapped onto that grid by an affine snap whose rounding error
// is bounded relative to the minimum pairwise distance.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/point_set.hpp"

namespace mpte {

/// The affine quantization frame x -> round((x - lo) / cell) + 1. Every
/// quantizer (quantize_to_grid, the MPC snap stage, a dynamic embedder's
/// pinned frame) snaps through it, so all produce the same integer points.
struct QuantFrame {
  std::vector<double> lo;  // lower corner of the box
  /// Lattice cell width (= Embedding::scale_to_input).
  double cell = 1.0;
  std::uint64_t delta = 0;

  /// width / (delta - 1), or 1 for a degenerate box. Requires delta >= 2.
  static double cell_for(double width, std::uint64_t delta);
  /// The frame of the tight bounding box of a nonempty point set.
  static QuantFrame of(const PointSet& points, std::uint64_t delta);

  /// Snaps coordinate x of dimension j onto {1, ..., delta}, clamping
  /// coordinates outside the frame onto its boundary.
  double snap(double x, std::size_t j) const;
  void snap(std::span<const double> src, std::span<double> dst) const;
};

/// Result of quantizing a real point set onto the integer grid.
struct Quantized {
  /// Points with coordinates in {1, ..., delta} (stored as doubles for
  /// pipeline uniformity; values are exact integers).
  PointSet points;
  /// The grid extent Delta actually used.
  std::uint64_t delta;
  /// Multiply a tree/grid distance by this to return to input units.
  double scale_back;
  /// Largest per-coordinate rounding displacement, in input units.
  double max_rounding_error;
};

/// Affinely maps `points` into [1, delta]^d, rounding coordinates to
/// integers: x -> round((x - lo) / cell) + 1 where cell = width / (delta-1).
/// Requires delta >= 2 and at least one point.
Quantized quantize_to_grid(const PointSet& points, std::uint64_t delta);

/// Chooses Delta so that the quantization perturbs every pairwise distance
/// by at most a (1 +- eps) factor: Delta ~ width * sqrt(d) / (eps * d_min),
/// clamped to [2, max_delta]. O(n^2) (computes the distance extremes).
std::uint64_t recommended_delta(const PointSet& points, double eps,
                                std::uint64_t max_delta);

}  // namespace mpte
