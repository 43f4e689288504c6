// The sequential embed() pipeline recomposed from its public calls, with
// each layer timed from outside: FjltConfig::make / Fjlt::transform ->
// recommended_delta -> quantize_to_grid -> build_hybrid_hierarchy (with
// embed()'s retry seeds) -> build_hst -> LcaIndex. The recomposed tree is
// compared byte for byte against embed()'s own, so the layer times are
// known to describe the same work.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/embedder.hpp"

namespace perfbench {

struct EmbedLayers {
  double fjlt_s = 0.0;
  double delta_s = 0.0;
  double quantize_s = 0.0;
  double hierarchy_s = 0.0;
  double assemble_s = 0.0;
  double lca_build_s = 0.0;
  double lca_distance_ns = 0.0;
  std::size_t out_dim = 0;
  std::size_t retries = 0;
  std::size_t levels = 0;
  std::size_t grids = 0;
  std::size_t nodes = 0;

  /// The layers embed() itself runs (LcaIndex is built by its callers).
  double embed_layers_s() const {
    return fjlt_s + delta_s + quantize_s + hierarchy_s + assemble_s;
  }
};

/// Runs the recomposed pipeline for `options` (hybrid method only, which
/// is what every workload uses) and checks its tree against `reference`,
/// the tree embed() returned for the same options.
EmbedLayers recompose_embed(
    const mpte::PointSet& points, const mpte::EmbedOptions& options,
    const mpte::Hst& reference,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
    Report& report);

/// Writes the medians of the layer samples into the per-layer metrics.
void report_embed_layers(Report& report, const std::vector<EmbedLayers>& runs);

}  // namespace perfbench
