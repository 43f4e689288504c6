// mpte::dyn — the core dynamic-embedding contract.
//
// The tentpole claim: a DynamicEmbedder that has applied any insert/erase
// sequence materializes an Embedding *byte-identical* (hst_to_bytes plus
// the embedded coordinates) to a from-scratch static build over the same
// final point set, because every cluster id is a pure function of
// (seed, level, coordinates). The tests pin that equality at 1 and 8
// threads, for the hybrid and grid methods, over insert-only and mixed
// insert/erase histories; plus the epoch-publication semantics of
// DynamicEnsemble (readers snapshot immutable epochs while a writer
// mutates and republishes — the TSan leg runs this file).
#include "dyn/dynamic_ensemble.hpp"

#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/embedding_io.hpp"
#include "core/ensemble.hpp"
#include "geometry/generators.hpp"
#include "tree/distortion.hpp"
#include "tree/hst_io.hpp"

namespace mpte::dyn {
namespace {

constexpr double kBox = 30.0;

/// Uniform points in [0, kBox]^dim with the first two points pinned to the
/// box corners. The anchors make the bounding box of *any* superset or
/// anchor-preserving subset equal to [0, kBox]^dim, so the quantization
/// frame the static path derives from the final set matches the frame the
/// dynamic instance pinned at creation — the precondition for
/// byte-identity (see dyn/dynamic_embedder.hpp).
PointSet anchored_points(std::size_t n, std::size_t dim, std::uint64_t seed) {
  PointSet points(n, dim);
  for (std::size_t j = 0; j < dim; ++j) {
    points.coord(0, j) = 0.0;
    points.coord(1, j) = kBox;
  }
  const PointSet fill = generate_uniform_cube(n - 2, dim, kBox, seed);
  for (std::size_t i = 2; i < n; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      points.coord(i, j) = fill.coord(i - 2, j);
    }
  }
  return points;
}

DynOptions base_options(PartitionMethod method = PartitionMethod::kHybrid) {
  DynOptions options;
  options.method = method;
  options.seed = 41;
  options.uncovered = UncoveredPolicy::kFail;
  return options;
}

/// Asserts the dynamic instance's materialized embedding is byte-identical
/// to the static build over the same live set.
void expect_matches_static(const DynamicEmbedder& dynamic,
                           const std::map<std::uint64_t, std::vector<double>>&
                               inputs_by_id) {
  PointSet final_points;
  for (const std::uint64_t id : dynamic.live_ids()) {
    final_points.push_back(inputs_by_id.at(id));
  }
  auto statically = embed(final_points, dynamic.static_equivalent_options());
  ASSERT_TRUE(statically.ok()) << statically.status().to_string();

  auto materialized = dynamic.materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status().to_string();

  EXPECT_EQ(hst_to_bytes(materialized->tree), hst_to_bytes(statically->tree));
  EXPECT_EQ(materialized->embedded_points.raw(),
            statically->embedded_points.raw());
  EXPECT_EQ(materialized->scale_to_input, statically->scale_to_input);
  EXPECT_EQ(materialized->delta_used, statically->delta_used);
  EXPECT_EQ(materialized->buckets_used, statically->buckets_used);
  EXPECT_EQ(materialized->point_ids, dynamic.live_ids());
}

// ------------------------------------------------ single-embedder identity

TEST(DynamicEmbedder, InsertOnlyMatchesStaticBuild) {
  // Second input: kSingleton with U = 2 hits singleton balls; while ids
  // equal dense indexes the stable-id salt is the static builder's.
  DynOptions singleton = base_options();
  singleton.uncovered = UncoveredPolicy::kSingleton;
  singleton.num_grids = 2;
  for (const DynOptions& options : {base_options(), singleton}) {
    const std::size_t dim = 6;
    const PointSet initial = anchored_points(40, dim, 7);
    auto dynamic = DynamicEmbedder::create(initial, options);
    ASSERT_TRUE(dynamic.ok()) << dynamic.status().to_string();

    std::map<std::uint64_t, std::vector<double>> inputs;
    for (std::size_t i = 0; i < initial.size(); ++i) {
      inputs[i] = {initial[i].begin(), initial[i].end()};
    }
    const PointSet extra = generate_uniform_cube(25, dim, kBox, 8);
    for (std::size_t i = 0; i < extra.size(); ++i) {
      auto id = dynamic->insert(extra[i]);
      ASSERT_TRUE(id.ok()) << id.status().to_string();
      EXPECT_EQ(*id, initial.size() + i);  // monotonic dense assignment
      inputs[*id] = {extra[i].begin(), extra[i].end()};
    }
    EXPECT_EQ(dynamic->size(), initial.size() + extra.size());
    expect_matches_static(*dynamic, inputs);

    if (options.uncovered == UncoveredPolicy::kSingleton) {
      // Not vacuous: the final set really takes the singleton path.
      const EmbedOptions pinned = dynamic->static_equivalent_options();
      HybridOptions hybrid;
      hybrid.num_buckets = pinned.num_buckets;
      hybrid.delta = pinned.delta;
      hybrid.seed = attempt_seed(pinned.seed, 0);
      hybrid.num_grids = pinned.num_grids;
      hybrid.uncovered = pinned.uncovered;
      const auto materialized = dynamic->materialize();
      ASSERT_TRUE(materialized.ok());
      const auto h =
          build_hybrid_hierarchy(materialized->embedded_points, hybrid);
      ASSERT_TRUE(h.ok());
      EXPECT_GT(h->uncovered_events, 0u);
    }
  }
}

TEST(DynamicEmbedder, RandomInsertEraseMatchesStaticBuild) {
  const std::size_t dim = 5;
  const PointSet initial = anchored_points(30, dim, 11);
  auto dynamic = DynamicEmbedder::create(initial, base_options());
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().to_string();

  std::map<std::uint64_t, std::vector<double>> inputs;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    inputs[i] = {initial[i].begin(), initial[i].end()};
  }
  Rng rng(123);
  const PointSet pool = generate_uniform_cube(200, dim, kBox, 12);
  std::size_t next_pool = 0;
  for (int step = 0; step < 120; ++step) {
    const bool do_insert =
        dynamic->size() <= 10 || rng.uniform_u64(3) != 0;  // 2:1 insert bias
    if (do_insert && next_pool < pool.size()) {
      auto id = dynamic->insert(pool[next_pool]);
      ASSERT_TRUE(id.ok()) << id.status().to_string();
      inputs[*id] = {pool[next_pool].begin(), pool[next_pool].end()};
      ++next_pool;
    } else {
      // Erase a random live non-anchor point (ids 0 and 1 are the corner
      // anchors pinning the quantization frame).
      const auto live = dynamic->live_ids();
      const std::uint64_t victim =
          live[2 + rng.uniform_u64(live.size() - 2)];
      ASSERT_TRUE(dynamic->erase(victim).ok());
      inputs.erase(victim);
    }
  }
  expect_matches_static(*dynamic, inputs);
}

TEST(DynamicEmbedder, GridMethodMatchesStaticBuild) {
  const std::size_t dim = 4;
  const PointSet initial = anchored_points(25, dim, 17);
  auto dynamic =
      DynamicEmbedder::create(initial, base_options(PartitionMethod::kGrid));
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().to_string();

  std::map<std::uint64_t, std::vector<double>> inputs;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    inputs[i] = {initial[i].begin(), initial[i].end()};
  }
  const PointSet extra = generate_uniform_cube(20, dim, kBox, 18);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    auto id = dynamic->insert(extra[i]);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    inputs[*id] = {extra[i].begin(), extra[i].end()};
  }
  ASSERT_TRUE(dynamic->erase(5).ok());
  inputs.erase(5);
  expect_matches_static(*dynamic, inputs);
}

TEST(DynamicEmbedder, UpdateGuards) {
  const PointSet initial = anchored_points(4, 3, 21);
  auto dynamic = DynamicEmbedder::create(initial, base_options());
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().to_string();

  // Unknown and duplicate ids are rejected.
  EXPECT_EQ(dynamic->erase(99).code(), StatusCode::kInvalidArgument);
  const std::vector<double> p = {1.0, 2.0, 3.0};
  EXPECT_EQ(dynamic->insert_with_id(2, p).code(),
            StatusCode::kInvalidArgument);
  // Wrong dimension is rejected.
  const std::vector<double> wrong_dim = {1.0, 2.0};
  EXPECT_FALSE(dynamic->insert(wrong_dim).ok());

  // Can erase down to 2 points but not below (embed()'s own lower bound).
  EXPECT_TRUE(dynamic->erase(2).ok());
  EXPECT_TRUE(dynamic->erase(3).ok());
  EXPECT_EQ(dynamic->size(), 2u);
  EXPECT_EQ(dynamic->erase(0).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(dynamic->contains(0));
}

TEST(DynamicEmbedder, CellsRecomputedCountsDepthPerInsert) {
  const PointSet initial = anchored_points(10, 4, 25);
  auto dynamic = DynamicEmbedder::create(initial, base_options());
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().to_string();
  EXPECT_EQ(dynamic->cells_recomputed(), 0u);  // creation is not an update

  const std::vector<double> p = {3.0, 4.0, 5.0, 6.0};
  ASSERT_TRUE(dynamic->insert(p).ok());
  EXPECT_EQ(dynamic->cells_recomputed(), dynamic->levels() + 1);
  ASSERT_TRUE(dynamic->erase(0).ok());  // erases drop a column, no recompute
  EXPECT_EQ(dynamic->cells_recomputed(), dynamic->levels() + 1);
}

TEST(DynamicEmbedder, DistortionEnvelopeHoldsOnDynamicTrees) {
  const std::size_t dim = 5;
  const PointSet initial = anchored_points(30, dim, 29);
  auto dynamic = DynamicEmbedder::create(initial, base_options());
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().to_string();
  const PointSet extra = generate_uniform_cube(30, dim, kBox, 30);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    ASSERT_TRUE(dynamic->insert(extra[i]).ok());
  }
  for (std::uint64_t id : {3ull, 9ull, 14ull}) {
    ASSERT_TRUE(dynamic->erase(id).ok());
  }
  auto materialized = dynamic->materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status().to_string();

  // Domination (Lemma 2) must survive dynamization: tree distances over
  // the *embedded* coordinates dominate the embedded metric.
  const DistortionStats stats =
      measure_distortion(materialized->tree, materialized->embedded_points,
                         /*max_pairs=*/2000, /*seed=*/5);
  EXPECT_GE(stats.min_ratio, 1.0);
  EXPECT_GT(stats.pairs, 0u);
}

// ------------------------------------------------------- ensemble + epochs

TEST(DynamicEnsemble, MatchesStaticEnsembleAtOneAndEightThreads) {
  const std::size_t dim = 5;
  const PointSet initial = anchored_points(30, dim, 33);
  const PointSet extra = generate_uniform_cube(20, dim, kBox, 34);

  for (const std::size_t threads : {1u, 8u}) {
    DynamicEnsemble::Options options;
    options.trees = 3;
    options.threads = threads;
    options.member = base_options();
    auto ensemble = DynamicEnsemble::create(initial, options);
    ASSERT_TRUE(ensemble.ok()) << ensemble.status().to_string();

    PointSet final_points = initial;
    for (std::size_t i = 0; i < extra.size(); ++i) {
      ASSERT_TRUE((*ensemble)->insert(extra[i]).ok());
      final_points.push_back(extra[i]);
    }
    auto epoch = (*ensemble)->publish();
    ASSERT_TRUE(epoch.ok()) << epoch.status().to_string();

    // Same member seeds, same final set -> byte-identical members.
    EmbedOptions static_options =
        (*ensemble)->member(0).static_equivalent_options();
    static_options.seed = options.member.seed;  // root, not member-0, seed
    auto statically = EmbeddingEnsemble::build(final_points, static_options,
                                               options.trees, threads);
    ASSERT_TRUE(statically.ok()) << statically.status().to_string();
    for (std::size_t t = 0; t < options.trees; ++t) {
      EXPECT_EQ(hst_to_bytes((*epoch)->ensemble->member(t).tree),
                hst_to_bytes(statically->member(t).tree))
          << "member " << t << " threads " << threads;
    }
  }
}

TEST(DynamicEnsemble, PublishSwapsImmutableEpochs) {
  const PointSet initial = anchored_points(12, 4, 37);
  DynamicEnsemble::Options options;
  options.trees = 2;
  options.member = base_options();
  auto ensemble = DynamicEnsemble::create(initial, options);
  ASSERT_TRUE(ensemble.ok()) << ensemble.status().to_string();

  const auto first = (*ensemble)->current();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->num_points(), initial.size());

  // Updates are invisible until publish(): the old epoch still serves.
  const std::vector<double> p = {1.0, 2.0, 3.0, 4.0};
  ASSERT_TRUE((*ensemble)->insert(p).ok());
  EXPECT_EQ((*ensemble)->current()->num_points(), initial.size());

  auto second = (*ensemble)->publish();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->version, 2u);
  EXPECT_EQ((*second)->num_points(), initial.size() + 1);
  // The superseded epoch is untouched — readers holding it are safe.
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->num_points(), initial.size());

  const DynStats stats = (*ensemble)->stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.epochs_published, 2u);
  EXPECT_EQ(stats.epoch, 2u);
  EXPECT_GT(stats.nodes_reembedded, 0u);
}

TEST(DynamicEnsemble, InsertRollsBackAllMembersOnFailure) {
  const PointSet initial = anchored_points(10, 3, 41);
  DynamicEnsemble::Options options;
  options.trees = 2;
  options.member = base_options();
  auto ensemble = DynamicEnsemble::create(initial, options);
  ASSERT_TRUE(ensemble.ok()) << ensemble.status().to_string();

  const std::vector<double> wrong_dim = {1.0, 2.0};
  EXPECT_FALSE((*ensemble)->insert(wrong_dim).ok());
  EXPECT_EQ((*ensemble)->size(), initial.size());
  for (std::size_t t = 0; t < options.trees; ++t) {
    EXPECT_EQ((*ensemble)->member(t).size(), initial.size());
  }
}

TEST(DynamicEnsemble, ReadersNeverBlockDuringConcurrentPublish) {
  // The TSan target: reader threads hammer epoch snapshots (atomic
  // shared_ptr loads + tree queries) while the writer thread applies
  // updates and republishes. Readers must only ever observe complete,
  // immutable epochs.
  const std::size_t dim = 4;
  const PointSet initial = anchored_points(20, dim, 45);
  DynamicEnsemble::Options options;
  options.trees = 2;
  options.threads = 1;  // writer stays on its own thread
  options.member = base_options();
  auto ensemble = DynamicEnsemble::create(initial, options);
  ASSERT_TRUE(ensemble.ok()) << ensemble.status().to_string();
  DynamicEnsemble* dyn = ensemble->get();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([dyn, &stop, &reads] {
      std::uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto epoch = dyn->current();
        ASSERT_NE(epoch, nullptr);
        ASSERT_GE(epoch->version, last_version);  // versions are monotonic
        last_version = epoch->version;
        ASSERT_EQ(epoch->point_ids.size(), epoch->num_points());
        const double d = epoch->ensemble->min_distance(0, 1);
        ASSERT_GT(d, 0.0);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const PointSet extra = generate_uniform_cube(16, dim, kBox, 46);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    ASSERT_TRUE(dyn->insert(extra[i]).ok());
    if (i % 2 == 1) {
      ASSERT_TRUE(dyn->erase(dyn->current()->point_ids[2 + i % 8]).ok());
    }
    ASSERT_TRUE(dyn->publish().ok());
    std::this_thread::yield();  // give readers a slice on small machines
  }
  // Make sure the readers actually observed epochs before stopping (on a
  // single-core runner the writer can finish before they are scheduled).
  while (reads.load(std::memory_order_relaxed) < 100) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(dyn->current()->version, 1u + extra.size());
}

// ------------------------------------------------------------ persistence

TEST(DynamicPersistence, EmbeddingRoundTripKeepsStableIds) {
  const PointSet initial = anchored_points(12, 4, 49);
  auto dynamic = DynamicEmbedder::create(initial, base_options());
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().to_string();
  const std::vector<double> p = {2.0, 3.0, 4.0, 5.0};
  ASSERT_TRUE(dynamic->insert(p).ok());
  ASSERT_TRUE(dynamic->erase(3).ok());

  auto materialized = dynamic->materialize();
  ASSERT_TRUE(materialized.ok());
  ASSERT_FALSE(materialized->point_ids.empty());

  const Embedding loaded =
      embedding_from_bytes(embedding_to_bytes(*materialized, true));
  EXPECT_EQ(loaded.point_ids, materialized->point_ids);
  EXPECT_EQ(hst_to_bytes(loaded.tree), hst_to_bytes(materialized->tree));
}

TEST(DynamicPersistence, HstFileRoundTripKeepsStableIds) {
  const PointSet initial = anchored_points(10, 3, 53);
  auto dynamic = DynamicEmbedder::create(initial, base_options());
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().to_string();
  ASSERT_TRUE(dynamic->erase(4).ok());
  auto materialized = dynamic->materialize();
  ASSERT_TRUE(materialized.ok());

  const std::string path =
      testing::TempDir() + "/dyn_tree_with_ids.mpte";
  save_hst(materialized->tree, materialized->point_ids, path);
  auto file_bytes = read_file_bytes(path);
  ASSERT_TRUE(file_bytes.ok());
  auto payload = unwrap_checksummed(std::move(*file_bytes),
                                    /*allow_legacy=*/true, path);
  ASSERT_TRUE(payload.ok());
  std::vector<std::uint64_t> ids;
  const Hst tree = hst_from_bytes(*payload, &ids);
  EXPECT_EQ(ids, materialized->point_ids);
  EXPECT_EQ(hst_to_bytes(tree), hst_to_bytes(materialized->tree));
}

}  // namespace
}  // namespace mpte::dyn
