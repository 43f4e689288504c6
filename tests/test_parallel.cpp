#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "closure_step.hpp"
#include "common/status.hpp"
#include "core/mpc_embedder.hpp"
#include "geometry/generators.hpp"
#include "tree/hst_io.hpp"

namespace mpte {
namespace {

/// Restores the default thread count on scope exit so tests that override
/// it cannot leak into each other.
struct ThreadsGuard {
  ~ThreadsGuard() { par::set_default_threads(0); }
};

TEST(ParallelFor, EmptyRangeNeverCallsBody) {
  std::atomic<int> calls{0};
  par::parallel_for(
      5, 5, [&](std::size_t, std::size_t) { ++calls; }, 8);
  par::parallel_for(
      7, 3, [&](std::size_t, std::size_t) { ++calls; }, 8);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, SingleItemRunsInline) {
  std::vector<int> hits(1, 0);
  par::parallel_for(
      0, 1,
      [&](std::size_t begin, std::size_t end) {
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 1u);
        ++hits[0];
      },
      8);
  EXPECT_EQ(hits[0], 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 10007;  // prime: exercises uneven chunk splits
  for (const std::size_t threads : {1u, 2u, 3u, 8u, 16u}) {
    std::vector<int> visits(n, 0);
    par::parallel_for(
        0, n,
        [&](std::size_t begin, std::size_t end) {
          ASSERT_LE(begin, end);
          for (std::size_t i = begin; i < end; ++i) ++visits[i];
        },
        threads);
    EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0),
              static_cast<int>(n))
        << "threads=" << threads;
    EXPECT_EQ(*std::min_element(visits.begin(), visits.end()), 1)
        << "threads=" << threads;
  }
}

TEST(ParallelFor, OffsetRangeSeesCorrectBounds) {
  std::vector<int> visits(100, 0);
  par::parallel_for(
      40, 60,
      [&](std::size_t begin, std::size_t end) {
        ASSERT_GE(begin, 40u);
        ASSERT_LE(end, 60u);
        for (std::size_t i = begin; i < end; ++i) ++visits[i];
      },
      4);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(visits[i], (i >= 40 && i < 60) ? 1 : 0) << "i=" << i;
  }
}

TEST(ParallelForChunked, ChunkRangesPartitionTheRange) {
  const std::size_t n = 97;
  const std::size_t chunks = 8;
  std::vector<std::pair<std::size_t, std::size_t>> ranges(chunks);
  par::parallel_for_chunked(
      0, n, chunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        ranges[chunk] = {begin, end};
      },
      4);
  std::size_t expect_begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    EXPECT_EQ(ranges[c].first, expect_begin) << "chunk " << c;
    EXPECT_LT(ranges[c].first, ranges[c].second);
    expect_begin = ranges[c].second;
  }
  EXPECT_EQ(expect_begin, n);
}

TEST(ParallelForChunked, ChunkCountCappedAtRangeLength) {
  std::vector<int> chunk_seen;
  par::parallel_for_chunked(
      0, 3, 64,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        EXPECT_EQ(end, begin + 1);
        chunk_seen.push_back(static_cast<int>(chunk));
      },
      1);
  EXPECT_EQ(chunk_seen.size(), 3u);
}

TEST(ParallelFor, ExceptionPropagatesSerial) {
  EXPECT_THROW(par::parallel_for(
                   0, 10,
                   [](std::size_t, std::size_t) {
                     throw std::runtime_error("boom");
                   },
                   1),
               std::runtime_error);
}

TEST(ParallelFor, ExceptionPropagatesThreaded) {
  try {
    par::parallel_for(
        0, 1000,
        [](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            if (i == 617) throw std::runtime_error("worker failure 617");
          }
        },
        8);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker failure 617");
  }
  // The pool must remain usable after a failed batch.
  std::atomic<std::size_t> count{0};
  par::parallel_for(
      0, 100, [&](std::size_t b, std::size_t e) { count += e - b; }, 8);
  EXPECT_EQ(count.load(), 100u);
}

TEST(ParallelFor, NestedCallsRunSerially) {
  std::atomic<std::size_t> inner_total{0};
  par::parallel_for(
      0, 16,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          // Inside a worker this must not deadlock; it runs inline.
          par::parallel_for(
              0, 10,
              [&](std::size_t b, std::size_t e) { inner_total += e - b; },
              4);
        }
      },
      4);
  EXPECT_EQ(inner_total.load(), 160u);
}

TEST(ParallelDefaults, SetDefaultThreadsOverrides) {
  ThreadsGuard guard;
  par::set_default_threads(3);
  EXPECT_EQ(par::default_threads(), 3u);
  EXPECT_EQ(par::resolve_threads(0), 3u);
  EXPECT_EQ(par::resolve_threads(5), 5u);
  par::set_default_threads(0);
  EXPECT_GE(par::default_threads(), 1u);
}

TEST(ParallelPool, GrowsOnDemand) {
  auto& pool = par::ThreadPool::global();
  pool.ensure_workers(3);
  EXPECT_GE(pool.workers(), 3u);
  std::atomic<std::size_t> ran{0};
  pool.run(17, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 17u);
}

/// Runs the full MPC pipeline at a given thread count and returns
/// everything observable: serialized tree bytes, per-round byte counters,
/// and the gathered points.
struct PipelineOutput {
  std::vector<std::uint8_t> tree_bytes;
  std::vector<mpc::RoundRecord> rounds;
  std::vector<double> points_raw;
};

PipelineOutput run_pipeline(std::size_t num_threads) {
  mpc::ClusterConfig config;
  config.num_machines = 6;
  config.local_memory_bytes = 1 << 22;
  config.enforce_limits = true;
  config.num_threads = num_threads;
  mpc::Cluster cluster(config);

  const PointSet points = generate_uniform_cube(120, 6, 25.0, 42);
  MpcEmbedOptions options;
  options.seed = 17;
  options.num_buckets = 2;
  options.delta = 512;
  options.use_fjlt = false;
  const auto result = mpc_embed(cluster, points, options);
  EXPECT_TRUE(result.ok()) << result.status().to_string();

  PipelineOutput out;
  out.tree_bytes = hst_to_bytes(result->tree);
  out.rounds = cluster.stats().records();
  out.points_raw = result->embedded_points.raw();
  return out;
}

TEST(ParallelDeterminism, EmbedMpcIdenticalAcrossThreadCounts) {
  const PipelineOutput serial = run_pipeline(1);
  const PipelineOutput threaded = run_pipeline(8);

  // Byte-identical tree.
  EXPECT_EQ(serial.tree_bytes, threaded.tree_bytes);
  // Identical gathered points.
  EXPECT_EQ(serial.points_raw, threaded.points_raw);
  // Identical round structure and byte counters: threading must not change
  // what was sent, received, or resident anywhere.
  ASSERT_EQ(serial.rounds.size(), threaded.rounds.size());
  for (std::size_t r = 0; r < serial.rounds.size(); ++r) {
    const auto& a = serial.rounds[r];
    const auto& b = threaded.rounds[r];
    EXPECT_EQ(a.label, b.label) << "round " << r;
    EXPECT_EQ(a.max_sent_bytes, b.max_sent_bytes) << "round " << r;
    EXPECT_EQ(a.max_recv_bytes, b.max_recv_bytes) << "round " << r;
    EXPECT_EQ(a.total_message_bytes, b.total_message_bytes) << "round " << r;
    EXPECT_EQ(a.max_resident_bytes, b.max_resident_bytes) << "round " << r;
    EXPECT_EQ(a.total_resident_bytes, b.total_resident_bytes)
        << "round " << r;
  }
}

TEST(ParallelDeterminism, StepExceptionPropagatesFromThreadedRound) {
  mpc::ClusterConfig config;
  config.num_machines = 8;
  config.num_threads = 4;
  mpc::Cluster cluster(config);
  EXPECT_THROW(cluster.run_round(closure_step([](mpc::MachineContext& ctx) {
    if (ctx.id() == 3) throw MpteError("machine 3 step failure");
  })),
               MpteError);
}

}  // namespace
}  // namespace mpte
