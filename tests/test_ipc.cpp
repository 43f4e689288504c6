// Tests for the multi-process MPC backend (src/ipc/).
//
// The contract under test is byte-identity: Backend::kMultiProcess must
// produce exactly the stores, messages, RoundStats, and golden
// fingerprints of the in-process simulator, because everything after step
// execution runs on the shared coordinator-side code path. Plus the
// failure half: a worker that dies mid-round surfaces as a typed
// WorkerLost with no leaked child process, and a checkpointed run
// recovers from it byte-identically.
#include "ipc/proc_backend.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <utility>

#include "ckpt/manager.hpp"
#include "ckpt/recovery.hpp"
#include "common/checksum.hpp"
#include "core/mpc_embedder.hpp"
#include "geometry/generators.hpp"
#include "ipc/frames.hpp"
#include "mpc/cluster.hpp"
#include "mpc/step.hpp"
#include "obs/metrics.hpp"
#include "tree/hst_io.hpp"

namespace mpte {
namespace {

std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n, std::uint64_t h) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// The execution substrates under test. The proc variant must match
/// in-process byte-for-byte — whatever ring size it runs with, since the
/// ring and its socketpair overflow path only change how frame bytes
/// travel, never what they decode to.
struct BackendVariant {
  const char* name;
  mpc::Backend backend;
};

constexpr BackendVariant kInprocVariant{"inproc", mpc::Backend::kInProcess};
constexpr BackendVariant kPersistentVariant{"proc-persistent-shm",
                                            mpc::Backend::kMultiProcess};

/// Ring and arena sizes small enough that the big resync/result frames
/// overflow the ring onto the socketpair (frame > capacity - marker).
constexpr std::size_t kTinyRingBytes = 1u << 10;
constexpr std::size_t kTinyArenaBytes = 1u << 12;

/// The pinned configuration behind the repo-wide golden fingerprint
/// (test_mpc_channels.cpp GoldenSeed), parameterized by substrate.
mpc::ClusterConfig golden_config(const BackendVariant& variant,
                                 std::size_t threads) {
  mpc::ClusterConfig config;
  config.num_machines = 6;
  config.local_memory_bytes = 1 << 22;
  config.enforce_limits = true;
  config.num_threads = threads;
  config.backend = variant.backend;
  return config;
}

Result<MpcEmbedding> golden_embed(mpc::Cluster& cluster) {
  const PointSet points = generate_uniform_cube(150, 8, 30.0, 7);
  MpcEmbedOptions options;
  options.seed = 99;
  options.num_buckets = 2;
  options.delta = 1024;
  options.use_fjlt = false;
  return mpc_embed(cluster, points, options);
}

std::uint64_t embedding_hash(const MpcEmbedding& result) {
  const auto tree_bytes = hst_to_bytes(result.tree);
  std::uint64_t h =
      fnv1a(tree_bytes.data(), tree_bytes.size(), 1469598103934665603ull);
  const auto& raw = result.embedded_points.raw();
  return fnv1a(reinterpret_cast<const std::uint8_t*>(raw.data()),
               raw.size() * sizeof(double), h);
}

/// True once every child of this process has been reaped — the "no
/// zombies" assertion.
bool no_children_remain() {
  const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
  return r == -1 && errno == ECHILD;
}

// A small 3-round pipeline exercising every delta kind (fresh keys,
// overwrites, erases, inbox-dependent writes), a parameterized ring
// step, and the failure steps of the WorkerLoss tests — registered once
// per process, so the workers resolve them by name from the registry
// they inherited at fork.
mpc::Step make_test_seed(mpc::StepParams /*params*/) {
  return [](mpc::MachineContext& ctx) {
    const std::size_t m = ctx.num_machines();
    ctx.store().set_vector<std::uint32_t>("val", {ctx.id(), 100});
    Serializer s;
    s.write(static_cast<std::uint64_t>(ctx.id() * 7));
    ctx.send((ctx.id() + 1) % m, std::move(s), "test/ring");
  };
}

mpc::Step make_test_mix(mpc::StepParams /*params*/) {
  return [](mpc::MachineContext& ctx) {
    // Throw (not gtest-assert): under the proc backend this body runs in
    // a worker process, where only exceptions surface.
    if (ctx.inbox().size() != 1) throw MpteError("expected 1 message");
    ctx.store().set_blob("got", ctx.inbox()[0].payload);
    if (ctx.id() % 2 == 0) {
      ctx.store().erase("val");
    } else {
      ctx.store().set_vector<std::uint32_t>("val", {ctx.id(), 200});
    }
    ctx.store().set_value<std::uint64_t>("extra", ctx.id() + 40);
  };
}

mpc::Step make_test_cleanup(mpc::StepParams /*params*/) {
  return [](mpc::MachineContext& ctx) { ctx.store().erase("extra"); };
}

mpc::Step make_test_ring(mpc::StepParams params) {
  Deserializer d(params);
  const auto r = d.read<std::uint64_t>();
  return [r](mpc::MachineContext& ctx) {
    const std::size_t m = ctx.num_machines();
    std::uint64_t acc = r;
    for (const auto& msg : ctx.inbox()) acc += msg.payload.size();
    ctx.store().set_value<std::uint64_t>("acc/" + std::to_string(r),
                                         acc + ctx.id());
    Serializer s;
    for (std::uint64_t i = 0; i <= r; ++i) {
      s.write(static_cast<std::uint64_t>(ctx.id() + i));
    }
    ctx.send((ctx.id() + 1) % m, std::move(s), "test/ring");
  };
}

mpc::Step make_test_tick(mpc::StepParams /*params*/) {
  return [](mpc::MachineContext& ctx) {
    ctx.store().set_value<std::uint64_t>("tick", ctx.id());
  };
}

/// Rank 1 outsleeps any test deadline; the others return at once.
mpc::Step make_test_stall(mpc::StepParams /*params*/) {
  return [](mpc::MachineContext& ctx) {
    if (ctx.id() == 1) std::this_thread::sleep_for(std::chrono::seconds(10));
  };
}

/// Every rank >= the u64 parameter throws, naming itself.
mpc::Step make_test_throw_from_rank(mpc::StepParams params) {
  Deserializer d(params);
  const auto first = d.read<std::uint64_t>();
  return [first](mpc::MachineContext& ctx) {
    if (ctx.id() >= first) {
      throw MpteError("boom from rank " + std::to_string(ctx.id()));
    }
  };
}

const mpc::RegisterStep kRegTestSeed{"test/seed", make_test_seed};
const mpc::RegisterStep kRegTestMix{"test/mix", make_test_mix};
const mpc::RegisterStep kRegTestCleanup{"test/cleanup", make_test_cleanup};
const mpc::RegisterStep kRegTestRing{"test/ring", make_test_ring};
const mpc::RegisterStep kRegTestTick{"test/tick", make_test_tick};
const mpc::RegisterStep kRegTestStall{"test/stall", make_test_stall};
const mpc::RegisterStep kRegTestThrowFromRank{"test/throw-from-rank",
                                              make_test_throw_from_rank};

void run_named_delta_pipeline(mpc::Cluster& cluster) {
  cluster.run_round(mpc::StepSpec("test/seed"), "seed");
  cluster.run_round(mpc::StepSpec("test/mix"), "mix");
  cluster.run_round(mpc::StepSpec("test/cleanup"), "cleanup");
}

mpc::StepSpec ring_spec(std::uint64_t r) {
  Serializer s;
  s.write(r);
  return mpc::StepSpec("test/ring", std::move(s));
}

void run_ring_pipeline(mpc::Cluster& cluster, std::size_t rounds) {
  for (std::uint64_t r = 0; r < rounds; ++r) {
    cluster.run_round(ring_spec(r), "ring/" + std::to_string(r));
  }
}

void expect_records_equal(const mpc::RoundStats& a, const mpc::RoundStats& b) {
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t r = 0; r < a.records().size(); ++r) {
    const auto& ra = a.records()[r];
    const auto& rb = b.records()[r];
    EXPECT_EQ(ra.label, rb.label) << "round " << r;
    EXPECT_EQ(ra.max_sent_bytes, rb.max_sent_bytes) << "round " << r;
    EXPECT_EQ(ra.max_recv_bytes, rb.max_recv_bytes) << "round " << r;
    EXPECT_EQ(ra.total_message_bytes, rb.total_message_bytes)
        << "round " << r;
    EXPECT_EQ(ra.max_resident_bytes, rb.max_resident_bytes) << "round " << r;
    EXPECT_EQ(ra.total_resident_bytes, rb.total_resident_bytes)
        << "round " << r;
    EXPECT_EQ(ra.violations, rb.violations) << "round " << r;
    EXPECT_EQ(ra.channel_bytes, rb.channel_bytes) << "round " << r;
  }
}

void expect_stores_equal(const mpc::Cluster& a, const mpc::Cluster& b) {
  ASSERT_EQ(a.num_machines(), b.num_machines());
  for (mpc::MachineId id = 0; id < a.num_machines(); ++id) {
    const auto ea = a.store(id).entries();
    const auto eb = b.store(id).entries();
    ASSERT_EQ(ea.size(), eb.size()) << "machine " << id;
    for (std::size_t k = 0; k < ea.size(); ++k) {
      EXPECT_EQ(ea[k].first, eb[k].first) << "machine " << id;
      EXPECT_TRUE(ea[k].second == eb[k].second)
          << "machine " << id << " key " << ea[k].first;
    }
  }
}

TEST(BackendEquivalence, GoldenFingerprintAcrossBackendsAndThreads) {
  constexpr std::uint64_t kExpectedHash = 8852295253212578257ull;
  for (const BackendVariant& variant :
       {kInprocVariant, kPersistentVariant}) {
    for (const std::size_t threads : {1u, 8u}) {
      mpc::Cluster cluster(golden_config(variant, threads));
      const auto result = golden_embed(cluster);
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      EXPECT_EQ(embedding_hash(*result), kExpectedHash)
          << "backend=" << variant.name << " threads=" << threads;
    }
  }
  EXPECT_TRUE(no_children_remain());
}

TEST(BackendEquivalence, RoundStatsAndChannelBytesIdentical) {
  mpc::Cluster inproc(golden_config(kInprocVariant, 1));
  ASSERT_TRUE(golden_embed(inproc).ok());
  for (const BackendVariant& variant :
       {kInprocVariant, kPersistentVariant}) {
    for (const std::size_t threads : {1u, 8u}) {
      SCOPED_TRACE(std::string("backend=") + variant.name +
                   " threads=" + std::to_string(threads));
      mpc::Cluster cluster(golden_config(variant, threads));
      ASSERT_TRUE(golden_embed(cluster).ok());
      expect_records_equal(inproc.stats(), cluster.stats());
      EXPECT_EQ(inproc.stats().channel_totals(),
                cluster.stats().channel_totals());
      expect_stores_equal(inproc, cluster);
      if (variant.backend == mpc::Backend::kInProcess) continue;

      // One pool spawn for the whole embedding, every round a kStep.
      const auto* backend =
          dynamic_cast<const ipc::ProcBackend*>(cluster.round_executor());
      ASSERT_NE(backend, nullptr);
      EXPECT_EQ(backend->stats().workers_forked, cluster.num_machines());
      EXPECT_GT(backend->stats().step_frames_sent, 0u);
    }
  }
  EXPECT_TRUE(no_children_remain());
}

TEST(BackendEquivalence, SocketpairAndShmTransportsIdentical) {
  constexpr std::uint64_t kExpectedHash = 8852295253212578257ull;
  // Frames reach a worker on one of two carriers: the shm ring, or the
  // socketpair when a frame overflows the ring. The tiny ring sends the
  // big frames over the socketpair; the default ring, where every frame
  // fits, sends none. Neither carrier may change a byte of the result.
  for (const std::size_t threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    mpc::ClusterConfig tiny_config =
        golden_config(kPersistentVariant, threads);
    tiny_config.ipc.shm_ring_bytes = kTinyRingBytes;
    tiny_config.ipc.shm_arena_bytes = kTinyArenaBytes;
    mpc::Cluster fits(golden_config(kPersistentVariant, threads));
    mpc::Cluster tiny(tiny_config);
    const auto fits_result = golden_embed(fits);
    const auto tiny_result = golden_embed(tiny);
    ASSERT_TRUE(fits_result.ok()) << fits_result.status().to_string();
    ASSERT_TRUE(tiny_result.ok()) << tiny_result.status().to_string();
    EXPECT_EQ(embedding_hash(*fits_result), kExpectedHash);
    EXPECT_EQ(embedding_hash(*tiny_result), kExpectedHash);
    expect_records_equal(fits.stats(), tiny.stats());
    EXPECT_EQ(fits.stats().channel_totals(), tiny.stats().channel_totals());
    expect_stores_equal(fits, tiny);

    // Both runs moved frame bytes through shared memory; only the tiny
    // ring needed the overflow path.
    const auto* fits_backend =
        dynamic_cast<const ipc::ProcBackend*>(fits.round_executor());
    const auto* tiny_backend =
        dynamic_cast<const ipc::ProcBackend*>(tiny.round_executor());
    ASSERT_NE(fits_backend, nullptr);
    ASSERT_NE(tiny_backend, nullptr);
    EXPECT_GT(fits_backend->stats().shm_bytes, 0u);
    EXPECT_GT(tiny_backend->stats().shm_bytes, 0u);
    EXPECT_EQ(fits_backend->stats().fallback_frames, 0u);
    EXPECT_GT(tiny_backend->stats().fallback_frames, 0u);
  }  // ~Cluster joins each persistent pool before the zombie check
  EXPECT_TRUE(no_children_remain());
}

TEST(BackendEquivalence, TinyRingFallsBackWithoutChangingResults) {
  constexpr std::uint64_t kExpectedHash = 8852295253212578257ull;
  // A ring far smaller than the big resync/result frames forces the
  // socketpair fallback path (frame > capacity - marker), which must be
  // counted — never silently truncated — and must not change a byte of
  // the result.
  mpc::ClusterConfig config = golden_config(kPersistentVariant, 8);
  config.ipc.shm_ring_bytes = kTinyRingBytes;
  config.ipc.shm_arena_bytes = kTinyArenaBytes;
  {
    mpc::Cluster cluster(config);
    const auto result = golden_embed(cluster);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(embedding_hash(*result), kExpectedHash);
    const auto* backend =
        dynamic_cast<const ipc::ProcBackend*>(cluster.round_executor());
    ASSERT_NE(backend, nullptr);
    EXPECT_GT(backend->stats().fallback_frames, 0u);
  }  // ~Cluster joins the persistent pool before the zombie check
  EXPECT_TRUE(no_children_remain());
}

TEST(BackendEquivalence, StoreDeltasCoverEraseOverwriteAndFreshKeys) {
  mpc::ClusterConfig config;
  config.num_machines = 5;
  config.local_memory_bytes = 1 << 20;
  mpc::Cluster inproc(config);
  run_named_delta_pipeline(inproc);
  config.backend = mpc::Backend::kMultiProcess;
  // The default ring and the tiny one carry the same deltas.
  const mpc::IpcOptions defaults;
  for (const auto& [ring_bytes, arena_bytes] :
       {std::pair{defaults.shm_ring_bytes, defaults.shm_arena_bytes},
        std::pair{kTinyRingBytes, kTinyArenaBytes}}) {
    config.ipc.shm_ring_bytes = ring_bytes;
    config.ipc.shm_arena_bytes = arena_bytes;
    mpc::Cluster proc(config);
    run_named_delta_pipeline(proc);
    expect_stores_equal(inproc, proc);
    expect_records_equal(inproc.stats(), proc.stats());
    const auto* backend =
        dynamic_cast<const ipc::ProcBackend*>(proc.round_executor());
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->stats().rounds, 3u);
  }
  EXPECT_TRUE(no_children_remain());
}

TEST(PersistentWorkers, NamedPipelineRunsWithoutForkFallback) {
  mpc::ClusterConfig config;
  config.num_machines = 5;
  config.local_memory_bytes = 1 << 20;
  mpc::Cluster inproc(config);
  config.backend = mpc::Backend::kMultiProcess;
  {
    mpc::Cluster proc(config);
    run_named_delta_pipeline(inproc);
    run_named_delta_pipeline(proc);
    expect_stores_equal(inproc, proc);
    expect_records_equal(inproc.stats(), proc.stats());

    const auto* backend =
        dynamic_cast<const ipc::ProcBackend*>(proc.round_executor());
    ASSERT_NE(backend, nullptr);
    const ipc::IpcStats& stats = backend->stats();
    EXPECT_EQ(stats.rounds, 3u);
    // One pool spawn, not one fork per rank per round.
    EXPECT_EQ(stats.workers_forked, 5u);
    EXPECT_EQ(stats.workers_respawned, 0u);
    EXPECT_EQ(stats.step_frames_sent, 15u);
    EXPECT_GT(stats.step_wire_bytes, 0u);
    // Full resync once per worker at spawn, then dirty-key deltas only.
    EXPECT_EQ(stats.store_resyncs, 5u);
    ASSERT_EQ(stats.step_rounds.size(), 3u);
    EXPECT_EQ(stats.step_rounds.at("test/seed"), 1u);
    EXPECT_EQ(stats.step_rounds.at("test/mix"), 1u);
    EXPECT_EQ(stats.step_rounds.at("test/cleanup"), 1u);
  }
  // ~Cluster shut the pool down (kShutdown + reap): no zombies.
  EXPECT_TRUE(no_children_remain());
}

TEST(PersistentWorkers, KillMidRunRespawnsPoolAndResyncsStores) {
  mpc::ClusterConfig config;
  config.num_machines = 4;
  config.local_memory_bytes = 1 << 20;
  config.backend = mpc::Backend::kMultiProcess;
  config.ipc.kill_at_round = 1;
  config.ipc.kill_rank = 2;
  {
    mpc::Cluster cluster(config);
    cluster.run_round(ring_spec(0), "ring/0");
    try {
      cluster.run_round(ring_spec(1), "ring/1");
      FAIL() << "expected WorkerLost";
    } catch (const ipc::WorkerLost& lost) {
      EXPECT_EQ(lost.rank(), 2u);
      EXPECT_EQ(lost.round(), 1u);
      EXPECT_EQ(lost.cause(), ipc::WorkerLost::Cause::kDied);
    }
    // The failed round mutated nothing: retry it and run to completion.
    // The backend respawns the whole pool and re-seeds every worker's
    // store from the coordinator's authoritative copy.
    EXPECT_EQ(cluster.stats().rounds(), 1u);
    for (std::uint64_t r = 1; r < 5; ++r) {
      cluster.run_round(ring_spec(r), "ring/" + std::to_string(r));
    }

    const auto* backend =
        dynamic_cast<const ipc::ProcBackend*>(cluster.round_executor());
    ASSERT_NE(backend, nullptr);
    const ipc::IpcStats& stats = backend->stats();
    EXPECT_EQ(stats.workers_lost, 1u);
    EXPECT_EQ(stats.workers_respawned, 4u);
    // Initial spawn + post-kill respawn: two full resyncs per rank.
    EXPECT_EQ(stats.store_resyncs, 8u);

    // Byte-identity with an uninterrupted in-process run.
    mpc::ClusterConfig reference_config;
    reference_config.num_machines = 4;
    reference_config.local_memory_bytes = 1 << 20;
    mpc::Cluster reference(reference_config);
    run_ring_pipeline(reference, 5);
    expect_stores_equal(reference, cluster);
    expect_records_equal(reference.stats(), cluster.stats());
    EXPECT_EQ(reference.stats().channel_totals(),
              cluster.stats().channel_totals());
  }
  EXPECT_TRUE(no_children_remain());
}

TEST(PersistentWorkers, CheckpointRecoveryIsByteIdentical) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mpte_ipc_persistent_recovery_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  mpc::ClusterConfig config;
  config.num_machines = 4;
  config.local_memory_bytes = 1 << 20;
  config.backend = mpc::Backend::kMultiProcess;
  config.checkpoint.mode = mpc::CheckpointPolicy::Mode::kEveryK;
  config.checkpoint.directory = dir;
  config.checkpoint.every_k = 1;
  config.ipc.kill_at_round = 2;
  config.ipc.kill_rank = 1;
  {
    mpc::Cluster cluster(config);
    ckpt::Coordinator coordinator = ckpt::Coordinator::for_cluster(cluster);
    cluster.set_hooks(&coordinator);

    const Status done = ckpt::run_with_recovery(cluster, coordinator, [&] {
      run_ring_pipeline(cluster, 5);
      return Status::Ok();
    });
    ASSERT_TRUE(done.ok()) << done.to_string();
    EXPECT_GE(cluster.stats().resilience().recoveries, 1u);

    const auto* backend =
        dynamic_cast<const ipc::ProcBackend*>(cluster.round_executor());
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->stats().workers_lost, 1u);
    EXPECT_GE(backend->stats().workers_respawned, 4u);
    EXPECT_GE(backend->stats().store_resyncs, 8u);

    mpc::ClusterConfig reference_config;
    reference_config.num_machines = 4;
    reference_config.local_memory_bytes = 1 << 20;
    mpc::Cluster reference(reference_config);
    run_ring_pipeline(reference, 5);
    expect_stores_equal(reference, cluster);
    EXPECT_EQ(reference.stats().channel_totals(),
              cluster.stats().channel_totals());
  }
  EXPECT_TRUE(no_children_remain());
  std::filesystem::remove_all(dir);
}

TEST(PersistentWorkers, GoldenEmbedRecoversFromKilledWorker) {
  constexpr std::uint64_t kExpectedHash = 8852295253212578257ull;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mpte_ipc_persistent_golden_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  mpc::ClusterConfig config = golden_config(kPersistentVariant, 8);
  config.checkpoint.mode = mpc::CheckpointPolicy::Mode::kEveryK;
  config.checkpoint.directory = dir;
  config.checkpoint.every_k = 2;
  config.ipc.kill_at_round = 5;
  config.ipc.kill_rank = 3;
  {
    mpc::Cluster cluster(config);
    ckpt::Coordinator coordinator = ckpt::Coordinator::for_cluster(cluster);
    cluster.set_hooks(&coordinator);

    std::optional<MpcEmbedding> result;
    const Status done = ckpt::run_with_recovery(cluster, coordinator, [&] {
      auto embedded = golden_embed(cluster);
      if (!embedded.ok()) return embedded.status();
      result = std::move(*embedded);
      return Status::Ok();
    });
    ASSERT_TRUE(done.ok()) << done.to_string();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(embedding_hash(*result), kExpectedHash);
    EXPECT_GE(cluster.stats().resilience().recoveries, 1u);
  }
  EXPECT_TRUE(no_children_remain());
  std::filesystem::remove_all(dir);
}

TEST(Frames, StepAndShutdownRoundTrip) {
  ipc::StepFrame frame;
  frame.rank = 2;
  frame.round = 41;
  frame.step_name = "test/ring";
  frame.step_params = mpc::Buffer({7, 0, 0, 0, 0, 0, 0, 0});
  frame.reset_store = true;
  frame.inject_kill = false;
  frame.store_patch.push_back({"alpha", true, mpc::Buffer({1, 2, 3})});
  frame.store_patch.push_back({"beta", false, mpc::Buffer()});
  mpc::Message message;
  message.from = 1;
  message.payload = mpc::Buffer({9, 8, 7});
  frame.inbox.push_back(message);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const mpc::Buffer encoded = ipc::encode_step(frame);
  ASSERT_TRUE(ipc::write_frame(sv[0], encoded).ok());
  auto decoded = ipc::read_frame(sv[1], 1000);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->kind, ipc::FrameKind::kStep);
  EXPECT_EQ(decoded->step.rank, 2u);
  EXPECT_EQ(decoded->step.round, 41u);
  EXPECT_EQ(decoded->step.step_name, "test/ring");
  EXPECT_TRUE(decoded->step.step_params == frame.step_params);
  EXPECT_TRUE(decoded->step.reset_store);
  EXPECT_FALSE(decoded->step.inject_kill);
  ASSERT_EQ(decoded->step.store_patch.size(), 2u);
  EXPECT_EQ(decoded->step.store_patch[0].key, "alpha");
  EXPECT_TRUE(decoded->step.store_patch[0].present);
  EXPECT_TRUE(decoded->step.store_patch[0].blob == frame.store_patch[0].blob);
  EXPECT_FALSE(decoded->step.store_patch[1].present);
  ASSERT_EQ(decoded->step.inbox.size(), 1u);
  EXPECT_EQ(decoded->step.inbox[0].from, 1u);
  EXPECT_TRUE(decoded->step.inbox[0].payload == message.payload);

  ASSERT_TRUE(ipc::write_frame(sv[0], ipc::encode_shutdown()).ok());
  const auto shutdown = ipc::read_frame(sv[1], 1000);
  ASSERT_TRUE(shutdown.ok()) << shutdown.status().to_string();
  EXPECT_EQ(shutdown->kind, ipc::FrameKind::kShutdown);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(Frames, ResultRoundTripAndCorruptionDetection) {
  ipc::ResultFrame frame;
  frame.rank = 3;
  frame.round = 17;
  frame.store_delta.push_back(
      {"alpha", true, mpc::Buffer({1, 2, 3, 4, 5})});
  frame.store_delta.push_back({"beta", false, mpc::Buffer()});
  frame.fragments.resize(2);
  frame.fragments[1].push_back(mpc::Buffer({9, 9}));
  frame.channel_bytes["test/chan"] = 2;

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const mpc::Buffer encoded = ipc::encode_result(frame);
  ASSERT_TRUE(ipc::write_frame(sv[0], encoded).ok());
  auto decoded = ipc::read_frame(sv[1], 1000);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->kind, ipc::FrameKind::kResult);
  EXPECT_EQ(decoded->wire_bytes, encoded.size());
  EXPECT_EQ(decoded->result.rank, 3u);
  EXPECT_EQ(decoded->result.round, 17u);
  ASSERT_EQ(decoded->result.store_delta.size(), 2u);
  EXPECT_EQ(decoded->result.store_delta[0].key, "alpha");
  EXPECT_TRUE(decoded->result.store_delta[0].present);
  EXPECT_TRUE(decoded->result.store_delta[0].blob == frame.store_delta[0].blob);
  EXPECT_FALSE(decoded->result.store_delta[1].present);
  ASSERT_EQ(decoded->result.fragments.size(), 2u);
  EXPECT_TRUE(decoded->result.fragments[1][0] == frame.fragments[1][0]);
  EXPECT_EQ(decoded->result.channel_bytes, frame.channel_bytes);

  // Flip one payload byte: the envelope digest must reject the frame.
  std::vector<std::uint8_t> corrupt(encoded.data(),
                                    encoded.data() + encoded.size());
  corrupt[corrupt.size() / 2] ^= 0x40;
  ASSERT_TRUE(mpc::Buffer(corrupt).write_fd(sv[0]).ok());
  const auto rejected = ipc::read_frame(sv[1], 1000);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(Frames, RetiredKindTwoIsRejectedCleanly) {
  // Kind 2 was the fork-per-round release frame; nothing encodes it now,
  // and a peer that still sends it gets a typed decode error.
  Serializer payload;
  payload.write(static_cast<std::uint32_t>(2));
  payload.write(static_cast<std::uint64_t>(41));
  const std::vector<std::uint8_t> envelope =
      wrap_checksummed(payload.bytes());
  const auto decoded = ipc::decode_envelope(envelope);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("unknown kind 2"),
            std::string::npos)
      << decoded.status().to_string();
}

TEST(WorkerLoss, KillMidRoundThrowsTypedErrorAndLeavesNoZombies) {
  mpc::ClusterConfig config;
  config.num_machines = 4;
  config.local_memory_bytes = 1 << 20;
  config.backend = mpc::Backend::kMultiProcess;
  config.ipc.kill_at_round = 1;
  config.ipc.kill_rank = 2;
  mpc::Cluster cluster(config);

  const mpc::StepSpec tick("test/tick");
  cluster.run_round(tick, "warmup");  // round 0: all workers survive
  try {
    cluster.run_round(tick, "doomed");
    FAIL() << "expected WorkerLost";
  } catch (const ipc::WorkerLost& lost) {
    EXPECT_EQ(lost.rank(), 2u);
    EXPECT_EQ(lost.round(), 1u);
    EXPECT_EQ(lost.cause(), ipc::WorkerLost::Cause::kDied);
  }
  // Clean coordinator shutdown: the whole pool was killed and reaped.
  EXPECT_TRUE(no_children_remain());
  // The failed round mutated nothing and recorded nothing.
  EXPECT_EQ(cluster.stats().rounds(), 1u);
}

TEST(WorkerLoss, DeadlineMissSurfacesAsWorkerLost) {
  mpc::ClusterConfig config;
  config.num_machines = 2;
  config.local_memory_bytes = 1 << 20;
  config.backend = mpc::Backend::kMultiProcess;
  config.ipc.round_deadline_ms = 150;
  mpc::Cluster cluster(config);
  try {
    cluster.run_round(mpc::StepSpec("test/stall"), "stall");
    FAIL() << "expected WorkerLost";
  } catch (const ipc::WorkerLost& lost) {
    EXPECT_EQ(lost.rank(), 1u);
    EXPECT_EQ(lost.round(), 0u);
    EXPECT_EQ(lost.cause(), ipc::WorkerLost::Cause::kDeadline);
  }
  // The stalled worker was killed with the pool, not left sleeping.
  EXPECT_TRUE(no_children_remain());
  EXPECT_EQ(cluster.stats().rounds(), 0u);
}

mpc::StepSpec throw_from_rank_spec(std::uint64_t first) {
  Serializer s;
  s.write(first);
  return mpc::StepSpec("test/throw-from-rank", std::move(s));
}

TEST(WorkerLoss, StepExceptionPropagatesLikeInProcess) {
  mpc::ClusterConfig config;
  config.num_machines = 3;
  config.local_memory_bytes = 1 << 20;
  config.backend = mpc::Backend::kMultiProcess;
  mpc::Cluster cluster(config);
  try {
    cluster.run_round(throw_from_rank_spec(1), "throwing");
    FAIL() << "expected MpteError";
  } catch (const mpc::RankCrashed& crashed) {
    FAIL() << "a step exception is not a lost worker: " << crashed.what();
  } catch (const MpteError& e) {
    // Lowest failing rank wins, matching serial in-process order.
    EXPECT_STREQ(e.what(), "boom from rank 1");
  }
  // kError tears the pool down: no worker outlives the failed round.
  EXPECT_TRUE(no_children_remain());
  EXPECT_EQ(cluster.stats().rounds(), 0u);
}

TEST(PersistentWorkers, UnregisteredStepFailsLikeInProcessAndRespawns) {
  constexpr std::size_t kRanks = 4;
  const mpc::StepSpec unknown("test/not-registered");
  ASSERT_FALSE(mpc::StepRegistry::global().contains(unknown.name));

  mpc::ClusterConfig config;
  config.num_machines = kRanks;
  config.local_memory_bytes = 1 << 20;
  mpc::Cluster inproc(config);
  std::string inproc_error;
  inproc.run_round(mpc::StepSpec("test/seed"), "seed");
  try {
    inproc.run_round(unknown);
    FAIL() << "expected MpteError in-process";
  } catch (const MpteError& e) {
    inproc_error = e.what();
  }
  EXPECT_EQ(inproc.stats().rounds(), 1u);

  config.backend = mpc::Backend::kMultiProcess;
  {
    mpc::Cluster proc(config);
    proc.run_round(mpc::StepSpec("test/seed"), "seed");
    try {
      proc.run_round(unknown);
      FAIL() << "expected MpteError from the workers";
    } catch (const mpc::RankCrashed& crashed) {
      FAIL() << "an unknown step is not a lost worker: " << crashed.what();
    } catch (const MpteError& e) {
      EXPECT_EQ(std::string(e.what()), inproc_error);
    }
    // The failure tore the pool down and recorded nothing.
    EXPECT_TRUE(no_children_remain());
    EXPECT_EQ(proc.stats().rounds(), 1u);

    // The next named round respawns the pool, resyncs every store, and
    // finishes exactly like the in-process run.
    for (mpc::Cluster* cluster : {&inproc, &proc}) {
      cluster->run_round(mpc::StepSpec("test/mix"), "mix");
      cluster->run_round(mpc::StepSpec("test/cleanup"), "cleanup");
    }
    const auto* backend =
        dynamic_cast<const ipc::ProcBackend*>(proc.round_executor());
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->stats().workers_respawned, kRanks);
    EXPECT_EQ(backend->stats().store_resyncs, 2 * kRanks);
    EXPECT_EQ(backend->stats().workers_lost, 0u);
    expect_stores_equal(inproc, proc);
    expect_records_equal(inproc.stats(), proc.stats());
  }
  EXPECT_TRUE(no_children_remain());
}

TEST(Recovery, WorkerLostRestoresFromLatestSnapshot) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mpte_ipc_recovery_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  mpc::ClusterConfig config;
  config.num_machines = 4;
  config.local_memory_bytes = 1 << 20;
  config.backend = mpc::Backend::kMultiProcess;
  config.checkpoint.mode = mpc::CheckpointPolicy::Mode::kEveryK;
  config.checkpoint.directory = dir;
  config.checkpoint.every_k = 1;
  config.ipc.kill_at_round = 2;
  config.ipc.kill_rank = 1;
  {
    mpc::Cluster cluster(config);
    ckpt::Coordinator coordinator = ckpt::Coordinator::for_cluster(cluster);
    cluster.set_hooks(&coordinator);

    const Status done = ckpt::run_with_recovery(cluster, coordinator, [&] {
      run_ring_pipeline(cluster, 5);
      return Status::Ok();
    });
    ASSERT_TRUE(done.ok()) << done.to_string();
    EXPECT_GE(cluster.stats().resilience().recoveries, 1u);
    EXPECT_GE(cluster.stats().resilience().rounds_replayed, 1u);

    // The recovered run must match an uninterrupted in-process reference.
    mpc::ClusterConfig reference_config;
    reference_config.num_machines = 4;
    reference_config.local_memory_bytes = 1 << 20;
    mpc::Cluster reference(reference_config);
    run_ring_pipeline(reference, 5);
    expect_stores_equal(reference, cluster);
    EXPECT_EQ(reference.stats().channel_totals(),
              cluster.stats().channel_totals());
  }
  // ~Cluster shut the respawned pool down: no zombies.
  EXPECT_TRUE(no_children_remain());

  std::filesystem::remove_all(dir);
}

TEST(Metrics, TransportCountersExportUnderIpcNames) {
  mpc::ClusterConfig config;
  config.num_machines = 3;
  config.local_memory_bytes = 1 << 20;
  config.backend = mpc::Backend::kMultiProcess;
  mpc::Cluster cluster(config);
  run_named_delta_pipeline(cluster);

  const auto* backend =
      dynamic_cast<const ipc::ProcBackend*>(cluster.round_executor());
  ASSERT_NE(backend, nullptr);
  const ipc::IpcStats& stats = backend->stats();
  EXPECT_EQ(stats.rounds, 3u);
  // One pool of M workers serves every round: M kStep frames out and M
  // result frames back per round, one full store resync per worker.
  EXPECT_EQ(stats.workers_forked, 3u);
  EXPECT_EQ(stats.step_frames_sent, 9u);
  EXPECT_EQ(stats.frames_received, 9u);
  EXPECT_EQ(stats.store_resyncs, 3u);
  EXPECT_EQ(stats.workers_respawned, 0u);
  EXPECT_EQ(stats.workers_lost, 0u);
  EXPECT_GT(stats.step_wire_bytes, 0u);
  EXPECT_GT(stats.result_wire_bytes, 0u);
  EXPECT_GT(stats.store_delta_bytes, 0u);
  EXPECT_GT(stats.fragment_bytes, 0u);

  obs::Registry registry;
  backend->export_metrics(registry);
  EXPECT_EQ(registry.counter_value("mpte_ipc_rounds_total"), stats.rounds);
  EXPECT_EQ(registry.counter_value("mpte_ipc_workers_forked_total"),
            stats.workers_forked);
  EXPECT_EQ(registry.counter_value("mpte_ipc_step_frames_sent_total"),
            stats.step_frames_sent);
  EXPECT_EQ(registry.counter_value("mpte_ipc_store_resyncs_total"),
            stats.store_resyncs);
  EXPECT_EQ(registry.counter_value("mpte_ipc_result_wire_bytes_total"),
            stats.result_wire_bytes);
  const std::string prom = registry.prometheus_text();
  EXPECT_NE(prom.find("mpte_ipc_barrier_seconds"), std::string::npos);
}

TEST(Metrics, StepRoundsExportWithStepNameLabels) {
  mpc::ClusterConfig config;
  config.num_machines = 3;
  config.local_memory_bytes = 1 << 20;
  config.backend = mpc::Backend::kMultiProcess;
  {
    mpc::Cluster cluster(config);
    run_named_delta_pipeline(cluster);
    const auto* backend =
        dynamic_cast<const ipc::ProcBackend*>(cluster.round_executor());
    ASSERT_NE(backend, nullptr);
    obs::Registry registry;
    backend->export_metrics(registry);
    const std::string prom = registry.prometheus_text();
    EXPECT_NE(prom.find("mpte_ipc_step_frames_sent_total"),
              std::string::npos);
    EXPECT_NE(prom.find("mpte_ipc_workers_respawned_total"),
              std::string::npos);
    EXPECT_NE(prom.find("mpte_ipc_store_resyncs_total"), std::string::npos);
    EXPECT_NE(
        prom.find("mpte_ipc_step_rounds_total{step=\"test/seed\"} 1"),
        std::string::npos)
        << prom;
  }
  EXPECT_TRUE(no_children_remain());
}

}  // namespace
}  // namespace mpte
