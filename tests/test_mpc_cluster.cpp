#include "mpc/cluster.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "closure_step.hpp"

namespace mpte::mpc {
namespace {

ClusterConfig small_config(std::size_t machines = 4,
                           std::size_t memory = 4096) {
  return ClusterConfig{machines, memory, true};
}

TEST(LocalStore, BlobAccounting) {
  LocalStore store;
  EXPECT_EQ(store.resident_bytes(), 0u);
  store.set_blob("a", std::vector<std::uint8_t>(100));
  EXPECT_EQ(store.resident_bytes(), 100u);
  store.set_blob("a", std::vector<std::uint8_t>(40));  // replace
  EXPECT_EQ(store.resident_bytes(), 40u);
  store.set_blob("b", std::vector<std::uint8_t>(10));
  EXPECT_EQ(store.resident_bytes(), 50u);
  store.erase("a");
  EXPECT_EQ(store.resident_bytes(), 10u);
  store.erase("missing");  // no-op
  EXPECT_EQ(store.resident_bytes(), 10u);
  store.clear();
  EXPECT_EQ(store.resident_bytes(), 0u);
}

TEST(LocalStore, TypedVectorRoundTrip) {
  LocalStore store;
  store.set_vector<double>("v", {1.0, 2.0, 3.0});
  EXPECT_EQ(store.get_vector<double>("v"),
            (std::vector<double>{1.0, 2.0, 3.0}));
  store.set_value<std::uint64_t>("x", 99);
  EXPECT_EQ(store.get_value<std::uint64_t>("x"), 99u);
  EXPECT_TRUE(store.contains("v"));
  EXPECT_FALSE(store.contains("w"));
}

TEST(LocalStore, MissingKeyThrows) {
  LocalStore store;
  EXPECT_THROW((void)store.blob("nope"), MpteError);
}

TEST(Cluster, ZeroMachinesThrows) {
  EXPECT_THROW(Cluster(ClusterConfig{0, 1024, true}), MpteError);
}

TEST(Cluster, RoundDeliversMessages) {
  Cluster cluster(small_config());
  cluster.run_round(closure_step([](MachineContext& ctx) {
    // Everyone sends its rank to machine 0.
    Serializer s;
    s.write<std::uint32_t>(ctx.id());
    ctx.send(0, std::move(s));
  }));
  cluster.run_round(closure_step([](MachineContext& ctx) {
    if (ctx.id() != 0) {
      EXPECT_TRUE(ctx.inbox().empty());
      return;
    }
    std::uint32_t sum = 0;
    for (const auto& msg : ctx.inbox()) {
      Deserializer d(msg.payload);
      sum += d.read<std::uint32_t>();
    }
    EXPECT_EQ(sum, 0u + 1 + 2 + 3);
  }));
  EXPECT_EQ(cluster.stats().rounds(), 2u);
}

TEST(Cluster, InboxOrderedBySourceRank) {
  Cluster cluster(small_config(6));
  cluster.run_round(closure_step([](MachineContext& ctx) {
    Serializer s;
    s.write<std::uint32_t>(ctx.id());
    ctx.send(2, std::move(s));
  }));
  cluster.run_round(closure_step([](MachineContext& ctx) {
    if (ctx.id() != 2) return;
    ASSERT_EQ(ctx.inbox().size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(ctx.inbox()[i].from, i);
    }
  }));
}

TEST(Cluster, InboxClearedNextRound) {
  Cluster cluster(small_config());
  cluster.run_round(closure_step([](MachineContext& ctx) {
    ctx.send(1, std::vector<std::uint8_t>{1, 2, 3});
  }));
  cluster.run_round(closure_step([](MachineContext& ctx) {
    if (ctx.id() == 1) {
      EXPECT_FALSE(ctx.inbox().empty());
    }
  }));
  cluster.run_round(closure_step([](MachineContext& ctx) {
    EXPECT_TRUE(ctx.inbox().empty());  // nothing sent last round
  }));
}

TEST(Cluster, SendQuotaEnforced) {
  Cluster cluster(small_config(4, 128));
  EXPECT_THROW(cluster.run_round(closure_step([](MachineContext& ctx) {
    if (ctx.id() == 0) {
      ctx.send(1, std::vector<std::uint8_t>(200));  // > 128B local memory
    }
  })),
               MpcViolation);
}

TEST(Cluster, ReceiveQuotaEnforced) {
  Cluster cluster(small_config(4, 128));
  // Each sender is under quota (50B) but the receiver gets 150B.
  EXPECT_THROW(cluster.run_round(closure_step([](MachineContext& ctx) {
    if (ctx.id() != 3) ctx.send(3, std::vector<std::uint8_t>(50));
  })),
               MpcViolation);
}

TEST(Cluster, ResidencyQuotaEnforced) {
  Cluster cluster(small_config(2, 128));
  EXPECT_THROW(cluster.run_round(closure_step([](MachineContext& ctx) {
    ctx.store().set_blob("big", std::vector<std::uint8_t>(256));
  })),
               MpcViolation);
}

TEST(Cluster, EnforcementCanBeDisabled) {
  Cluster cluster(ClusterConfig{2, 64, false});
  cluster.run_round(closure_step([](MachineContext& ctx) {
    ctx.store().set_blob("big", std::vector<std::uint8_t>(1024));
  }));
  EXPECT_EQ(cluster.stats().peak_local_bytes(), 1024u);
}

TEST(Cluster, StatsTrackPeaks) {
  Cluster cluster(small_config(3, 4096));
  cluster.run_round(closure_step([](MachineContext& ctx) {
    if (ctx.id() == 0) ctx.send(1, std::vector<std::uint8_t>(300));
  }));
  EXPECT_EQ(cluster.stats().records()[0].max_sent_bytes, 300u);
  EXPECT_EQ(cluster.stats().records()[0].max_recv_bytes, 300u);
  EXPECT_EQ(cluster.stats().records()[0].total_message_bytes, 300u);
  EXPECT_GE(cluster.stats().peak_round_io_bytes(), 300u);
}

TEST(Cluster, OutOfRangeDestinationThrows) {
  Cluster cluster(small_config(2));
  EXPECT_THROW(cluster.run_round(closure_step([](MachineContext& ctx) {
    ctx.send(7, std::vector<std::uint8_t>(1));
  })),
               MpcViolation);
}

TEST(Cluster, MultipleSendsConcatenate) {
  Cluster cluster(small_config());
  cluster.run_round(closure_step([](MachineContext& ctx) {
    if (ctx.id() == 0) {
      Serializer a;
      a.write<std::uint32_t>(1);
      ctx.send(1, std::move(a));
      Serializer b;
      b.write<std::uint32_t>(2);
      ctx.send(1, std::move(b));
    }
  }));
  cluster.run_round(closure_step([](MachineContext& ctx) {
    if (ctx.id() != 1) return;
    ASSERT_EQ(ctx.inbox().size(), 1u);  // one message per sender
    Deserializer d(ctx.inbox().front().payload);
    EXPECT_EQ(d.read<std::uint32_t>(), 1u);
    EXPECT_EQ(d.read<std::uint32_t>(), 2u);
  }));
}

TEST(LocalMemoryForInput, PowerLawAndFloor) {
  EXPECT_EQ(local_memory_for_input(0, 0.5), 4096u);
  EXPECT_EQ(local_memory_for_input(1 << 20, 0.5, 0), 1024u);
  EXPECT_GE(local_memory_for_input(1 << 20, 1.0, 0), 1u << 20);
}

TEST(RoundStats, SummaryMentionsRounds) {
  Cluster cluster(small_config());
  cluster.run_round(closure_step([](MachineContext&) {}), "noop");
  const std::string summary = cluster.stats().summary();
  EXPECT_NE(summary.find("rounds=1"), std::string::npos);
  EXPECT_NE(summary.find("noop"), std::string::npos);
}

}  // namespace
}  // namespace mpte::mpc
