#include "mpc/buffer.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include "closure_step.hpp"
#include "mpc/machine.hpp"
#include "mpc/primitives.hpp"

namespace mpte::mpc {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> list) {
  return std::vector<std::uint8_t>(list);
}

TEST(Buffer, DefaultIsEmptyWithoutAllocating) {
  Buffer::reset_counters();
  const Buffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(Buffer::slabs_created(), 0u);
}

TEST(Buffer, EmptyVectorDoesNotAllocateASlab) {
  Buffer::reset_counters();
  const Buffer b(std::vector<std::uint8_t>{});
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(Buffer::slabs_created(), 0u);
}

TEST(Buffer, TakesOwnershipAndExposesBytes) {
  Buffer::reset_counters();
  const Buffer b(bytes({1, 2, 3}));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.data()[0], 1);
  EXPECT_EQ(b.data()[2], 3);
  EXPECT_EQ(Buffer::slabs_created(), 1u);
}

TEST(Buffer, CopiesShareTheSlab) {
  Buffer::reset_counters();
  const Buffer a(bytes({9, 8, 7}));
  const Buffer b = a;      // NOLINT(performance-unnecessary-copy-...)
  const Buffer c = b;
  EXPECT_EQ(Buffer::slabs_created(), 1u);
  EXPECT_EQ(a.use_count(), 3u);
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(b.data(), c.data());
}

TEST(Buffer, CopyOfMaterializesANewSlab) {
  Buffer::reset_counters();
  const Buffer a(bytes({4, 5}));
  const Buffer b = Buffer::copy_of(a.span());
  EXPECT_EQ(Buffer::slabs_created(), 2u);
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a, b);
}

TEST(Buffer, EqualityComparesBytesNotIdentity) {
  const Buffer a(bytes({1, 2}));
  const Buffer b(bytes({1, 2}));
  const Buffer c(bytes({1, 3}));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, bytes({1, 2}));
  EXPECT_NE(a, bytes({1, 2, 3}));
  EXPECT_EQ(Buffer(), Buffer());
}

TEST(LocalStoreBuffers, ByteAccountingAcrossSetOverwriteErase) {
  LocalStore store;
  EXPECT_EQ(store.resident_bytes(), 0u);

  store.set_blob("a", Buffer(std::vector<std::uint8_t>(100)));
  EXPECT_EQ(store.resident_bytes(), 100u);

  store.set_blob("b", Buffer(std::vector<std::uint8_t>(40)));
  EXPECT_EQ(store.resident_bytes(), 140u);

  // Overwrite replaces, not accumulates.
  store.set_blob("a", Buffer(std::vector<std::uint8_t>(7)));
  EXPECT_EQ(store.resident_bytes(), 47u);

  // Overwriting with an empty buffer leaves only the other key's bytes.
  store.set_blob("a", Buffer());
  EXPECT_EQ(store.resident_bytes(), 40u);

  store.erase("b");
  EXPECT_EQ(store.resident_bytes(), 0u);

  // Erasing a missing key is a no-op.
  store.erase("nope");
  EXPECT_EQ(store.resident_bytes(), 0u);

  store.set_blob("c", Buffer(std::vector<std::uint8_t>(5)));
  store.clear();
  EXPECT_EQ(store.resident_bytes(), 0u);
}

TEST(LocalStoreBuffers, SharedSlabIsChargedToEveryHolder) {
  // The model prices what each machine holds, not how the host
  // deduplicates: one slab referenced by two stores charges both.
  const Buffer slab(std::vector<std::uint8_t>(64));
  LocalStore a;
  LocalStore b;
  a.set_blob("x", slab);
  b.set_blob("x", slab);
  EXPECT_EQ(a.resident_bytes(), 64u);
  EXPECT_EQ(b.resident_bytes(), 64u);
  EXPECT_EQ(slab.use_count(), 3u);  // local + two stores
}

TEST(SerializerSizeHint, ReservesWithoutChangingContents) {
  Serializer hinted(wire_size<std::uint64_t>(3));
  Serializer plain;
  const std::vector<std::uint64_t> values{1, 2, 3};
  hinted.write_vector(values);
  plain.write_vector(values);
  EXPECT_EQ(hinted.bytes(), plain.bytes());
}

TEST(SerializerTake, LeavesTheSerializerReusable) {
  Serializer s;
  s.write<std::uint32_t>(0xAABBCCDD);
  const auto first = s.take();
  EXPECT_EQ(first.size(), 4u);

  // Regression: take() must leave the serializer empty and writable, not
  // in a moved-from limbo.
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.bytes().empty());
  s.write<std::uint16_t>(0x1122);
  EXPECT_EQ(s.size(), 2u);
  const auto second = s.take();
  EXPECT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0], 0x22);
  EXPECT_EQ(s.size(), 0u);
}

TEST(BroadcastZeroCopy, OneSlabServesEveryMachine) {
  // The zero-copy contract of the Buffer refactor: broadcasting a blob to
  // M machines materializes no new slabs — every send refcounts the
  // root's slab, single-fragment delivery moves it, and persisting shares
  // it. Before the refactor this deep-copied O(M) times.
  for (const std::size_t machines : {4u, 16u}) {
    Cluster cluster(ClusterConfig{machines, 1 << 20, true});
    cluster.store(0).set_blob("blob", std::vector<std::uint8_t>(1024, 7));
    Buffer::reset_counters();
    broadcast_blob(cluster, 0, "blob", 3);
    EXPECT_EQ(Buffer::slabs_created(), 0u) << "machines=" << machines;
    for (MachineId id = 0; id < machines; ++id) {
      ASSERT_EQ(cluster.store(id).blob("blob").size(), 1024u);
      // Every machine's copy aliases the root's slab.
      EXPECT_EQ(cluster.store(id).blob("blob").data(),
                cluster.store(0).blob("blob").data());
    }
  }
}

TEST(WireRoundTrip, ReceiveMaterializesExactlyOneSharedSlab) {
  // The wire path's zero-copy contract: from_fd receives straight into one
  // freshly materialized slab, and everything downstream — store, copies —
  // refcounts that same slab. A reader that buffered and re-copied would
  // materialize two.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::vector<std::uint8_t> payload(4096);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  const Buffer sent((std::vector<std::uint8_t>(payload)));
  ASSERT_TRUE(sent.write_fd(sv[0]).ok());

  Buffer::reset_counters();
  auto received = Buffer::from_fd(sv[1], payload.size(), 1000);
  ASSERT_TRUE(received.ok()) << received.status().to_string();
  EXPECT_EQ(Buffer::slabs_created(), 1u);
  EXPECT_TRUE(*received == payload);

  // Persisting and copying the received Buffer share the wire slab.
  LocalStore store;
  store.set_blob("wire", *received);
  EXPECT_EQ(Buffer::slabs_created(), 1u);
  EXPECT_EQ(store.blob("wire").data(), received->data());

  // Empty receive allocates nothing; EOF surfaces as kUnavailable.
  auto empty = Buffer::from_fd(sv[1], 0, 1000);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(Buffer::slabs_created(), 1u);
  ::close(sv[0]);
  auto eof = Buffer::from_fd(sv[1], 16, 1000);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);
  ::close(sv[1]);
}

TEST(BroadcastZeroCopy, SelfSendSharesTheSlab) {
  Cluster cluster(ClusterConfig{2, 1 << 16, true});
  cluster.store(0).set_blob("x", std::vector<std::uint8_t>(256, 1));
  Buffer::reset_counters();
  cluster.run_round(closure_step([&](MachineContext& ctx) {
    if (ctx.id() == 0) ctx.send(0, ctx.store().blob("x"));
  }));
  EXPECT_EQ(Buffer::slabs_created(), 0u);
  ASSERT_EQ(cluster.store(0).resident_bytes(), 256u);
}

}  // namespace
}  // namespace mpte::mpc
