// The interned-row lifecycle inside whole clusters: one record per distinct
// row per simulation, records returned once nothing holds them, and cached
// hashes/encodings that always match their row after live changes.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "membership/codec.h"
#include "net/builders.h"
#include "protocols/cluster.h"

namespace tamp::protocols {
namespace {

Cluster::Options digest_options() {
  Cluster::Options opts;
  opts.scheme = Scheme::kHierarchical;
  opts.hier.refresh_interval = 10 * sim::kSecond;
  return opts;
}

std::vector<uint8_t> encoded(const membership::EntryData& data) {
  membership::WireWriter w;
  membership::encode_entry(w, data);
  return w.take();
}

// Decodes one whole encoded row through `pool`.
membership::EntryRef decode_from(membership::EntryPool& pool,
                                 const std::vector<uint8_t>& bytes) {
  membership::WireReader r(bytes);
  membership::EntryRef ref = pool.decode(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  return ref;
}

// --- the per-node decode hint -------------------------------------------

TEST(EntryPoolHint, UnchangedRowDecodesToTheSameRecord) {
  membership::EntryPool pool;
  const auto bytes = encoded(membership::make_representative_entry(9, 2));
  const membership::EntryRef first = decode_from(pool, bytes);
  ASSERT_TRUE(first);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(decode_from(pool, bytes).record(), first.record());
  }
  EXPECT_EQ(pool.live_records(), 1u);
  EXPECT_EQ(pool.live_bytes(), bytes.size());
}

TEST(EntryPoolHint, ChangedRowMissesTheHintAndGetsItsOwnRecord) {
  membership::EntryPool pool;
  membership::EntryData data = membership::make_representative_entry(9, 2);
  const auto old_bytes = encoded(data);
  const membership::EntryRef old_row = decode_from(pool, old_bytes);
  data.values["load"] = "0.4";
  const auto new_bytes = encoded(data);
  const membership::EntryRef new_row = decode_from(pool, new_bytes);
  ASSERT_TRUE(new_row);
  EXPECT_NE(new_row.record(), old_row.record());
  EXPECT_EQ(*new_row, data);
  EXPECT_EQ(new_row.bytes(), new_bytes);
  EXPECT_EQ(pool.live_records(), 2u);
  // The new row is the hint now; the old one is still pooled.
  EXPECT_EQ(decode_from(pool, new_bytes).record(), new_row.record());
  EXPECT_EQ(decode_from(pool, old_bytes).record(), old_row.record());
  EXPECT_EQ(pool.live_records(), 2u);
}

// Every cut inside the hinted row's bytes is rejected exactly as
// decode_entry rejects it: a null ref, a failed reader, nothing interned.
TEST(EntryPoolHint, InputCutInsideTheHintedRowIsRejected) {
  membership::EntryPool pool;
  const auto bytes = encoded(membership::make_representative_entry(9, 2));
  const membership::EntryRef held = decode_from(pool, bytes);
  for (size_t len = 0; len < bytes.size(); ++len) {
    membership::WireReader plain(bytes.data(), len);
    EXPECT_FALSE(membership::decode_entry(plain).has_value());
    membership::WireReader hinted(bytes.data(), len);
    EXPECT_FALSE(pool.decode(hinted)) << "len " << len;
    EXPECT_FALSE(hinted.ok()) << "len " << len;
    EXPECT_EQ(hinted.remaining(), plain.remaining()) << "len " << len;
    EXPECT_EQ(pool.live_records(), 1u) << "len " << len;
  }
  // The hint survives the rejects.
  EXPECT_EQ(decode_from(pool, bytes).record(), held.record());
}

// The hint does not keep its record alive: once the last handle goes, the
// record leaves the pool and the hint with it (AddressSanitizer flags any
// later read through a stale hint). Decoding the row again builds it anew.
TEST(EntryPoolHint, ReleasedRecordLeavesTheHint) {
  membership::EntryPool pool;
  const membership::EntryData data =
      membership::make_representative_entry(9, 2);
  const auto bytes = encoded(data);
  {
    const membership::EntryRef row = decode_from(pool, bytes);
    ASSERT_TRUE(row);
  }
  EXPECT_EQ(pool.live_records(), 0u);
  const membership::EntryRef again = decode_from(pool, bytes);
  ASSERT_TRUE(again);
  EXPECT_EQ(*again, data);
  EXPECT_EQ(pool.live_records(), 1u);
  // A row of another node that was never hinted decodes as usual too.
  const auto other = encoded(membership::make_representative_entry(10, 2));
  EXPECT_NE(decode_from(pool, other).record(), again.record());
}

TEST(EntryPoolLifetime, EachSimulationHasItsOwnPool) {
  sim::Simulation a(1);
  sim::Simulation b(1);
  membership::EntryPool& pool_a = a.scoped<membership::EntryPool>();
  EXPECT_EQ(&a.scoped<membership::EntryPool>(), &pool_a);
  EXPECT_NE(&b.scoped<membership::EntryPool>(), &pool_a);
}

TEST(EntryPoolLifetime, ClusterSharesRowsAndReturnsThemWhenGone) {
  sim::Simulation sim(5);
  net::Topology topo;
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, params);
  membership::EntryPool& pool = sim.scoped<membership::EntryPool>();
  {
    net::Network net(sim, topo);
    Cluster cluster(sim, net, layout.hosts, digest_options());
    cluster.start_all();
    sim.run_until(30 * sim::kSecond);
    ASSERT_TRUE(cluster.converged());
    // Nothing changed since formation: 12 members, 12 rows, each held by
    // all 12 tables (and any update logs) through one shared record.
    EXPECT_EQ(pool.live_records(), layout.hosts.size());
  }
  // Tables, update streams and messages are gone: so are the rows.
  EXPECT_EQ(pool.live_records(), 0u);
  EXPECT_EQ(pool.live_bytes(), 0u);
}

TEST(EntryPoolLifetime, CachedHashAndBytesMatchEveryHeldRow) {
  sim::Simulation sim(11);
  net::Topology topo;
  net::RackedClusterParams params;
  params.racks = 4;
  params.hosts_per_rack = 12;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, digest_options());
  cluster.start_all();
  sim.run_until(40 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  cluster.daemon(5).update_value("load", "0.9");
  cluster.daemon(17).register_service("http", {1}, {{"Port", "80"}});
  cluster.kill(30);
  sim.run_until(sim.now() + 30 * sim::kSecond);
  cluster.restart(30);
  sim.run_until(sim.now() + 60 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  std::map<std::vector<uint8_t>, const membership::EntryRecord*> by_bytes;
  for (size_t index : cluster.running_indices()) {
    const auto& table = cluster.daemon(index).table();
    for (const auto& [id, entry] : table.entries()) {
      const membership::EntryRef& row = entry.data;
      ASSERT_EQ(row.bytes(), encoded(*row)) << "node " << index << " row " << id;
      ASSERT_EQ(row.digest_hash(), membership::digest_row_hash(*row))
          << "node " << index << " row " << id;
      // One record per distinct row across the whole cluster.
      auto [it, fresh] = by_bytes.emplace(row.bytes(), row.record());
      EXPECT_EQ(it->second, row.record()) << "node " << index << " row " << id;
    }
    // The live changes reached every view.
    const membership::MembershipEntry* loaded = table.find(layout.hosts[5]);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->data->values.at("load"), "0.9");
    EXPECT_EQ(table.lookup("http", "1").size(), 1u);
    EXPECT_EQ(table.find(layout.hosts[30])->data->incarnation,
              cluster.incarnation(30));
  }
  EXPECT_EQ(by_bytes.size(), layout.hosts.size());
}

}  // namespace
}  // namespace tamp::protocols
