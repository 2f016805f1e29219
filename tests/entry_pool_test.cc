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
  opts.hier.anti_entropy_mode = AntiEntropyMode::kDigest;
  opts.hier.refresh_interval = 10 * sim::kSecond;
  return opts;
}

std::vector<uint8_t> encoded(const membership::EntryData& data) {
  membership::WireWriter w;
  membership::encode_entry(w, data);
  return w.take();
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
