#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "membership/messages.h"
#include "net/builders.h"
#include "protocols/cluster.h"
#include "protocols/level_members.h"

namespace tamp::protocols {
namespace {

struct HierFixture : public ::testing::Test {
  sim::Simulation sim{23};
  net::Topology topo;

  Cluster::Options options(int max_ttl = 4) {
    Cluster::Options opts;
    opts.scheme = Scheme::kHierarchical;
    opts.hier.max_ttl = max_ttl;
    return opts;
  }

  HierDaemon* leader_of_level0_group(Cluster& cluster,
                                     const std::vector<net::HostId>& rack) {
    for (net::HostId h : rack) {
      auto* d = static_cast<HierDaemon*>(cluster.daemon_for(h));
      if (d != nullptr && d->is_leader(0)) return d;
    }
    return nullptr;
  }
};

TEST_F(HierFixture, SingleSegmentConverges) {
  auto layout = net::build_single_segment(topo, 10);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options(1));
  cluster.start_all();
  sim.run_until(10 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
}

TEST_F(HierFixture, SingleSegmentElectsExactlyOneLeader) {
  auto layout = net::build_single_segment(topo, 10);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options(1));
  cluster.start_all();
  sim.run_until(10 * sim::kSecond);

  int leaders = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.hier_daemon(i)->is_leader(0)) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  // Bully: lowest id wins.
  auto lowest = *std::min_element(layout.hosts.begin(), layout.hosts.end());
  EXPECT_TRUE(
      static_cast<HierDaemon*>(cluster.daemon_for(lowest))->is_leader(0));
}

TEST_F(HierFixture, RackedClusterFormsTwoLevels) {
  net::RackedClusterParams params;
  params.racks = 5;
  params.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);

  EXPECT_TRUE(cluster.converged());

  // Exactly one level-0 leader per rack.
  std::vector<HierDaemon*> rack_leaders;
  for (const auto& rack : layout.racks) {
    int leaders = 0;
    for (net::HostId h : rack) {
      auto* d = static_cast<HierDaemon*>(cluster.daemon_for(h));
      if (d->is_leader(0)) {
        ++leaders;
        rack_leaders.push_back(d);
      }
      // Everyone agrees on who leads the rack.
      EXPECT_NE(d->leader_of(0), membership::kInvalidNode);
    }
    EXPECT_EQ(leaders, 1);
  }
  ASSERT_EQ(rack_leaders.size(), 5u);

  // Rack leaders all join level 1, and exactly one of them leads it.
  int level1_leaders = 0;
  for (auto* d : rack_leaders) {
    EXPECT_TRUE(d->joined(1));
    EXPECT_EQ(d->group_members(1).size(), 4u);  // the other four leaders
    if (d->is_leader(1)) ++level1_leaders;
  }
  EXPECT_EQ(level1_leaders, 1);

  // Non-leaders never join level 1.
  for (size_t i = 0; i < cluster.size(); ++i) {
    auto* d = cluster.hier_daemon(i);
    if (!d->is_leader(0)) {
      EXPECT_FALSE(d->joined(1));
    }
  }
}

TEST_F(HierFixture, FailureOfRegularNodeConvergesClusterWide) {
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 5;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());

  // Pick a non-leader victim in rack 0 (highest id in the rack is safe:
  // the bully elects the lowest).
  net::HostId victim = *std::max_element(layout.racks[0].begin(),
                                         layout.racks[0].end());
  size_t victim_index = 0;
  for (size_t i = 0; i < layout.hosts.size(); ++i) {
    if (layout.hosts[i] == victim) victim_index = i;
  }

  sim::Time first = -1, last = -1;
  int leaves = 0;
  cluster.set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time when) {
        if (subject == victim && !alive) {
          if (first < 0) first = when;
          last = when;
          ++leaves;
        }
      });

  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  const sim::Time kill_at = sim.now();
  cluster.kill(victim_index);
  sim.run_until(kill_at + 20 * sim::kSecond);

  EXPECT_TRUE(cluster.converged());
  EXPECT_EQ(leaves, 14);  // every survivor exactly once
  // Local detection ~ max_losses * period; remote nodes learn within
  // ~tree-propagation of that.
  EXPECT_GE(first - kill_at, 4 * sim::kSecond);
  EXPECT_LE(first - kill_at, 7 * sim::kSecond);
  EXPECT_LE(last - first, 2 * sim::kSecond);
}

TEST_F(HierFixture, JoinPropagatesClusterWide) {
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  cluster.kill(11);  // a rack-2 node is down from the start
  sim.run_until(15 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());

  cluster.restart(11);
  sim.run_until(30 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
  // Cross-rack observers see the restarted incarnation.
  const auto* seen = cluster.daemon(0).table().find(layout.hosts[11]);
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen->data->incarnation, 2u);
}

TEST_F(HierFixture, Level0LeaderDeathBackupTakesOver) {
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 5;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  HierDaemon* leader = leader_of_level0_group(cluster, layout.racks[1]);
  ASSERT_NE(leader, nullptr);
  net::HostId dead_leader = leader->self();
  size_t leader_index = 0;
  for (size_t i = 0; i < layout.hosts.size(); ++i) {
    if (layout.hosts[i] == dead_leader) leader_index = i;
  }

  cluster.kill(leader_index);
  sim.run_until(sim.now() + 25 * sim::kSecond);

  EXPECT_TRUE(cluster.converged());
  HierDaemon* new_leader = leader_of_level0_group(cluster, layout.racks[1]);
  ASSERT_NE(new_leader, nullptr);
  EXPECT_NE(new_leader->self(), dead_leader);
  EXPECT_TRUE(new_leader->joined(1));
}

TEST_F(HierFixture, BothLeaderAndBackupDieElectionRecovers) {
  net::RackedClusterParams params;
  params.racks = 2;
  params.hosts_per_rack = 6;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  HierDaemon* leader = leader_of_level0_group(cluster, layout.racks[0]);
  ASSERT_NE(leader, nullptr);
  net::HostId backup = leader->backup_of(0);
  ASSERT_NE(backup, membership::kInvalidNode);

  auto index_of = [&](net::HostId h) {
    return static_cast<size_t>(
        std::find(layout.hosts.begin(), layout.hosts.end(), h) -
        layout.hosts.begin());
  };
  cluster.kill(index_of(leader->self()));
  cluster.kill(index_of(backup));
  sim.run_until(sim.now() + 30 * sim::kSecond);

  EXPECT_TRUE(cluster.converged());
  HierDaemon* new_leader = leader_of_level0_group(cluster, layout.racks[0]);
  ASSERT_NE(new_leader, nullptr);
}

TEST_F(HierFixture, DeepTreeFormsThreeLevels) {
  auto layout = net::build_router_tree(topo, 2, 1, 3);
  // Two leaf segments under each of two depth-1 routers... branching=2,
  // depth=1: root router with 2 leaf routers, each with a 3-host segment.
  // Cross-segment TTL: leaf,root,leaf = 3 routers -> TTL 4.
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options(4));
  cluster.start_all();
  sim.run_until(20 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());

  // Each segment has a level-0 leader; those leaders can only hear each
  // other at TTL 4 => they meet at level 3 (channels for levels 1,2 are
  // singleton groups they lead trivially).
  int top_leaders = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    auto* d = cluster.hier_daemon(i);
    if (d->is_leader(0)) {
      EXPECT_TRUE(d->joined(3));
      EXPECT_EQ(d->group_members(3).size(), 1u);
      if (d->is_leader(3)) ++top_leaders;
    }
  }
  EXPECT_EQ(top_leaders, 1);
}

TEST_F(HierFixture, Fig4OverlappingGroupsStayConsistent) {
  auto layout = net::build_fig4_overlap(topo, 2);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.all, options(4));
  cluster.start_all();
  sim.run_until(20 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());

  // Kill a node in segment C; B's nodes are 4 TTL-hops away and can only
  // learn through the overlap leader(s).
  net::HostId victim = layout.segment_c[1];
  size_t victim_index = static_cast<size_t>(
      std::find(layout.all.begin(), layout.all.end(), victim) -
      layout.all.begin());
  cluster.kill(victim_index);
  sim.run_until(sim.now() + 20 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
  for (net::HostId h : layout.segment_b) {
    EXPECT_FALSE(cluster.daemon_for(h)->table().contains(victim));
  }
}

TEST_F(HierFixture, NoTwoLeadersSeeEachOtherOnOneChannel) {
  auto layout = net::build_fig4_overlap(topo, 2);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.all, options(4));
  cluster.start_all();
  sim.run_until(20 * sim::kSecond);

  // Paper invariant: on any channel, a leader never hears another leader.
  for (size_t i = 0; i < cluster.size(); ++i) {
    auto* a = cluster.hier_daemon(i);
    for (int level = 0; level < 4; ++level) {
      if (!a->is_leader(level)) continue;
      for (size_t j = 0; j < cluster.size(); ++j) {
        if (i == j) continue;
        auto* b = cluster.hier_daemon(j);
        if (!b->is_leader(level)) continue;
        int ttl = topo.ttl_required(a->self(), b->self());
        EXPECT_GT(ttl, level + 1)
            << "leaders " << a->self() << " and " << b->self()
            << " can hear each other at level " << level;
      }
    }
  }
}

TEST_F(HierFixture, UpdateLossRecoveredByPiggyback) {
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 5;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  // Significant loss during a churn phase: kill + restart several nodes.
  net.set_extra_loss(0.15);
  cluster.kill(4);
  cluster.kill(9);
  sim.run_until(sim.now() + 15 * sim::kSecond);
  cluster.restart(4);
  sim.run_until(sim.now() + 15 * sim::kSecond);
  net.set_extra_loss(0.0);
  sim.run_until(sim.now() + 20 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
}

TEST_F(HierFixture, HeartbeatTrafficStaysLocal) {
  net::RackedClusterParams params;
  params.racks = 5;
  params.hosts_per_rack = 20;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());
  net.obs().metrics.reset(obs::Protocol::kNet);
  sim.run_until(25 * sim::kSecond);

  // Per node per second: ~19 intra-rack heartbeats + a few level-1 packets.
  // The all-to-all equivalent would be 99 packets per node per second.
  double per_node_per_sec =
      static_cast<double>(net.obs().metrics.counter_value(
          obs::Protocol::kNet, "rx_messages")) /
      10.0 / static_cast<double>(layout.hosts.size());
  EXPECT_LT(per_node_per_sec, 30.0);
  EXPECT_GT(per_node_per_sec, 15.0);
}

TEST_F(HierFixture, NetworkPartitionDetectedAndHealed) {
  net::RackedClusterParams params;
  params.racks = 3;
  params.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  // Cut rack 2's uplink: a switch/uplink failure partitions 4 nodes.
  topo.set_link_up(layout.rack_uplinks[2], false);
  sim.run_until(sim.now() + 30 * sim::kSecond);

  // Main partition no longer lists rack-2 nodes.
  for (net::HostId h : layout.racks[0]) {
    auto& table = cluster.daemon_for(h)->table();
    for (net::HostId r2 : layout.racks[2]) {
      EXPECT_FALSE(table.contains(r2));
    }
    EXPECT_EQ(table.size(), 8u);
  }
  // Rack-2 nodes still see each other (local group survives).
  for (net::HostId h : layout.racks[2]) {
    auto& table = cluster.daemon_for(h)->table();
    for (net::HostId peer : layout.racks[2]) {
      EXPECT_TRUE(table.contains(peer));
    }
  }

  // Heal: views must re-merge despite tombstones (they expire).
  topo.set_link_up(layout.rack_uplinks[2], true);
  sim.run_until(sim.now() + 60 * sim::kSecond);
  EXPECT_TRUE(cluster.converged());
}

TEST_F(HierFixture, ValueUpdatePropagatesAcrossGroups) {
  net::RackedClusterParams params;
  params.racks = 2;
  params.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  // A rack-0 node publishes a new value; a rack-1 node must see it.
  cluster.daemon(1).update_value("load", "0.75");
  sim.run_until(sim.now() + 5 * sim::kSecond);
  const auto* entry =
      cluster.daemon_for(layout.racks[1][0])->table().find(layout.hosts[1]);
  ASSERT_NE(entry, nullptr);
  auto it = entry->data->values.find("load");
  ASSERT_NE(it, entry->data->values.end());
  EXPECT_EQ(it->second, "0.75");
}

TEST_F(HierFixture, RegisterServiceVisibleClusterWide) {
  net::RackedClusterParams params;
  params.racks = 2;
  params.hosts_per_rack = 3;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);

  cluster.daemon(0).register_service("http", {0}, {{"Port", "8080"}});
  sim.run_until(sim.now() + 5 * sim::kSecond);

  auto matches =
      cluster.daemon_for(layout.racks[1][2])->table().lookup("http", "*");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0]->data->node, layout.hosts[0]);
  EXPECT_EQ(matches[0]->data->services.back().params.at("Port"), "8080");
}

TEST_F(HierFixture, StatsCountersMove) {
  net::RackedClusterParams params;
  params.racks = 2;
  params.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options());
  cluster.start_all();
  sim.run_until(15 * sim::kSecond);

  const obs::MetricsRegistry& m = net.obs().metrics;
  EXPECT_GT(m.counter_sum_over_nodes(obs::Protocol::kHier,
                                     "elections_started"),
            0u);
  EXPECT_GT(m.counter_sum_over_nodes(obs::Protocol::kHier, "heartbeats_sent"),
            8u * 10u);
  EXPECT_GT(m.counter_sum_over_nodes(obs::Protocol::kHier,
                                     "bootstraps_requested"),
            0u);
}

// --- failure-scan early-out ---------------------------------------------

// The members `observer` timed out, as (scan tick, member) in trace order.
std::vector<std::pair<sim::Time, membership::NodeId>> expiries_at(
    const net::Network& net, net::HostId observer) {
  std::vector<std::pair<sim::Time, membership::NodeId>> out;
  for (const obs::TraceEvent& e : net.obs().tracer.events()) {
    if (e.kind == obs::TraceKind::kTimeoutExpiry && e.node == observer) {
      out.emplace_back(e.at, static_cast<membership::NodeId>(e.a));
    }
  }
  return out;
}

void trace_expiries(net::Network& net) {
  net.obs().tracer.set_enabled(true);
  net.obs().tracer.set_kinds_mask(
      obs::trace_bit(obs::TraceKind::kTimeoutExpiry));
}

TEST(LevelMembers, DueWalksInNodeOrderAndInsertLowersTheBound) {
  LevelMembers members;
  EXPECT_TRUE(members.due(100, 10).empty());
  EXPECT_TRUE(members.put(7, 0, false, membership::kInvalidNode));
  EXPECT_TRUE(members.put(3, 0, true, 7));
  EXPECT_TRUE(members.put(5, 5, false, membership::kInvalidNode));
  EXPECT_FALSE(members.put(5, 6, false, membership::kInvalidNode));
  EXPECT_TRUE(members.due(10, 10).empty());  // silent exactly the timeout
  EXPECT_EQ(members.due(11, 10), (std::vector<membership::NodeId>{3, 7}));
  ASSERT_TRUE(members.erase(3));
  ASSERT_TRUE(members.erase(7));
  EXPECT_FALSE(members.erase(7));
  members.touch(5, 30);
  EXPECT_TRUE(members.due(40, 10).empty());
  EXPECT_EQ(members.due(41, 10), (std::vector<membership::NodeId>{5}));
  ASSERT_TRUE(members.erase(5));
  EXPECT_TRUE(members.due(1000, 10).empty());  // emptied: bound is "never"
  members.put(9, 1000, false, membership::kInvalidNode);
  EXPECT_EQ(members.due(1011, 10), (std::vector<membership::NodeId>{9}));
}

// Holds every packet the listed senders emit until the next whole multiple
// of `period`, so all their traffic lands together on those boundaries.
class BoundaryRelease : public net::FaultInjector {
 public:
  BoundaryRelease(sim::Simulation& sim, std::vector<net::HostId> senders,
                  sim::Duration period)
      : sim_(sim), senders_(std::move(senders)), period_(period) {}
  Verdict verdict(const net::Packet& p) override {
    Verdict v;
    if (std::find(senders_.begin(), senders_.end(), p.from.host) !=
        senders_.end()) {
      v.extra_delay = (period_ - sim_.now() % period_) % period_;
    }
    return v;
  }

 private:
  sim::Simulation& sim_;
  std::vector<net::HostId> senders_;
  sim::Duration period_;
};

TEST_F(HierFixture, MembersKilledTogetherExpireAtOneScanTickInNodeOrder) {
  auto layout = net::build_single_segment(topo, 8);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options(1));
  cluster.start_all();
  sim.run_until(10 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  // Bully elects the lowest id, so the highest three are plain members.
  // For the last period before they die, everything they send reaches
  // their peers at the kill instant, so every survivor last heard all
  // three at one time; they are killed out of id order.
  const std::vector<membership::NodeId> victims = {
      layout.hosts[5], layout.hosts[6], layout.hosts[7]};
  const sim::Duration period = options().hier.period;
  BoundaryRelease release(sim, victims, period);
  net.set_fault_injector(&release);
  sim.run_until(11 * sim::kSecond);
  trace_expiries(net);
  const sim::Time kill_at = sim.now();
  for (size_t index : {6u, 5u, 7u}) cluster.kill(index);
  sim.run_until(kill_at + 10 * sim::kSecond);
  net.set_fault_injector(nullptr);

  const sim::Duration timeout = cluster.hier_daemon(0)->level_timeout(0);
  for (size_t i = 0; i < 5; ++i) {
    const auto expired = expiries_at(net, layout.hosts[i]);
    ASSERT_EQ(expired.size(), 3u) << "observer " << layout.hosts[i];
    for (size_t k = 0; k < expired.size(); ++k) {
      EXPECT_EQ(expired[k].first, expired[0].first);
      EXPECT_EQ(expired[k].second, victims[k]);
    }
    EXPECT_GT(expired[0].first - kill_at, timeout);
    EXPECT_LE(expired[0].first - kill_at,
              timeout + HierDaemon::kScanInterval + sim::kMillisecond);
    EXPECT_EQ(cluster.hier_daemon(i)->group_members(0).size(), 4u);
  }
}

// Lets through only every `keep`-th heartbeat from `from` to `to` and drops
// everything else between them in that direction.
class SparseHeartbeats : public net::FaultInjector {
 public:
  SparseHeartbeats(net::HostId from, net::HostId to, int keep)
      : from_(from), to_(to), keep_(keep) {}
  Verdict verdict(const net::Packet& p) override {
    Verdict v;
    if (!armed || p.from.host != from_ || p.to.host != to_) return v;
    const bool heartbeat =
        p.size() >= 2 && p.data()[0] == membership::kWireVersionByte &&
        p.data()[1] == static_cast<uint8_t>(membership::MessageType::kHeartbeat);
    v.cut = !heartbeat || (seen_++ % keep_) != 0;
    return v;
  }
  bool armed = false;

 private:
  net::HostId from_;
  net::HostId to_;
  int keep_;
  int seen_ = 0;
};

TEST_F(HierFixture, MemberHeardJustBeforeItsDeadlineIsKept) {
  // With a 1 s period and a 5 s timeout, one heartbeat in 4 refreshes the
  // member 1 s before its deadline each time; one in 6 comes 1 s late.
  for (int keep : {4, 6}) {
    sim::Simulation local_sim(23);
    net::Topology local_topo;
    auto layout = net::build_single_segment(local_topo, 5);
    net::Network net(local_sim, local_topo);
    Cluster cluster(local_sim, net, layout.hosts, options(1));
    const net::HostId observer = layout.hosts[3];
    const net::HostId quiet = layout.hosts[4];
    SparseHeartbeats injector(quiet, observer, keep);
    net.set_fault_injector(&injector);
    cluster.start_all();
    local_sim.run_until(10 * sim::kSecond);
    ASSERT_TRUE(cluster.converged());
    trace_expiries(net);
    injector.armed = true;
    local_sim.run_until(40 * sim::kSecond);

    const auto expired = expiries_at(net, observer);
    if (keep == 4) {
      EXPECT_TRUE(expired.empty()) << "expired at " << expired[0].first;
      const auto members = cluster.hier_daemon(3)->group_members(0);
      EXPECT_NE(std::find(members.begin(), members.end(), quiet),
                members.end());
    } else {
      ASSERT_FALSE(expired.empty());
      EXPECT_EQ(expired[0].second, quiet);
    }
    net.set_fault_injector(nullptr);
  }
}

TEST_F(HierFixture, MemberJoiningALevelEmptiedByExpiryStillTimesOut) {
  auto layout = net::build_single_segment(topo, 3);
  net::Network net(sim, topo);
  Cluster cluster(sim, net, layout.hosts, options(1));
  cluster.start_all();
  sim.run_until(10 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());
  trace_expiries(net);

  // Node 0 times out both peers and is left alone on the channel.
  cluster.kill(1);
  cluster.kill(2);
  sim.run_until(sim.now() + 10 * sim::kSecond);
  ASSERT_TRUE(cluster.hier_daemon(0)->group_members(0).empty());
  ASSERT_EQ(expiries_at(net, layout.hosts[0]).size(), 2u);

  // A peer joins the emptied level, then dies again: still timed out.
  cluster.restart(1);
  sim.run_until(sim.now() + 5 * sim::kSecond);
  ASSERT_EQ(cluster.hier_daemon(0)->group_members(0),
            (std::vector<membership::NodeId>{layout.hosts[1]}));
  const sim::Time kill_at = sim.now();
  cluster.kill(1);
  sim.run_until(kill_at + 10 * sim::kSecond);
  const auto expired = expiries_at(net, layout.hosts[0]);
  ASSERT_EQ(expired.size(), 3u);
  EXPECT_EQ(expired[2].second, layout.hosts[1]);
  EXPECT_LE(expired[2].first - kill_at,
            cluster.hier_daemon(0)->level_timeout(0) +
                HierDaemon::kScanInterval);
  EXPECT_TRUE(cluster.hier_daemon(0)->group_members(0).empty());
}

}  // namespace
}  // namespace tamp::protocols
