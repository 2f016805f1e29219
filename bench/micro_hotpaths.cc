// Google-benchmark micro-benchmarks for the library's hot paths: wire
// serialization (every heartbeat), membership-table maintenance (every
// received packet), service lookup (every invocation), the event queue
// (everything), multicast fan-out (every heartbeat), and the observability
// work the transport adds to every send. These bound how large a simulated
// cluster stays tractable; the obs pair feeds
// tools/check_hotpath_overhead.py, which gates CI on the instrumentation
// staying under 5% of a full transport send.
#include <benchmark/benchmark.h>

#include "membership/codec.h"
#include "membership/messages.h"
#include "membership/table.h"
#include "net/builders.h"
#include "net/topology.h"
#include "net/transport.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace tamp {
namespace {

// Encoding a held row, as every sender does: the record's cached bytes.
void BM_EncodeEntry(benchmark::State& state) {
  membership::EntryRef entry(membership::make_representative_entry(42, 3));
  for (auto _ : state) {
    membership::WireWriter writer;
    membership::encode_entry(writer, entry);
    benchmark::DoNotOptimize(writer.size());
  }
}
BENCHMARK(BM_EncodeEntry);

void BM_DecodeEntry(benchmark::State& state) {
  auto entry = membership::make_representative_entry(42, 3);
  membership::WireWriter writer;
  membership::encode_entry(writer, entry);
  auto buffer = writer.take();
  for (auto _ : state) {
    membership::WireReader reader(buffer);
    auto decoded = membership::decode_entry(reader);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeEntry);

// The receive path of a row the simulation already holds: the pool's hint
// for the node matches, so one compare finds the record. No EntryData is
// built.
void BM_DecodeEntryInterned(benchmark::State& state) {
  membership::EntryPool pool;
  const membership::EntryRef held =
      pool.intern(membership::make_representative_entry(42, 3));
  membership::WireWriter writer;
  membership::encode_entry(writer, held);
  auto buffer = writer.take();
  for (auto _ : state) {
    membership::WireReader reader(buffer);
    auto decoded = pool.decode(reader);
    benchmark::DoNotOptimize(decoded.record());
  }
}
BENCHMARK(BM_DecodeEntryInterned);

// digest_row_hash of a row: recomputed (encode + FNV) with arg 0, the
// record's cached value (what digest rounds read) with arg 1.
void BM_DigestRowHash(benchmark::State& state) {
  const membership::EntryRef row(membership::make_representative_entry(42, 3));
  const bool cached = state.range(0) != 0;
  for (auto _ : state) {
    uint64_t hash =
        cached ? row.digest_hash() : membership::digest_row_hash(*row);
    benchmark::DoNotOptimize(hash);
  }
}
BENCHMARK(BM_DigestRowHash)->Arg(0)->Arg(1);

void BM_EncodeHeartbeat(benchmark::State& state) {
  membership::HeartbeatMsg heartbeat;
  heartbeat.entry =
      membership::EntryRef(membership::make_representative_entry(7));
  heartbeat.is_leader = true;
  for (auto _ : state) {
    auto payload = membership::encode_message(
        membership::Message{heartbeat}, 228);
    benchmark::DoNotOptimize(payload->size());
  }
}
BENCHMARK(BM_EncodeHeartbeat);

// A daemon's receive path: the row interns into the pool holding it.
void BM_DecodeHeartbeat(benchmark::State& state) {
  membership::EntryPool pool;
  membership::HeartbeatMsg heartbeat;
  heartbeat.entry = pool.intern(membership::make_representative_entry(7));
  auto payload =
      membership::encode_message(membership::Message{heartbeat}, 228);
  for (auto _ : state) {
    auto decoded =
        membership::decode_message(payload->data(), payload->size(), &pool);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeHeartbeat);

void BM_TableApplyRefresh(benchmark::State& state) {
  membership::EntryPool pool;
  membership::MembershipTable table;
  const int nodes = static_cast<int>(state.range(0));
  std::vector<membership::EntryRef> entries;
  for (int n = 0; n < nodes; ++n) {
    entries.push_back(pool.intern(membership::make_representative_entry(
        static_cast<membership::NodeId>(n))));
    table.apply(entries.back(), membership::Liveness::kDirect,
                membership::kInvalidNode, 0);
  }
  sim::Time now = 1;
  size_t i = 0;
  for (auto _ : state) {
    table.apply(entries[i % entries.size()], membership::Liveness::kDirect,
                membership::kInvalidNode, ++now);
    ++i;
  }
}
BENCHMARK(BM_TableApplyRefresh)->Arg(100)->Arg(1000)->Arg(4000);

// A relayed refresh of a row already held (an update record or a delta row
// that changed nothing), into a full table of relayed rows whose relay is
// still heard: the sticky provenance rule and the write share one search.
void BM_TableApplyRelayed(benchmark::State& state) {
  constexpr membership::NodeId kRelay = 1u << 20;
  membership::EntryPool pool;
  membership::MembershipTable table;
  const int nodes = static_cast<int>(state.range(0));
  std::vector<membership::EntryRef> entries;
  for (int n = 0; n < nodes; ++n) {
    entries.push_back(pool.intern(membership::make_representative_entry(
        static_cast<membership::NodeId>(n))));
    table.apply(entries.back(), membership::Liveness::kRelayed, kRelay, 0);
  }
  benchmark::DoNotOptimize(table.find(0));  // merge the inserts
  const auto heard = [](membership::NodeId relay) { return relay == kRelay; };
  sim::Time now = 1;
  size_t i = 0;
  for (auto _ : state) {
    auto result = table.apply_relayed(entries[i % entries.size()], kRelay + 1,
                                      ++now, heard);
    benchmark::DoNotOptimize(result);
    ++i;
  }
}
BENCHMARK(BM_TableApplyRelayed)->Arg(500)->Arg(2000);

void fill_table(membership::MembershipTable& table, int nodes) {
  for (int n = 0; n < nodes; ++n) {
    table.apply(membership::make_representative_entry(
                    static_cast<membership::NodeId>(n)),
                membership::Liveness::kDirect, membership::kInvalidNode, 0);
  }
}

// Exact service name: answered from the table's name index.
void BM_TableLookup(benchmark::State& state) {
  membership::MembershipTable table;
  fill_table(table, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto matches = table.lookup("retriever", "2");
    benchmark::DoNotOptimize(matches.size());
  }
}
BENCHMARK(BM_TableLookup)->Arg(100)->Arg(1000);

// A real regex: compiled and matched against every row on each call.
void BM_TableLookupRegex(benchmark::State& state) {
  membership::MembershipTable table;
  fill_table(table, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto matches = table.lookup("retr.*", "2");
    benchmark::DoNotOptimize(matches.size());
  }
}
BENCHMARK(BM_TableLookupRegex)->Arg(100)->Arg(1000);

// One service-changing apply per lookup, so every lookup pays an index
// rebuild: the worst case for the index.
void BM_TableLookupAfterChurn(benchmark::State& state) {
  membership::MembershipTable table;
  const int nodes = static_cast<int>(state.range(0));
  fill_table(table, nodes);
  membership::Incarnation incarnation = 3;
  size_t i = 0;
  for (auto _ : state) {
    auto entry = membership::make_representative_entry(
        static_cast<membership::NodeId>(i % static_cast<size_t>(nodes)),
        ++incarnation);
    entry.services.front().partitions.push_back(static_cast<int>(i % 7));
    table.apply(entry, membership::Liveness::kDirect,
                membership::kInvalidNode, 0);
    auto matches = table.lookup("retriever", "2");
    benchmark::DoNotOptimize(matches.size());
    ++i;
  }
}
BENCHMARK(BM_TableLookupAfterChurn)->Arg(100)->Arg(1000);

// Formation-style growth: rows arrive one at a time in no particular order
// and every insert is followed by a read, so each read merges a one-row
// overlay into the main vector.
void BM_TableFlushInterleaved(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  membership::EntryPool pool;
  std::vector<membership::EntryRef> rows;
  for (int n = 0; n < nodes; ++n) {
    rows.push_back(pool.intern(membership::make_representative_entry(
        static_cast<membership::NodeId>(n))));
  }
  util::Rng rng(5);
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.uniform_u64(i)]);
  }
  for (auto _ : state) {
    membership::MembershipTable table;
    for (const auto& row : rows) {
      table.apply(row, membership::Liveness::kDirect,
                  membership::kInvalidNode, 0);
      benchmark::DoNotOptimize(table.find(row->node));
    }
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_TableFlushInterleaved)->Arg(500)->Arg(2000);

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue queue;
  util::Rng rng(7);
  const int depth = static_cast<int>(state.range(0));
  for (int i = 0; i < depth; ++i) {
    queue.push(static_cast<sim::Time>(rng.uniform_u64(1u << 30)), [] {});
  }
  for (auto _ : state) {
    auto fired = queue.pop();
    benchmark::DoNotOptimize(fired.t);
    queue.push(fired.t + static_cast<sim::Time>(rng.uniform_u64(1000)),
               [] {});
  }
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(100000);

void BM_EventQueueCancel(benchmark::State& state) {
  sim::EventQueue queue;
  for (auto _ : state) {
    auto id = queue.push(1000, [] {});
    queue.cancel(id);
  }
}
BENCHMARK(BM_EventQueueCancel);

void BM_ObsCounterAdd(benchmark::State& state) {
  // A resolved registry handle: the steady-state cost once a daemon has
  // cached its Counter* at construction.
  obs::Observability obs;
  obs::Counter* counter =
      obs.metrics.counter(obs::Protocol::kNet, "tx_messages", 3);
  for (auto _ : state) {
    counter->add();
    benchmark::DoNotOptimize(counter->value);
  }
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsTracerDisabledRecord(benchmark::State& state) {
  // Every instrumented site pays this when tracing is off (the default).
  obs::Observability obs;
  for (auto _ : state) {
    obs.tracer.record(obs::TraceKind::kDeltaEmit, 3, 0, 1, 2, 3);
    benchmark::DoNotOptimize(obs.tracer.recorded());
  }
}
BENCHMARK(BM_ObsTracerDisabledRecord);

// The exact per-send work the observability layer added to the transmit
// path: classify the payload's wire kind, bump the per-host and per-kind
// counters, and offer the (disabled) tracer an event. The CI gate compares
// this against BM_TransportSendUnicast below.
void BM_ObsHotpathAddition(benchmark::State& state) {
  obs::Observability obs;
  obs::Counter* tx =
      obs.metrics.counter(obs::Protocol::kNet, "tx_messages", 3);
  obs::Counter* bytes =
      obs.metrics.counter(obs::Protocol::kNet, "tx_wire_bytes", 3);
  obs::Counter* kind_total =
      obs.metrics.counter(obs::Protocol::kNet, "tx_kind_heartbeat");
  membership::HeartbeatMsg heartbeat;
  heartbeat.entry =
      membership::EntryRef(membership::make_representative_entry(7));
  auto payload =
      membership::encode_message(membership::Message{heartbeat}, 228);
  for (auto _ : state) {
    uint8_t kind =
        membership::classify_wire_kind(payload->data(), payload->size());
    benchmark::DoNotOptimize(kind);
    tx->add();
    bytes->add(payload->size());
    kind_total->add();
    obs.tracer.record(obs::TraceKind::kEgressDrop, 3, 0, -1, kind);
  }
}
BENCHMARK(BM_ObsHotpathAddition);

// Denominator for the overhead gate: a full instrumented unicast send of a
// representative heartbeat between two switched hosts, drained to delivery.
void BM_TransportSendUnicast(benchmark::State& state) {
  sim::Simulation sim(11);
  net::Topology topo;
  net::DeviceId sw = topo.add_l2_switch("sw");
  net::HostId a = topo.add_host("a");
  net::HostId b = topo.add_host("b");
  topo.connect(a, sw);
  topo.connect(b, sw);
  net::Network net(sim, topo);
  membership::install_wire_classifier(net);
  uint64_t received = 0;
  net.bind(b, 7, [&](const net::Packet&) { ++received; });
  membership::HeartbeatMsg heartbeat;
  heartbeat.entry =
      membership::EntryRef(membership::make_representative_entry(7));
  auto payload =
      membership::encode_message(membership::Message{heartbeat}, 228);
  for (auto _ : state) {
    net.send_unicast(a, {b, 7}, payload);
    sim.run();
  }
  benchmark::DoNotOptimize(received);
}
BENCHMARK(BM_TransportSendUnicast);

// A level-0 heartbeat in a 500-host cluster: racks of 20 under one core
// router, every host on one shared channel, sent at TTL 1 so only the
// sender's 19 rack-mates are in scope. Senders rotate through the cluster;
// each iteration is one multicast drained to delivery.
void BM_MulticastFanout(benchmark::State& state) {
  sim::Simulation sim(11);
  net::Topology topo;
  net::RackedClusterParams params;
  params.hosts_per_rack = 20;
  params.racks = static_cast<int>(state.range(0)) / params.hosts_per_rack;
  const net::ClusterLayout layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);
  membership::install_wire_classifier(net);
  uint64_t received = 0;
  for (net::HostId host : layout.hosts) {
    net.join_group(host, 1);
    net.bind(host, 7, [&](const net::Packet&) { ++received; });
  }
  membership::HeartbeatMsg heartbeat;
  heartbeat.entry =
      membership::EntryRef(membership::make_representative_entry(7));
  auto payload =
      membership::encode_message(membership::Message{heartbeat}, 228);
  size_t next = 0;
  for (auto _ : state) {
    net.send_multicast(layout.hosts[next], 1, 1, 7, payload);
    sim.run();
    next = (next + 1) % layout.hosts.size();
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(static_cast<int64_t>(received));
}
BENCHMARK(BM_MulticastFanout)->Arg(500);

}  // namespace
}  // namespace tamp

BENCHMARK_MAIN();
