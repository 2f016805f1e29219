// The local yellow-page directory each node maintains.
//
// Soft state: entries are refreshed by heartbeats/updates and expire when
// their refresh source goes quiet (the protocol decides the timeout policy;
// the table just executes it). Incarnation numbers order information about
// a node across restarts, and a *time-bounded* tombstone set prevents a
// removed node from flapping back in when stale piggybacked joins are
// replayed. Tombstones expire (so a healed network partition can
// re-introduce nodes whose incarnation never changed), and a direct
// observation — hearing the node's own heartbeat — always overrides one.
//
// Row ownership: a row's replicated content is an immutable shared record
// (EntryRef, see membership/types.h); the table owns only its handle and
// the soft state around it (liveness, relayed_by, last_heard, first_seen).
// An update swaps the handle, a refresh keeps it. Copying a table copies
// handles, never rows, and a copy stays valid on its own after the original
// (or the pool the rows came from) is gone.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "membership/types.h"
#include "sim/time.h"

namespace tamp::membership {

enum class ApplyResult : uint8_t {
  kAdded,      // node was not in the directory
  kUpdated,    // contents changed (new incarnation or new data)
  kRefreshed,  // same data; last_heard bumped
  kStale,      // older incarnation than what we have (or tombstoned)
};

class MembershipTable {
 public:
  // Rows live in a flat sorted vector rather than a node-per-entry tree: the
  // hot consumers (digest hashing, refresh encoding, piggyback scans) walk
  // the whole directory every round, and a contiguous scan is what they pay
  // for. Fresh inserts buffer in a small sorted overlay and merge into the
  // main vector in one O(n + k) pass on the next read, so absorbing a batch
  // of k new rows does not shift the main vector k times.
  using Row = std::pair<NodeId, MembershipEntry>;

  explicit MembershipTable(sim::Duration tombstone_ttl = 30 * sim::kSecond)
      : tombstone_ttl_(tombstone_ttl) {}
  // Merge `data` into the directory. `liveness`/`relayed_by` describe how
  // this node learned it (paper: the SHM "local part" vs "external part").
  // A direct observation upgrades a relayed entry; a relayed record never
  // downgrades a direct one of the same incarnation. Direct observations
  // always clear a tombstone; a relayed record does so only when
  // `override_tombstone` is set (used for solicited bootstrap exchanges,
  // which are authoritative in a way replayed piggybacked joins are not).
  //
  // A refresh (same content) is told from an update by handle identity, or
  // for records of different pools by cached hash and bytes — never by a
  // deep comparison of the EntryData.
  ApplyResult apply(const EntryRef& row, Liveness liveness,
                    NodeId relayed_by, sim::Time now,
                    bool override_tombstone = false);
  // Convenience for callers holding a bare EntryData: applies an unpooled
  // record of it. Protocol code applies interned rows.
  ApplyResult apply(const EntryData& data, Liveness liveness,
                    NodeId relayed_by, sim::Time now,
                    bool override_tombstone = false) {
    return apply(EntryRef(data), liveness, relayed_by, now,
                 override_tombstone);
  }

  // apply(row, kRelayed, tag, now) with a sticky provenance tag: a held
  // relayed entry keeps its relay while `still_heard(relay)` says that relay
  // is still heard; otherwise (a new row, a direct entry, no relay, or a
  // relay gone quiet) the tag is `proposed_relay`. The row is located once.
  template <typename StillHeard>
  ApplyResult apply_relayed(const EntryRef& row, NodeId proposed_relay,
                            sim::Time now, const StillHeard& still_heard) {
    if (tombstoned(row->node, row->incarnation, now)) {
      return ApplyResult::kStale;
    }
    MembershipEntry* existing = find_mutable(row->node);
    NodeId relay = proposed_relay;
    if (existing != nullptr && existing->liveness == Liveness::kRelayed &&
        existing->relayed_by != kInvalidNode &&
        still_heard(existing->relayed_by)) {
      relay = existing->relayed_by;
    }
    return apply_at(existing, row, Liveness::kRelayed, relay, now);
  }

  // Remove if our info about `node` is not newer than `incarnation`.
  // Records a tombstone (valid for tombstone_ttl from `now`) so stale
  // relayed joins of that incarnation stay out.
  bool remove(NodeId node, Incarnation incarnation, sim::Time now);

  // Refresh the last-heard stamp without touching contents.
  void touch(NodeId node, sim::Time now);

  // Re-root each listed relayed entry's provenance at `relayed_by` and
  // refresh its stamp: the relay vouched (via an anti-entropy digest) that
  // it holds this exact row, which is what absorbing a full
  // re-announcement from it would record. Skips direct or missing entries,
  // the relay's own entry (a self-rooted relay would be a provenance
  // cycle) and `owner`'s, the table holder's own row, whatever a peer
  // lists. Any order and repeats are correct; ascending ids are located
  // in one forward pass over the table.
  void reconfirm_relays(const std::vector<NodeId>& nodes, NodeId relayed_by,
                        NodeId owner, sim::Time now);

  // Downgrade a direct entry to relayed (the protocol no longer hears the
  // node itself; its liveness is now second-hand). No-op otherwise.
  void demote_to_relayed(NodeId node, NodeId relayed_by);

  // Pointers returned by find()/lookup() stay valid until the next insert or
  // erase (collect-then-consume within one handler is fine; holding one
  // across a mutation is not — same contract callers already honor).
  const MembershipEntry* find(NodeId node) const;
  bool contains(NodeId node) const;
  size_t size() const { return entries_.size() + overlay_.size(); }
  std::vector<NodeId> node_ids() const;

  // All entries (sorted by node id, deterministic iteration).
  const std::vector<Row>& entries() const {
    flush();
    return entries_;
  }

  // Service lookup: `service_regex` is matched against the full service
  // name; `partition_spec` ("*", "2", "1-3", "0,2") selects nodes hosting at
  // least one listed partition. Returns matching entries sorted by node id,
  // each row once. A malformed pattern matches nothing.
  //
  // A pattern without regex metacharacters (^$\.*+?()[]{}|) is an exact
  // name and is answered from a name index: service name -> (row,
  // registration) pairs in node-id order. The index is rebuilt by the first
  // exact-name lookup after a row is added or erased or a row's `data`
  // changes; refreshes, touches and liveness changes keep it. Any other
  // pattern is compiled and matched against every row on each call.
  std::vector<const MembershipEntry*> lookup(
      const std::string& service_regex,
      const std::string& partition_spec) const;

  // Expire entries whose last_heard is older than the per-entry timeout the
  // policy callback returns. Expired entries are removed (no tombstone: an
  // expiry is a local timeout, not authoritative news of a newer state) and
  // their ids are returned.
  std::vector<NodeId> expire(
      sim::Time now,
      const std::function<sim::Duration(const MembershipEntry&)>& timeout_for);

  // Purge all entries relayed by `leader` (paper: information relayed by a
  // leader has the lifetime of that leader). Returns purged ids.
  std::vector<NodeId> purge_relayed_by(NodeId leader);

  void clear();

 private:
  struct Tombstone {
    Incarnation incarnation = 0;
    sim::Time expires = 0;
  };

  bool tombstoned(NodeId node, Incarnation incarnation, sim::Time now) const;
  // apply() past its tombstone gate, on the row's entry (null: not held).
  ApplyResult apply_at(MembershipEntry* existing, const EntryRef& row,
                       Liveness liveness, NodeId relayed_by, sim::Time now);

  // Merge the pending overlay into the main vector. Every public read path
  // flushes first, so exposed pointers/references always target entries_.
  void flush() const;
  // Internal lookup that may return a row still sitting in the overlay;
  // never exposed to callers.
  MembershipEntry* find_mutable(NodeId node);

  // One service registration, as the name index lists it: positions in
  // entries_ and in that row's services, so a copied table's index stays
  // right. Every path that inserts or erases rows or rewrites a row's
  // `data` sets index_dirty_.
  struct IndexHit {
    uint32_t row;
    uint32_t service;
  };
  void rebuild_index() const;

  // Overlay capacity a flush keeps for the next inserts.
  static constexpr size_t kOverlayKept = 16;

  sim::Duration tombstone_ttl_;
  mutable std::vector<Row> entries_;  // sorted by node id
  mutable std::vector<Row> overlay_;  // sorted, keys disjoint from entries_
  std::map<NodeId, Tombstone> tombstones_;
  // Valid unless index_dirty_.
  mutable std::unordered_map<std::string, std::vector<IndexHit>> name_index_;
  mutable bool index_dirty_ = true;
};

}  // namespace tamp::membership
