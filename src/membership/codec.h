// (De)serialization of EntryData — the per-node record every protocol ships —
// and the per-simulation pool that interns it (see the row contract in
// membership/types.h).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "membership/types.h"
#include "membership/wire.h"

namespace tamp::membership {

void encode_entry(WireWriter& w, const EntryData& entry);
// Appends the record's cached encoding: the same bytes as encoding its data.
void encode_entry(WireWriter& w, const EntryRef& entry);
std::optional<EntryData> decode_entry(WireReader& r);

// Encoded size of an entry (used by the analysis module for the paper's
// parameter `m`, the per-node information size).
size_t encoded_entry_size(const EntryData& entry);

// Content hash of one row's replicated state (subject, incarnation, encoded
// EntryData), FNV-1a over the wire encoding. Local soft state (liveness,
// last_heard) is deliberately excluded — digests compare what refresh would
// have shipped, not local bookkeeping. Every EntryRecord caches this value.
uint64_t digest_row_hash(const EntryData& entry);

// Interns the rows of one simulation: equal rows share one EntryRecord.
// A record is looked up by a hash of its encoding, and a hit requires the
// full encodings to be equal — the hash only picks the bucket, so a
// collision never aliases two rows. There is no lock: a pool belongs to
// one simulation (sim::Simulation::scoped) and is only used from the
// thread running it. Records hold no reference to the pool: a record
// released while its pool is alive leaves it, and destroying the pool
// detaches the records still held, which then live on unpooled.
//
// A row rarely changes between two heartbeats of its node, so the pool
// also remembers, per node id, the last record decode() returned for it.
// A decode whose next bytes equal that record's encoding returns it after
// one memcmp (see decode()). The hint is a plain pointer, not a handle: it
// keeps no record alive, and a record leaving the pool clears its hint.
class EntryPool {
 public:
  EntryPool() = default;
  EntryPool(const EntryPool&) = delete;
  EntryPool& operator=(const EntryPool&) = delete;
  ~EntryPool();

  // The shared record of `data`, encoded and hashed on first sight.
  EntryRef intern(const EntryData& data);

  // Decodes one entry: returns the pooled record with exactly these bytes,
  // materializing an EntryData only on a miss. Accepts and rejects exactly
  // what decode_entry does and consumes the same bytes; on malformed input
  // it returns a null ref with !r.ok() and interns nothing.
  EntryRef decode(WireReader& r);

  // Records alive in the pool and the encoded bytes they hold.
  size_t live_records() const { return records_.size(); }
  size_t live_bytes() const;

 private:
  friend class EntryRef;

  // decode() without the hint: walks the wire slice without allocating,
  // hashes it and looks it up.
  EntryRef decode_slow(WireReader& r);
  EntryRef find(uint64_t key, const uint8_t* bytes, size_t size) const;
  EntryRef adopt(EntryData data, std::vector<uint8_t> bytes, uint64_t key);
  void forget(const EntryRecord* record);

  std::unordered_multimap<uint64_t, EntryRecord*> records_;  // by pool_key_
  // Per node id, the record decode() last returned for it. Every hinted
  // record is in records_.
  std::unordered_map<NodeId, EntryRecord*> hints_;
};

// pool->decode(r), or an unpooled record when `pool` is null.
EntryRef decode_entry_ref(WireReader& r, EntryPool* pool);

// Builds a representative entry whose encoded size is close to the paper's
// measured 228 bytes per node (hostname-sized strings, one service with two
// partitions, a handful of attributes).
EntryData make_representative_entry(NodeId node, Incarnation incarnation = 1);

}  // namespace tamp::membership
