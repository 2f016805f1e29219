// Core value types of the membership service's "yellow page" directory.
//
// A directory entry describes one cluster node: identity, incarnation (to
// tell a restarted node from its previous life), machine configuration, the
// service instances it exports, and arbitrary key/value attributes published
// through MService::update_value.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/ids.h"
#include "sim/time.h"

namespace tamp::membership {

// Node identity. Equal to the simulated HostId; its total order is what the
// bully election uses (lowest id wins leadership).
using NodeId = net::HostId;
inline constexpr NodeId kInvalidNode = net::kInvalidHost;

// Monotonically increasing per boot; lets the protocol reject stale
// information about an older incarnation of a restarted node.
using Incarnation = uint64_t;

// Leadership epoch: a per-(level, group) counter minted each time a node
// becomes leader of the group. Orthogonal to Incarnation — a node paused
// and resumed keeps its incarnation, but the leadership it held may have
// been superseded in the meantime. Traffic carrying an older epoch than
// the locally known leadership for the level is stale replay and fenced.
using Epoch = uint64_t;

// One exported service instance: name plus the data partitions this node
// hosts for it, plus service-specific parameters (e.g. HTTP "Port").
struct ServiceRegistration {
  std::string name;
  std::vector<int> partitions;
  std::map<std::string, std::string> params;

  bool operator==(const ServiceRegistration&) const = default;
};

// Relatively stable machine configuration (the paper's announcer reads this
// from /proc; we synthesize it).
struct MachineInfo {
  uint16_t cpus = 2;
  uint32_t memory_mb = 2048;
  std::string os = "linux-2.4.20";

  bool operator==(const MachineInfo&) const = default;
};

// The serializable per-node record exchanged by all protocols.
struct EntryData {
  NodeId node = kInvalidNode;
  Incarnation incarnation = 0;
  MachineInfo machine;
  std::vector<ServiceRegistration> services;
  std::map<std::string, std::string> values;  // update_value key/values

  bool operator==(const EntryData&) const = default;
};

// --- shared, immutable directory rows ----------------------------------------
//
// Row ownership and immutability contract. A member life's EntryData is held
// once per simulation, in an EntryRecord, together with its wire encoding
// (exactly what encode_entry writes for it) and its digest hash (exactly what
// digest_row_hash returns for it). All three are computed when the record is
// built and never change after: a record is immutable. Any change to a
// member's row — a new incarnation, a new service, a new value — builds a new
// record; holders swap handles, they never edit a record in place.
//
// Records are interned in the EntryPool of their simulation (membership/
// codec.h): every table, message, update stream and daemon of that
// simulation that holds member X's current row points at the same record.
// EntryRef is the counted handle; the last handle to go frees the record
// and removes it from its pool. The count is not atomic: a record belongs
// to one simulation, and one simulation runs on one thread at a time, so
// two threads never touch one record's count. A record built outside any
// pool (EntryRef(EntryData), tests and one-off callers) follows the same
// rules without the sharing.

class EntryPool;

class EntryRecord {
 public:
  EntryRecord(const EntryRecord&) = delete;
  EntryRecord& operator=(const EntryRecord&) = delete;

  // encode_entry of the record's EntryData, byte for byte.
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  // digest_row_hash of the record's EntryData, bit for bit.
  uint64_t digest_hash() const { return digest_hash_; }

 private:
  friend class EntryRef;
  friend class EntryPool;

  EntryRecord(EntryData data, std::vector<uint8_t> bytes, uint64_t pool_key);

  const EntryData data_;
  const std::vector<uint8_t> bytes_;
  const uint64_t digest_hash_;
  const uint64_t pool_key_;  // hash of bytes_; picks the pool bucket
  uint32_t refs_ = 0;
  EntryPool* pool_ = nullptr;  // null: unpooled, or its pool is gone
};

// Counted handle to an EntryRecord; null when default-constructed (an
// UpdateRecord for a leave carries no entry). Reads go through `->`, `*` or
// the implicit conversion to `const EntryData&`.
class EntryRef {
 public:
  EntryRef() = default;
  // An unpooled record of `data`: encodes and hashes it once, here.
  explicit EntryRef(EntryData data);

  EntryRef(const EntryRef& other) : record_(other.record_) {
    if (record_ != nullptr) ++record_->refs_;
  }
  EntryRef(EntryRef&& other) noexcept
      : record_(std::exchange(other.record_, nullptr)) {}
  EntryRef& operator=(EntryRef other) noexcept {
    std::swap(record_, other.record_);
    return *this;
  }
  ~EntryRef() {
    if (record_ != nullptr && --record_->refs_ == 0) release(record_);
  }

  explicit operator bool() const { return record_ != nullptr; }
  const EntryData& operator*() const { return record_->data_; }
  const EntryData* operator->() const { return &record_->data_; }
  operator const EntryData&() const { return record_->data_; }

  const EntryRecord* record() const { return record_; }
  const std::vector<uint8_t>& bytes() const { return record_->bytes_; }
  uint64_t digest_hash() const { return record_->digest_hash_; }

  // Same row content: the same record, or records (of different pools, or
  // unpooled) whose encodings are equal. The encoding is injective, so
  // equal bytes is equal EntryData.
  friend bool operator==(const EntryRef& a, const EntryRef& b) {
    if (a.record_ == b.record_) return true;
    if (a.record_ == nullptr || b.record_ == nullptr) return false;
    return a.record_->digest_hash() == b.record_->digest_hash() &&
           a.record_->bytes() == b.record_->bytes();
  }

 private:
  friend class EntryPool;
  explicit EntryRef(EntryRecord* record) : record_(record) { ++record_->refs_; }
  static void release(EntryRecord* record);

  EntryRecord* record_ = nullptr;
};

// Why the local directory believes in an entry.
enum class Liveness : uint8_t {
  kDirect,   // we hear this node's own heartbeats on a shared channel
  kRelayed,  // learned via a group leader; its lifetime is tied to that leader
};

// A directory entry: a handle to the shared row plus this node's soft-state
// bookkeeping about it. Only the soft state is per node; `data` points at
// the record every other holder of the same row shares.
struct MembershipEntry {
  EntryRef data;
  Liveness liveness = Liveness::kDirect;
  NodeId relayed_by = kInvalidNode;  // leader this entry depends on
  sim::Time last_heard = 0;          // local clock of last refresh
  sim::Time first_seen = 0;
};

}  // namespace tamp::membership
