#include "membership/codec.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string_view>

#include "util/strings.h"

namespace tamp::membership {

namespace {

std::vector<uint8_t> encode_to_vector(const EntryData& entry) {
  std::vector<uint8_t> scratch;
  scratch.reserve(256);  // a representative row is ~190 bytes
  WireWriter w(std::move(scratch));
  encode_entry(w, entry);
  return w.take();
}

uint64_t pool_key_of(const uint8_t* bytes, size_t size) {
  return std::hash<std::string_view>{}(
      std::string_view(reinterpret_cast<const char*>(bytes), size));
}

uint64_t fnv1a(uint64_t hash, const uint8_t* bytes, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// digest_row_hash over an entry's encoding. The digest hashes the subject
// and incarnation ahead of the encoded row, and those are exactly the
// encoding's first 12 bytes (u32 node, u64 incarnation).
uint64_t digest_hash_of_encoding(const std::vector<uint8_t>& bytes) {
  const size_t prefix = std::min<size_t>(bytes.size(), 12);
  uint64_t hash = fnv1a(0xcbf29ce484222325ULL, bytes.data(), prefix);
  hash = fnv1a(hash, bytes.data(), bytes.size());
  // A zero hash would make a row invisible to the XOR bucket combine.
  return hash == 0 ? 0x9e3779b97f4a7c15ULL : hash;
}

// decode_entry's walk without building anything: the same reads in the
// same order, so it accepts, rejects and consumes exactly what
// decode_entry does.
bool skip_entry(WireReader& r) {
  r.u32();
  r.u64();
  r.u16();
  r.u32();
  r.skip_str();
  uint64_t service_count = r.varint();
  for (uint64_t i = 0; i < service_count && r.ok(); ++i) {
    r.skip_str();
    uint64_t partition_count = r.varint();
    for (uint64_t p = 0; p < partition_count && r.ok(); ++p) r.varint();
    skip_string_map(r);
  }
  skip_string_map(r);
  return r.ok();
}

}  // namespace

EntryRecord::EntryRecord(EntryData data, std::vector<uint8_t> bytes,
                         uint64_t pool_key)
    : data_(std::move(data)),
      bytes_(bytes.begin(), bytes.end()),  // exact size, no spare capacity
      digest_hash_(digest_hash_of_encoding(bytes_)),
      pool_key_(pool_key) {}

EntryRef::EntryRef(EntryData data) {
  std::vector<uint8_t> bytes = encode_to_vector(data);
  const uint64_t key = pool_key_of(bytes.data(), bytes.size());
  record_ = new EntryRecord(std::move(data), std::move(bytes), key);
  ++record_->refs_;
}

void EntryRef::release(EntryRecord* record) {
  if (record->pool_ != nullptr) record->pool_->forget(record);
  delete record;
}

EntryPool::~EntryPool() {
  for (auto& [key, record] : records_) record->pool_ = nullptr;
}

size_t EntryPool::live_bytes() const {
  size_t total = 0;
  for (const auto& [key, record] : records_) total += record->bytes_.size();
  return total;
}

EntryRef EntryPool::find(uint64_t key, const uint8_t* bytes,
                         size_t size) const {
  auto [it, end] = records_.equal_range(key);
  for (; it != end; ++it) {
    const std::vector<uint8_t>& held = it->second->bytes_;
    if (held.size() == size && std::memcmp(held.data(), bytes, size) == 0) {
      return EntryRef(it->second);
    }
  }
  return {};
}

EntryRef EntryPool::adopt(EntryData data, std::vector<uint8_t> bytes,
                          uint64_t key) {
  auto* record = new EntryRecord(std::move(data), std::move(bytes), key);
  record->pool_ = this;
  records_.emplace(key, record);
  return EntryRef(record);
}

EntryRef EntryPool::intern(const EntryData& data) {
  std::vector<uint8_t> bytes = encode_to_vector(data);
  const uint64_t key = pool_key_of(bytes.data(), bytes.size());
  if (EntryRef hit = find(key, bytes.data(), bytes.size())) return hit;
  return adopt(data, std::move(bytes), key);
}

// The hinted record's bytes are a complete canonical encoding B of its row
// D. The entry encoding is self-delimiting (fixed-width fields, length-
// prefixed strings, counted lists) and decode_entry is deterministic: what
// it reads next, and whether it stops, depends only on the bytes already
// read. So when the next |B| bytes of the input are B, decode_entry reads
// exactly those bytes, accepts, consumes |B| and yields D, whatever
// follows. The slow path below would then find B in the pool, and a pool
// holds one record per encoding: the hinted one. A hit therefore returns
// the same record and consumes the same bytes as the walk would, and a
// miss (a changed row, another node, a short input) just takes the walk.
EntryRef EntryPool::decode(WireReader& r) {
  if (r.ok()) {
    WireReader peek = r;
    const NodeId node = peek.u32();
    if (peek.ok()) {
      auto hint = hints_.find(node);
      if (hint != hints_.end()) {
        const std::vector<uint8_t>& held = hint->second->bytes_;
        if (r.remaining() >= held.size() &&
            std::memcmp(r.cursor(), held.data(), held.size()) == 0) {
          r.skip(held.size());
          return EntryRef(hint->second);
        }
      }
    }
  }
  EntryRef ref = decode_slow(r);
  if (ref) hints_.insert_or_assign(ref->node, ref.record_);
  return ref;
}

EntryRef EntryPool::decode_slow(WireReader& r) {
  const uint8_t* start = r.cursor();
  if (!skip_entry(r)) return {};
  const size_t size = static_cast<size_t>(r.cursor() - start);
  const uint64_t key = pool_key_of(start, size);
  if (EntryRef hit = find(key, start, size)) return hit;
  // Miss: materialize the row. The walk above accepted the slice, so the
  // decode does too.
  WireReader slice(start, size);
  std::optional<EntryData> data = decode_entry(slice);
  std::vector<uint8_t> bytes = encode_to_vector(*data);
  if (bytes.size() == size && std::memcmp(bytes.data(), start, size) == 0) {
    return adopt(std::move(*data), std::move(bytes), key);
  }
  // A non-canonical encoding (a repeated map key, an over-long varint)
  // decodes to a row whose own encoding differs; records always cache the
  // canonical one.
  const uint64_t canonical_key = pool_key_of(bytes.data(), bytes.size());
  if (EntryRef hit = find(canonical_key, bytes.data(), bytes.size())) {
    return hit;
  }
  return adopt(std::move(*data), std::move(bytes), canonical_key);
}

void EntryPool::forget(const EntryRecord* record) {
  auto hint = hints_.find(record->data_.node);
  if (hint != hints_.end() && hint->second == record) hints_.erase(hint);
  auto [it, end] = records_.equal_range(record->pool_key_);
  for (; it != end; ++it) {
    if (it->second == record) {
      records_.erase(it);
      return;
    }
  }
}

EntryRef decode_entry_ref(WireReader& r, EntryPool* pool) {
  if (pool != nullptr) return pool->decode(r);
  std::optional<EntryData> data = decode_entry(r);
  if (!data) return {};
  return EntryRef(std::move(*data));
}

void encode_entry(WireWriter& w, const EntryData& entry) {
  w.u32(entry.node);
  w.u64(entry.incarnation);
  w.u16(entry.machine.cpus);
  w.u32(entry.machine.memory_mb);
  w.str(entry.machine.os);
  w.varint(entry.services.size());
  for (const auto& service : entry.services) {
    w.str(service.name);
    w.varint(service.partitions.size());
    for (int partition : service.partitions) {
      w.varint(static_cast<uint64_t>(partition));
    }
    write_string_map(w, service.params);
  }
  write_string_map(w, entry.values);
}

void encode_entry(WireWriter& w, const EntryRef& entry) {
  w.bytes(entry.bytes().data(), entry.bytes().size());
}

std::optional<EntryData> decode_entry(WireReader& r) {
  EntryData entry;
  entry.node = r.u32();
  entry.incarnation = r.u64();
  entry.machine.cpus = r.u16();
  entry.machine.memory_mb = r.u32();
  entry.machine.os = r.str();
  uint64_t service_count = r.varint();
  for (uint64_t i = 0; i < service_count && r.ok(); ++i) {
    ServiceRegistration service;
    service.name = r.str();
    uint64_t partition_count = r.varint();
    for (uint64_t p = 0; p < partition_count && r.ok(); ++p) {
      service.partitions.push_back(static_cast<int>(r.varint()));
    }
    service.params = read_string_map(r);
    entry.services.push_back(std::move(service));
  }
  entry.values = read_string_map(r);
  if (!r.ok()) return std::nullopt;
  return entry;
}

size_t encoded_entry_size(const EntryData& entry) {
  WireWriter w;
  encode_entry(w, entry);
  return w.size();
}

uint64_t digest_row_hash(const EntryData& entry) {
  WireWriter w;
  encode_entry(w, entry);
  return digest_hash_of_encoding(w.view());
}

EntryData make_representative_entry(NodeId node, Incarnation incarnation) {
  EntryData entry;
  entry.node = node;
  entry.incarnation = incarnation;
  entry.machine = MachineInfo{2, 2048, "linux-2.4.20-smp-i686"};
  ServiceRegistration service;
  service.name = "retriever";
  service.partitions = {static_cast<int>(node % 5),
                        static_cast<int>(node % 5) + 5};
  service.params = {{"Port", "8080"}, {"Proto", "tcp"}};
  entry.services.push_back(std::move(service));
  entry.values = {
      {"hostname", util::strformat("node-%04u.dc.example.com", node)},
      {"rack", util::strformat("rack-%02u", node / 20)},
      {"version", "neptune-2.1.3"},
      {"methods", "search,retrieve,status"},
      {"uptime", "86400"},
  };
  return entry;
}

}  // namespace tamp::membership
