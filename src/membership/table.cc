#include "membership/table.h"

#include <algorithm>
#include <bit>
#include <regex>
#include <string_view>

#include "util/strings.h"

namespace tamp::membership {

namespace {

bool row_before(const MembershipTable::Row& row, NodeId node) {
  return row.first < node;
}

// A pattern with no ECMAScript metacharacter matches exactly the string it
// spells, so regex_match against it is plain equality.
bool is_exact_name(std::string_view pattern) {
  return pattern.find_first_of("^$\\.*+?()[]{}|") == std::string_view::npos;
}

// lower_bound over a sorted row vector; returns end() if absent.
template <typename Vec>
auto locate(Vec& rows, NodeId node) {
  auto it = std::lower_bound(rows.begin(), rows.end(), node, row_before);
  if (it != rows.end() && it->first == node) return it;
  return rows.end();
}

// Finds rows of a sorted vector for a sequence of ids. Each seek searches
// from where the previous one stopped, so ascending ids make one forward
// pass; a seek at or below the previous id searches from the front.
class RowCursor {
 public:
  explicit RowCursor(std::vector<MembershipTable::Row>& rows)
      : begin_(rows.begin()), end_(rows.end()), at_(rows.begin()) {}

  MembershipEntry* seek(NodeId node) {
    if (at_ != begin_ && std::prev(at_)->first >= node) at_ = begin_;
    at_ = std::lower_bound(at_, end_, node, row_before);
    if (at_ != end_ && at_->first == node) return &(at_++)->second;
    return nullptr;
  }

 private:
  using Iter = std::vector<MembershipTable::Row>::iterator;
  Iter begin_;
  Iter end_;
  Iter at_;  // rows before it are below every id sought since the reset
};

}  // namespace

void MembershipTable::flush() const {
  if (overlay_.empty()) return;
  index_dirty_ = true;  // the merge moves rows
  const size_t mid = entries_.size();
  // A batch merged at once (a bootstrap image that waited in the overlay)
  // would leave the main vector exactly full, and the next single insert
  // would double it. Reserve the power of two that one-row growth reaches.
  entries_.reserve(std::bit_ceil(mid + overlay_.size()));
  entries_.insert(entries_.end(), std::make_move_iterator(overlay_.begin()),
                  std::make_move_iterator(overlay_.end()));
  std::inplace_merge(
      entries_.begin(), entries_.begin() + static_cast<ptrdiff_t>(mid),
      entries_.end(),
      [](const Row& a, const Row& b) { return a.first < b.first; });
  // Hand a batch-sized overlay's storage back rather than keep it in every
  // table.
  if (overlay_.capacity() > kOverlayKept) {
    std::vector<Row>().swap(overlay_);
  } else {
    overlay_.clear();
  }
}

MembershipEntry* MembershipTable::find_mutable(NodeId node) {
  auto it = locate(entries_, node);
  if (it != entries_.end()) return &it->second;
  auto ov = locate(overlay_, node);
  if (ov != overlay_.end()) return &ov->second;
  return nullptr;
}

bool MembershipTable::tombstoned(NodeId node, Incarnation incarnation,
                                 sim::Time now) const {
  auto it = tombstones_.find(node);
  return it != tombstones_.end() && now < it->second.expires &&
         incarnation <= it->second.incarnation;
}

ApplyResult MembershipTable::apply(const EntryRef& row, Liveness liveness,
                                   NodeId relayed_by, sim::Time now,
                                   bool override_tombstone) {
  const NodeId node = row->node;
  const Incarnation incarnation = row->incarnation;
  if (liveness == Liveness::kDirect || override_tombstone) {
    // Hearing the node itself (or a solicited full exchange) is
    // authoritative: clear any tombstone.
    tombstones_.erase(node);
  } else if (tombstoned(node, incarnation, now)) {
    return ApplyResult::kStale;
  }
  return apply_at(find_mutable(node), row, liveness, relayed_by, now);
}

ApplyResult MembershipTable::apply_at(MembershipEntry* existing,
                                      const EntryRef& row, Liveness liveness,
                                      NodeId relayed_by, sim::Time now) {
  const NodeId node = row->node;
  const Incarnation incarnation = row->incarnation;
  if (existing == nullptr) {
    MembershipEntry entry;
    entry.data = row;
    entry.liveness = liveness;
    entry.relayed_by = relayed_by;
    entry.last_heard = now;
    entry.first_seen = now;
    auto pos =
        std::lower_bound(overlay_.begin(), overlay_.end(), node, row_before);
    overlay_.emplace(pos, node, std::move(entry));
    return ApplyResult::kAdded;
  }

  MembershipEntry& entry = *existing;
  if (incarnation < entry.data->incarnation) return ApplyResult::kStale;

  // A direct observation always wins over a relayed one; a relayed record
  // of the same incarnation must not downgrade a direct entry's liveness
  // (its content still refreshes, e.g. a value update relayed before the
  // next direct heartbeat).
  const bool keep_direct = liveness != Liveness::kDirect &&
                           entry.liveness == Liveness::kDirect &&
                           incarnation == entry.data->incarnation;
  // A newer incarnation always differs in content, so equality alone tells
  // a refresh from an update. A refresh keeps the held handle: the name
  // index stays valid.
  ApplyResult result = ApplyResult::kRefreshed;
  if (!(entry.data == row)) {
    result = ApplyResult::kUpdated;
    entry.data = row;
    index_dirty_ = true;
  }
  entry.last_heard = now;
  if (!keep_direct) {
    entry.liveness = liveness;
    entry.relayed_by = relayed_by;
  }
  return result;
}

bool MembershipTable::remove(NodeId node, Incarnation incarnation,
                             sim::Time now) {
  flush();
  auto it = locate(entries_, node);
  if (it != entries_.end() && it->second.data->incarnation > incarnation) {
    return false;  // we know a newer life of this node
  }
  Tombstone& tomb = tombstones_[node];
  tomb.incarnation = std::max(tomb.incarnation, incarnation);
  tomb.expires = now + tombstone_ttl_;
  // Opportunistic GC of expired tombstones keeps the map bounded.
  for (auto t = tombstones_.begin(); t != tombstones_.end();) {
    if (now >= t->second.expires) {
      t = tombstones_.erase(t);
    } else {
      ++t;
    }
  }
  if (it == entries_.end()) return false;
  entries_.erase(it);
  index_dirty_ = true;
  return true;
}

void MembershipTable::touch(NodeId node, sim::Time now) {
  MembershipEntry* entry = find_mutable(node);
  if (entry != nullptr) entry->last_heard = now;
}

void MembershipTable::reconfirm_relays(const std::vector<NodeId>& nodes,
                                       NodeId relayed_by, NodeId owner,
                                       sim::Time now) {
  // One cursor per sorted half, so an ascending list costs one pass.
  RowCursor main(entries_);
  RowCursor pending(overlay_);
  for (NodeId node : nodes) {
    if (node == relayed_by || node == owner) continue;
    MembershipEntry* entry = main.seek(node);
    if (entry == nullptr) entry = pending.seek(node);
    if (entry == nullptr || entry->liveness != Liveness::kRelayed) continue;
    entry->relayed_by = relayed_by;
    entry->last_heard = now;
  }
}

void MembershipTable::demote_to_relayed(NodeId node, NodeId relayed_by) {
  MembershipEntry* entry = find_mutable(node);
  if (entry != nullptr && entry->liveness == Liveness::kDirect) {
    entry->liveness = Liveness::kRelayed;
    entry->relayed_by = relayed_by;
  }
}

const MembershipEntry* MembershipTable::find(NodeId node) const {
  flush();
  auto it = locate(entries_, node);
  return it == entries_.end() ? nullptr : &it->second;
}

bool MembershipTable::contains(NodeId node) const {
  return locate(entries_, node) != entries_.end() ||
         locate(overlay_, node) != overlay_.end();
}

std::vector<NodeId> MembershipTable::node_ids() const {
  flush();
  std::vector<NodeId> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  return ids;
}

void MembershipTable::rebuild_index() const {
  // Names keep their slot (and its capacity) across rebuilds; only names no
  // row registers any more are dropped.
  for (auto& [name, hits] : name_index_) hits.clear();
  for (uint32_t row = 0; row < entries_.size(); ++row) {
    const auto& services = entries_[row].second.data->services;
    for (uint32_t i = 0; i < services.size(); ++i) {
      name_index_[services[i].name].push_back({row, i});
    }
  }
  std::erase_if(name_index_,
                [](const auto& slot) { return slot.second.empty(); });
  index_dirty_ = false;
}

std::vector<const MembershipEntry*> MembershipTable::lookup(
    const std::string& service_regex,
    const std::string& partition_spec) const {
  flush();
  std::vector<const MembershipEntry*> out;
  auto wanted = util::expand_partition_spec(partition_spec);
  auto partition_ok = [&wanted](const ServiceRegistration& service) {
    if (!wanted) return true;  // "*": any partition set
    for (int p : service.partitions) {
      if (std::binary_search(wanted->begin(), wanted->end(), p)) return true;
    }
    return false;
  };

  if (is_exact_name(service_regex)) {
    if (index_dirty_) rebuild_index();
    auto slot = name_index_.find(service_regex);
    if (slot == name_index_.end()) return out;
    for (const IndexHit& hit : slot->second) {
      const MembershipEntry& entry = entries_[hit.row].second;
      // A row registering the name twice is listed once.
      if (!out.empty() && out.back() == &entry) continue;
      if (partition_ok(entry.data->services[hit.service])) {
        out.push_back(&entry);
      }
    }
    return out;
  }

  std::regex pattern;
  try {
    pattern = std::regex(service_regex);
  } catch (const std::regex_error&) {
    return out;  // malformed pattern matches nothing
  }
  for (const auto& [id, entry] : entries_) {
    for (const auto& service : entry.data->services) {
      if (std::regex_match(service.name, pattern) && partition_ok(service)) {
        out.push_back(&entry);
        break;
      }
    }
  }
  return out;
}

std::vector<NodeId> MembershipTable::expire(
    sim::Time now,
    const std::function<sim::Duration(const MembershipEntry&)>& timeout_for) {
  flush();
  std::vector<NodeId> expired;
  auto keep = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    sim::Duration timeout = timeout_for(it->second);
    if (timeout >= 0 && now - it->second.last_heard > timeout) {
      expired.push_back(it->first);
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  entries_.erase(keep, entries_.end());
  if (!expired.empty()) index_dirty_ = true;
  return expired;
}

std::vector<NodeId> MembershipTable::purge_relayed_by(NodeId leader) {
  flush();
  std::vector<NodeId> purged;
  auto keep = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.liveness == Liveness::kRelayed &&
        it->second.relayed_by == leader) {
      purged.push_back(it->first);
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  entries_.erase(keep, entries_.end());
  if (!purged.empty()) index_dirty_ = true;
  return purged;
}

void MembershipTable::clear() {
  entries_.clear();
  overlay_.clear();
  tombstones_.clear();
  index_dirty_ = true;
}

}  // namespace tamp::membership
