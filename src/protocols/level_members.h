// The members one hierarchical level hears directly on its channel (paper
// Section 3.1.2, Timeout sub-protocol): the soft state every heartbeat
// refreshes and the failure scan expires.
//
// Members live in a flat array sorted by node id, the shape of the paper's
// fixed-size membership records: a heartbeat is a binary search, and every
// walk (backup choice, scope re-probe, refresh scoping) runs in node-id
// order. The set also keeps a lower bound on the earliest last_heard, so a
// failure scan with nothing due costs O(1) instead of a walk per level
// every scan interval.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "membership/types.h"
#include "sim/time.h"

namespace tamp::protocols {

class LevelMembers {
 public:
  struct Member {
    membership::NodeId node = membership::kInvalidNode;
    sim::Time last_heard = 0;
    bool is_leader = false;
    membership::NodeId backup = membership::kInvalidNode;
  };

  const std::vector<Member>& all() const { return members_; }

 private:
  // Defined before its callers: they need its deduced return type.
  template <class Members>
  static auto lower_bound(Members& members, membership::NodeId node) {
    return std::lower_bound(
        members.begin(), members.end(), node,
        [](const Member& m, membership::NodeId n) { return m.node < n; });
  }

 public:
  bool contains(membership::NodeId node) const {
    auto it = lower_bound(members_, node);
    return it != members_.end() && it->node == node;
  }

  // Records `node` as heard at `now` with the given leader claim and
  // designated backup; returns true when it was not a member before.
  bool put(membership::NodeId node, sim::Time now, bool is_leader,
           membership::NodeId backup) {
    auto it = lower_bound(members_, node);
    const bool added = it == members_.end() || it->node != node;
    if (added) it = members_.insert(it, Member{node});
    *it = Member{node, now, is_leader, backup};
    earliest_ = std::min(earliest_, now);
    return added;
  }

  // Refreshes an existing member's stamp; no-op for a non-member. Time only
  // moves forward, so the lower bound stays valid without a walk.
  void touch(membership::NodeId node, sim::Time now) {
    auto it = lower_bound(members_, node);
    if (it != members_.end() && it->node == node) it->last_heard = now;
  }

  // Removes `node`; returns false when it was not a member. The lower bound
  // stays put (still a lower bound) until the next due scan tightens it.
  bool erase(membership::NodeId node) {
    auto it = lower_bound(members_, node);
    if (it == members_.end() || it->node != node) return false;
    members_.erase(it);
    return true;
  }

  const Member* find(membership::NodeId node) const {
    auto it = lower_bound(members_, node);
    return it != members_.end() && it->node == node ? &*it : nullptr;
  }

  void clear() {
    members_.clear();
    earliest_ = kNever;
  }

  // Members silent for longer than `timeout` at `now`, in node-id order.
  // The caller removes every member returned: the lower bound is re-tightened
  // over the others only, so a returned member that stayed would escape
  // later scans.
  std::vector<membership::NodeId> due(sim::Time now, sim::Duration timeout) {
    std::vector<membership::NodeId> out;
    if (now - earliest_ <= timeout) return out;
    earliest_ = kNever;
    for (const Member& m : members_) {
      if (now - m.last_heard > timeout) {
        out.push_back(m.node);
      } else {
        earliest_ = std::min(earliest_, m.last_heard);
      }
    }
    return out;
  }

 private:
  static constexpr sim::Time kNever = std::numeric_limits<sim::Time>::max();

  std::vector<Member> members_;  // sorted by node id
  sim::Time earliest_ = kNever;  // <= every member's last_heard
};

}  // namespace tamp::protocols
