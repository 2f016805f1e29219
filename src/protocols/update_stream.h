// One channel's update stream in the hierarchical protocol (paper Section
// 3.1.2, Update and Message-Loss Detection sub-protocols).
//
// Outbound, a node stamps the records it emits on a channel with its own
// increasing sequence numbers and keeps a short log of them, so that each
// update message can piggyback the previous `piggyback` records: up to that
// many consecutive losses are absorbed by the next message. Inbound, it
// keeps one cursor per origin, scoped by the origin's incarnation, and
// judges each arriving update against it: in order, a gap the piggyback
// covers, or a gap only a full-image sync can repair.
//
// The stream also owns the deafness guard: a node that heard nothing on the
// channel for longer than the level's failure timeout has been timed out by
// every peer, so the backlog it stamped while cut off (chiefly the leaves of
// nodes it could no longer hear) is dropped instead of replayed.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "membership/messages.h"
#include "obs/obs.h"
#include "sim/time.h"

namespace tamp::protocols {

class UpdateStream {
 public:
  // `deaf_after` is the level's failure timeout. The counters record
  // records compacted out of the log, backlogs dropped by the deafness
  // guard, and gaps the piggyback filled; the levels of one daemon share
  // them.
  UpdateStream(int piggyback, sim::Duration deaf_after,
               obs::Counter* compacted, obs::Counter* deaf_dropped,
               obs::Counter* gaps_recovered)
      : piggyback_(piggyback),
        deaf_after_(deaf_after),
        compacted_(compacted),
        deaf_dropped_(deaf_dropped),
        gaps_recovered_(gaps_recovered) {}

  // --- outbound ------------------------------------------------------------
  // Highest sequence number stamped so far. It never falls back, not even
  // across leaving and rejoining the channel: receivers' cursors must never
  // observe a regression.
  uint64_t seq() const { return out_seq_; }

  // A packet arrived on the channel at `now` (joining counts too): runs the
  // deafness guard, then restarts the deafness clock.
  void heard(sim::Time now) {
    drop_if_deaf(now);
    last_received_ = now;
  }

  // Stamps `batch` with the next sequence numbers and `epoch`, compacts the
  // log, and returns the update that carries the batch plus up to
  // `piggyback` earlier records, with window_base set. The origin fields are
  // the caller's to fill.
  membership::UpdateMsg stamp(
      const std::vector<membership::UpdateRecord>& batch,
      membership::Epoch epoch, sim::Time now) {
    // Timer-driven emissions (a refresh can fire after a resume before any
    // packet has arrived) get the same guard as arrivals.
    drop_if_deaf(now);
    membership::UpdateMsg msg;
    msg.epoch = epoch;
    // Piggyback the previous records (newest first) after the new batch.
    const size_t prior =
        std::min<size_t>(static_cast<size_t>(piggyback_), out_log_.size());
    for (const auto& record : batch) {
      out_log_.push_front(record);
      out_log_.front().seq = ++out_seq_;
      out_log_.front().epoch = epoch;
    }
    // Compaction: a record shadowed by a newer record for the same subject
    // at an incarnation at least as new is dead weight — the shadower alone
    // produces the same final table state at every receiver. Coalescing lets
    // the bounded log cover a longer seq window, so fewer losses escalate to
    // full-image syncs. The holes this opens are safe for window_base: the
    // shadower sits at a higher seq in the same log, so any compacted seq
    // inside a sent window is covered by a record in that window.
    std::map<membership::NodeId, membership::Incarnation> newest;
    for (auto it = out_log_.begin(); it != out_log_.end();) {
      auto seen = newest.find(it->subject);
      if (seen != newest.end() && it->incarnation <= seen->second) {
        it = out_log_.erase(it);
        compacted_->add();
      } else {
        auto& inc = newest[it->subject];
        inc = std::max(inc, it->incarnation);
        ++it;
      }
    }
    const size_t send = std::min(batch.size() + prior, out_log_.size());
    msg.records.assign(out_log_.begin(), out_log_.begin() + send);
    // Everything above window_base that still matters rides in this
    // message: either the next retained-but-unsent record's seq, or the trim
    // watermark when the whole log fits.
    msg.window_base =
        send < out_log_.size() ? out_log_[send].seq : out_log_base_;
    while (out_log_.size() > static_cast<size_t>(std::max(piggyback_ + 1, 8))) {
      out_log_base_ = std::max(out_log_base_, out_log_.back().seq);
      out_log_.pop_back();
    }
    return msg;
  }

  // Drops the log and raises the trim watermark to seq(), so receivers
  // behind seq() are forced onto the full-image path.
  void clear_log() {
    out_log_.clear();
    out_log_base_ = out_seq_;
  }

  // Leaving the channel: the log and every cursor go, seq() stays.
  void reset() {
    in_seq_.clear();
    clear_log();
  }

  // --- inbound -------------------------------------------------------------
  enum class Verdict : uint8_t {
    kFirstContact,  // no cursor for this life yet: accept all, anchor
    kOldLife,       // from an earlier incarnation of the origin: drop
    kDuplicate,     // nothing newer than the cursor: drop
    kInOrder,       // continues the cursor
    kRecovered,     // a gap the piggybacked history fills
    kNeedsSync,     // history below window_base was trimmed: poll an image
  };
  struct Receipt {
    Verdict verdict;
    // The carried records to apply, oldest first: all of them on first
    // contact, those above the cursor otherwise, none on a drop.
    std::vector<const membership::UpdateRecord*> fresh;
  };

  // Judges a non-empty update. Advances the origin's cursor to the newest
  // carried record, except on a drop and on kNeedsSync: there the cursor
  // stays put so the gap stays visible until a sync lands.
  Receipt receive(const membership::UpdateMsg& msg) {
    Receipt receipt{Verdict::kFirstContact, {}};
    for (const auto& record : msg.records) receipt.fresh.push_back(&record);
    std::sort(receipt.fresh.begin(), receipt.fresh.end(),
              [](const auto* a, const auto* b) { return a->seq < b->seq; });
    const uint64_t newest = receipt.fresh.back()->seq;
    Cursor* cursor = find(msg.origin);
    if (cursor == nullptr || cursor->incarnation < msg.origin_incarnation) {
      // First contact with this origin's stream on this channel (or the
      // origin restarted and its sequence numbers start over): there is no
      // history to have lost.
      put(msg.origin, Cursor{msg.origin_incarnation, newest});
      return receipt;
    }
    if (cursor->incarnation > msg.origin_incarnation) {
      return {Verdict::kOldLife, {}};
    }
    const uint64_t known = cursor->seq;
    if (newest <= known) {
      receipt.verdict = Verdict::kDuplicate;
    } else if (msg.window_base > known) {
      // Records in (known, window_base] were trimmed out of the origin's
      // bounded log — unrecoverable even with the piggybacked history.
      // Holes above window_base are compaction, not loss (the shadowing
      // record is in the message).
      receipt.verdict = Verdict::kNeedsSync;
    } else {
      receipt.verdict =
          known + 1 < newest ? Verdict::kRecovered : Verdict::kInOrder;
      if (receipt.verdict == Verdict::kRecovered) gaps_recovered_->add();
      cursor->seq = newest;
    }
    std::erase_if(receipt.fresh,
                  [known](const auto* record) { return record->seq <= known; });
    return receipt;
  }

  // An origin advertises its stream position (heartbeat). Anchors a first
  // contact; returns true when the cursor of the same life lags behind it,
  // i.e. updates were lost with nothing since to expose the gap.
  bool lags(membership::NodeId origin, membership::Incarnation incarnation,
            uint64_t advertised) {
    const Cursor* cursor = find(origin);
    if (cursor != nullptr && cursor->incarnation == incarnation) {
      return advertised > cursor->seq;
    }
    anchor(origin, incarnation, advertised);
    return false;
  }

  // Moves the origin's cursor up to (incarnation, seq) — a newer life, or a
  // later position of the same life; never backwards.
  void anchor(membership::NodeId origin, membership::Incarnation incarnation,
              uint64_t seq) {
    const Cursor next{incarnation, seq};
    const Cursor* cursor = find(origin);
    if (cursor == nullptr || *cursor < next) put(origin, next);
  }

  // The origin's cursor position (0 when there is none).
  uint64_t cursor(membership::NodeId origin) const {
    const Cursor* cursor = find(origin);
    return cursor != nullptr ? cursor->seq : 0;
  }

 private:
  void drop_if_deaf(sim::Time now) {
    if (last_received_ > 0 && !out_log_.empty() &&
        now - last_received_ > deaf_after_) {
      clear_log();
      deaf_dropped_->add();
    }
  }

  struct Cursor {
    membership::Incarnation incarnation = 0;
    uint64_t seq = 0;
    auto operator<=>(const Cursor&) const = default;  // life first
  };
  using CursorSlot = std::pair<membership::NodeId, Cursor>;

  // in_seq_ is a flat array sorted by origin: a heartbeat's lag check is a
  // binary search over the few origins a channel's group holds.
  static bool before(const CursorSlot& slot, membership::NodeId origin) {
    return slot.first < origin;
  }
  template <class Slots>
  static auto* find_in(Slots& slots, membership::NodeId origin) {
    auto it = std::lower_bound(slots.begin(), slots.end(), origin, before);
    return it != slots.end() && it->first == origin ? &it->second : nullptr;
  }
  Cursor* find(membership::NodeId origin) { return find_in(in_seq_, origin); }
  const Cursor* find(membership::NodeId origin) const {
    return find_in(in_seq_, origin);
  }
  void put(membership::NodeId origin, Cursor cursor) {
    auto it = std::lower_bound(in_seq_.begin(), in_seq_.end(), origin, before);
    if (it != in_seq_.end() && it->first == origin) {
      it->second = cursor;
    } else {
      in_seq_.insert(it, CursorSlot{origin, cursor});
    }
  }

  int piggyback_;
  sim::Duration deaf_after_;
  obs::Counter* compacted_;
  obs::Counter* deaf_dropped_;
  obs::Counter* gaps_recovered_;
  sim::Time last_received_ = 0;  // last packet heard on the channel
  uint64_t out_seq_ = 0;
  std::deque<membership::UpdateRecord> out_log_;  // newest at front
  // Highest seq ever trimmed (popped or cleared) out of the log. Records
  // compacted away as shadowed do NOT raise it: their shadower is still in
  // the log at a higher seq and covers them. Feeds UpdateMsg::window_base so
  // receivers can tell a compaction hole (fine) from trimmed-away history
  // (needs a full-image sync).
  uint64_t out_log_base_ = 0;
  // One cursor per origin ever heard on the channel, sorted by origin. A
  // cursor outlives the origin's membership of the group: only reset()
  // (leaving the channel) drops them.
  std::vector<CursorSlot> in_seq_;
};

}  // namespace tamp::protocols
