// The hierarchical protocol's solicited request/response exchanges —
// bootstrap polls (Bootstrap sub-protocol) and sync polls (Message-Loss
// Detection) — plus the admission window that paces the full-image serves
// answering them.
//
// Each unanswered poll holds one slot: its target, the sends it consumed,
// and a retry timer. A level has at most one bootstrap slot (a new leader
// retargets it) and one sync slot per polled origin. A slot that spends its
// attempt budget is marked exhausted and stays, deduplicating further
// triggers, until the next trigger drops it and the caller escalates (or a
// pruning event clears it) — never from inside its own timer callback.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <map>

#include "membership/messages.h"
#include "obs/obs.h"
#include "sim/timer.h"
#include "util/retry.h"

namespace tamp::protocols {

class ExchangeSlots {
 public:
  // Polls are retried under this policy until answered; at budget
  // exhaustion the requester escalates instead (bootstrap: wait for the next
  // leader claim; sync: anchor past the gap and let the anti-entropy refresh
  // repair it).
  static constexpr util::RetryPolicy kRetry{sim::kSecond, 8 * sim::kSecond};

  // Transmits one poll: called for the first send and for every retry.
  using Send = std::function<void(int level, membership::BusyKind kind,
                                  membership::NodeId target)>;

  // `serve_budget` full-image serves are admitted per `period` (0 =
  // unlimited). Counters and trace records are {kHier, <name>, self}.
  ExchangeSlots(sim::Simulation& sim, obs::Observability& obs,
                membership::NodeId self, sim::Duration period,
                size_t serve_budget, Send send)
      : sim_(sim),
        obs_(obs),
        self_(self),
        period_(period),
        serve_budget_(serve_budget),
        send_(std::move(send)),
        retries_(counter("exchange_retries")),
        budget_exhausted_(counter("exchange_budget_exhausted")),
        busy_deferrals_(counter("busy_deferrals")) {}
  ExchangeSlots(const ExchangeSlots&) = delete;
  ExchangeSlots& operator=(const ExchangeSlots&) = delete;

  // Opens the level's bootstrap exchange towards `target`, or a sync
  // exchange towards `target`, and sends its first poll — unless a poll to
  // that target is already in flight. Retargeting the bootstrap slot gives
  // it a full attempt budget: the budget is per exchange. Returns false, and
  // sends nothing, when the slot had spent its budget: the slot is dropped
  // and the caller escalates.
  bool open(int level, membership::BusyKind kind, membership::NodeId target) {
    const Key k = key(level, kind, target);
    auto it = slots_.find(k);
    if (it == slots_.end()) {
      it = slots_.try_emplace(k, sim_, [this, k] { retry(k); }).first;
    } else if (it->second.exhausted) {
      slots_.erase(it);
      return false;
    } else if (it->second.target == target) {
      return true;
    }
    it->second.target = target;
    it->second.attempts = 0;
    send(k, it->second);
    return true;
  }

  // The exchange was answered; the bootstrap slot closes whoever answered.
  void close(int level, membership::BusyKind kind, membership::NodeId peer) {
    slots_.erase(key(level, kind, peer));
  }

  // Drops the level's slots aimed at a member that died or left.
  void prune(int level, membership::NodeId member) {
    std::erase_if(slots_, [&](const auto& slot) {
      return slot.first.level == level && slot.second.target == member;
    });
  }

  void clear(int level) {
    std::erase_if(slots_,
                  [&](const auto& slot) { return slot.first.level == level; });
  }

  // Slots at `level`, exhausted ones included.
  size_t pending(int level) const {
    return static_cast<size_t>(std::count_if(
        slots_.begin(), slots_.end(),
        [&](const auto& slot) { return slot.first.level == level; }));
  }

  // A Busy answer from `responder`: postpone the slot's next poll past
  // `retry_after`, without consuming an attempt. The jitter spreads
  // requesters that were handed the same retry_after.
  void defer(int level, membership::BusyKind kind, membership::NodeId responder,
             sim::Duration retry_after) {
    auto it = slots_.find(key(level, kind, responder));
    if (it == slots_.end() || it->second.exhausted ||
        it->second.target != responder) {
      return;
    }
    busy_deferrals_->add();
    trace(obs::TraceKind::kBusyDeferral, level, responder,
          static_cast<uint64_t>(retry_after));
    const auto jitter = static_cast<sim::Duration>(
        sim_.rng().uniform_u64(static_cast<uint64_t>(period_ / 2) + 1));
    it->second.timer.restart(std::max<sim::Duration>(retry_after, 1) + jitter);
  }

  // Admission control for O(N) full-image serves: true while the current
  // period's budget lasts. The window is daemon-wide: the expensive part of
  // a serve is the same full view whatever level asked for it.
  bool admit_serve() {
    if (serve_budget_ == 0) return true;
    if (sim_.now() - window_start_ >= period_) {
      window_start_ = sim_.now();
      serves_window_ = 0;
      deferrals_window_ = 0;
    }
    if (serves_window_ >= serve_budget_) return false;
    ++serves_window_;
    return true;
  }

  // The retry_after for a refused serve. Deterministic stagger: successive
  // refusals within one window are pointed at successively later windows,
  // so a backlog of B requesters drains at `serve_budget` serves per period
  // instead of all B re-colliding at the window rollover.
  sim::Duration busy_retry_after() {
    const auto windows_ahead =
        static_cast<sim::Duration>(deferrals_window_++ / serve_budget_);
    return window_start_ + period_ - sim_.now() + windows_ahead * period_;
  }

 private:
  struct Key {
    int level;
    membership::BusyKind kind;
    membership::NodeId peer;  // kInvalidNode for the level's bootstrap slot
    auto operator<=>(const Key&) const = default;
  };
  struct Slot {
    Slot(sim::Simulation& sim, std::function<void()> fn)
        : timer(sim, std::move(fn)) {}
    membership::NodeId target = membership::kInvalidNode;
    int attempts = 0;
    bool exhausted = false;
    sim::OneShotTimer timer;
  };

  static Key key(int level, membership::BusyKind kind,
                 membership::NodeId peer) {
    const bool bootstrap = kind == membership::BusyKind::kBootstrap;
    return Key{level, kind, bootstrap ? membership::kInvalidNode : peer};
  }

  obs::Counter* counter(std::string_view name) {
    return obs_.metrics.counter(obs::Protocol::kHier, name, self_);
  }

  void trace(obs::TraceKind kind, int level, uint64_t a, uint64_t b = 0) {
    obs_.tracer.record(kind, self_, sim_.now(), level, a, b);
  }

  void send(const Key& k, Slot& slot) {
    send_(k.level, k.kind, slot.target);
    slot.timer.restart(kRetry.delay(slot.attempts, sim_.rng()));
    ++slot.attempts;
  }

  // The slot's timer fired unanswered: poll again, or mark the slot
  // exhausted once the budget is spent. The slot must survive this
  // callback — destroying it here would free the running timer.
  void retry(const Key& k) {
    Slot& slot = slots_.at(k);
    if (kRetry.exhausted(slot.attempts)) {
      slot.exhausted = true;
      budget_exhausted_->add();
      trace(obs::TraceKind::kBudgetExhausted, k.level, slot.target);
      return;
    }
    retries_->add();
    trace(obs::TraceKind::kRetry, k.level, slot.target,
          static_cast<uint64_t>(slot.attempts));
    send(k, slot);
  }

  sim::Simulation& sim_;
  obs::Observability& obs_;
  membership::NodeId self_;
  sim::Duration period_;
  size_t serve_budget_;
  Send send_;
  std::map<Key, Slot> slots_;
  obs::Counter* retries_;
  obs::Counter* budget_exhausted_;
  obs::Counter* busy_deferrals_;
  sim::Time window_start_ = 0;
  size_t serves_window_ = 0;
  uint64_t deferrals_window_ = 0;
};

}  // namespace tamp::protocols
