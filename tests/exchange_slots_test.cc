// Unit tests of the hierarchical protocol's exchange slots (bootstrap and
// sync polls plus the image-serve admission window), without a network: the
// transmitter just records each poll.
#include "protocols/exchange_slots.h"

#include <gtest/gtest.h>

#include <vector>

namespace tamp::protocols {
namespace {

using membership::BusyKind;
using membership::NodeId;

constexpr NodeId kSelf = 1;
constexpr int kBudget = ExchangeSlots::kRetry.budget;

struct Poll {
  int level;
  BusyKind kind;
  NodeId target;
};

struct ExchangeSlotsTest : ::testing::Test {
  sim::Simulation sim{7};
  obs::Observability obs;
  std::vector<Poll> polls;
  ExchangeSlots slots{sim, obs, kSelf, sim::kSecond, /*serve_budget=*/2,
                      [this](int level, BusyKind kind, NodeId target) {
                        polls.push_back({level, kind, target});
                      }};

  size_t polls_to(int level, BusyKind kind, NodeId target) const {
    size_t n = 0;
    for (const Poll& poll : polls) {
      n += poll.level == level && poll.kind == kind && poll.target == target;
    }
    return n;
  }
  uint64_t counter(std::string_view name) const {
    return obs.metrics.counter_value(obs::Protocol::kHier, name, kSelf);
  }
  // Long enough for any slot to spend its whole budget.
  void run_out() { sim.run_until(sim.now() + 200 * sim::kSecond); }
};

// Retargeting the level's bootstrap slot (leadership moved) starts a fresh
// exchange: the new target gets the whole attempt budget, whatever the old
// one had used up.
TEST_F(ExchangeSlotsTest, RetargetResetsTheBudget) {
  EXPECT_TRUE(slots.open(0, BusyKind::kBootstrap, 5));
  sim.run_until(4 * sim::kSecond);
  ASSERT_GT(polls_to(0, BusyKind::kBootstrap, 5), 1u);
  EXPECT_TRUE(slots.open(0, BusyKind::kBootstrap, 5));  // in flight: no send
  const size_t to_old = polls_to(0, BusyKind::kBootstrap, 5);

  EXPECT_TRUE(slots.open(0, BusyKind::kBootstrap, 7));
  EXPECT_EQ(polls_to(0, BusyKind::kBootstrap, 7), 1u);
  run_out();
  EXPECT_EQ(polls_to(0, BusyKind::kBootstrap, 5), to_old);
  EXPECT_EQ(polls_to(0, BusyKind::kBootstrap, 7), static_cast<size_t>(kBudget));
  EXPECT_EQ(slots.pending(0), 1u);
  EXPECT_EQ(counter("exchange_budget_exhausted"), 1u);
}

// A slot that spends its budget is marked exhausted inside its own timer
// callback and must survive it (erasing it there would free the running
// timer — the address sanitizer build catches that). It keeps deduplicating
// until the next trigger drops it for the caller to escalate.
TEST_F(ExchangeSlotsTest, ExhaustedSlotSurvivesItsOwnTimerCallback) {
  EXPECT_TRUE(slots.open(2, BusyKind::kSync, 9));
  run_out();
  EXPECT_EQ(polls_to(2, BusyKind::kSync, 9), static_cast<size_t>(kBudget));
  EXPECT_EQ(counter("exchange_retries"), static_cast<uint64_t>(kBudget - 1));
  EXPECT_EQ(counter("exchange_budget_exhausted"), 1u);
  EXPECT_EQ(slots.pending(2), 1u);

  EXPECT_FALSE(slots.open(2, BusyKind::kSync, 9));  // dropped, nothing sent
  EXPECT_EQ(slots.pending(2), 0u);
  EXPECT_EQ(polls.size(), static_cast<size_t>(kBudget));
  EXPECT_TRUE(slots.open(2, BusyKind::kSync, 9));  // a fresh exchange
  EXPECT_EQ(polls.size(), static_cast<size_t>(kBudget) + 1);
}

// A Busy answer postpones the next poll without consuming an attempt, and
// only the slot's own target can defer it.
TEST_F(ExchangeSlotsTest, BusyDeferralUsesNoAttempt) {
  EXPECT_TRUE(slots.open(0, BusyKind::kSync, 9));
  EXPECT_TRUE(slots.open(0, BusyKind::kBootstrap, 5));
  for (int i = 0; i < 10; ++i) {
    slots.defer(0, BusyKind::kSync, 9, 3 * sim::kSecond);
    slots.defer(0, BusyKind::kBootstrap, 5, 3 * sim::kSecond);
    sim.run_until(sim.now() + 2 * sim::kSecond);
  }
  EXPECT_EQ(polls.size(), 2u);  // every retry was pushed out
  EXPECT_EQ(counter("busy_deferrals"), 20u);

  slots.defer(0, BusyKind::kBootstrap, 6, 3 * sim::kSecond);  // not the target
  slots.defer(1, BusyKind::kSync, 9, 3 * sim::kSecond);       // no such slot
  EXPECT_EQ(counter("busy_deferrals"), 20u);

  run_out();
  EXPECT_EQ(polls_to(0, BusyKind::kSync, 9), static_cast<size_t>(kBudget));
  EXPECT_EQ(polls_to(0, BusyKind::kBootstrap, 5),
            static_cast<size_t>(kBudget));
}

// A member that dies or leaves takes both kinds of slot aimed at it on that
// level with it; other targets and other levels keep polling.
TEST_F(ExchangeSlotsTest, PruningAMemberDropsBothKinds) {
  slots.open(0, BusyKind::kBootstrap, 5);
  slots.open(0, BusyKind::kSync, 5);
  slots.open(0, BusyKind::kSync, 6);
  slots.open(1, BusyKind::kSync, 5);
  EXPECT_EQ(slots.pending(0), 3u);
  slots.prune(0, 5);
  EXPECT_EQ(slots.pending(0), 1u);
  EXPECT_EQ(slots.pending(1), 1u);

  run_out();
  EXPECT_EQ(polls_to(0, BusyKind::kBootstrap, 5), 1u);
  EXPECT_EQ(polls_to(0, BusyKind::kSync, 5), 1u);
  EXPECT_EQ(polls_to(0, BusyKind::kSync, 6), static_cast<size_t>(kBudget));
  EXPECT_EQ(polls_to(1, BusyKind::kSync, 5), static_cast<size_t>(kBudget));

  // Closing answers one exchange; the bootstrap slot closes whoever answers.
  slots.open(3, BusyKind::kBootstrap, 5);
  slots.open(3, BusyKind::kSync, 6);
  slots.close(3, BusyKind::kBootstrap, 8);
  EXPECT_EQ(slots.pending(3), 1u);
  slots.clear(3);
  EXPECT_EQ(slots.pending(3), 0u);
}

// The serve window admits `serve_budget` images per period; each refusal in
// a window is pointed one budget-slot further out.
TEST_F(ExchangeSlotsTest, ServeWindowStaggersRefusals) {
  sim.run_until(sim::kSecond + 250 * sim::kMillisecond);
  EXPECT_TRUE(slots.admit_serve());
  EXPECT_TRUE(slots.admit_serve());
  EXPECT_FALSE(slots.admit_serve());
  const sim::Duration until_next = sim::kSecond;  // window opened just now
  EXPECT_EQ(slots.busy_retry_after(), until_next);
  EXPECT_EQ(slots.busy_retry_after(), until_next);
  EXPECT_EQ(slots.busy_retry_after(), until_next + sim::kSecond);
  sim.run_until(sim.now() + sim::kSecond);
  EXPECT_TRUE(slots.admit_serve());
}

}  // namespace
}  // namespace tamp::protocols
