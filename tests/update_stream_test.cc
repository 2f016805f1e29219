// Unit tests of the hierarchical protocol's update stream, without a
// network: one UpdateStream stamps, another receives what it stamped.
#include "protocols/update_stream.h"

#include <gtest/gtest.h>

#include <vector>

namespace tamp::protocols {
namespace {

using membership::NodeId;
using membership::UpdateMsg;
using membership::UpdateRecord;
using Verdict = UpdateStream::Verdict;

constexpr NodeId kOrigin = 1;
constexpr sim::Duration kDeafAfter = 5 * sim::kSecond;

UpdateRecord join(NodeId subject, membership::Incarnation incarnation = 1) {
  UpdateRecord record;
  record.kind = membership::UpdateKind::kJoin;
  record.subject = subject;
  record.incarnation = incarnation;
  return record;
}

std::vector<uint64_t> seqs(const std::vector<UpdateRecord>& records) {
  std::vector<uint64_t> out;
  for (const auto& record : records) out.push_back(record.seq);
  return out;
}

std::vector<uint64_t> seqs(const UpdateStream::Receipt& receipt) {
  std::vector<uint64_t> out;
  for (const auto* record : receipt.fresh) out.push_back(record->seq);
  return out;
}

struct UpdateStreamTest : ::testing::Test {
  obs::Counter compacted, deaf_dropped, gaps_recovered;
  UpdateStream out{/*piggyback=*/3, kDeafAfter, &compacted, &deaf_dropped,
                   &gaps_recovered};
  UpdateStream in{/*piggyback=*/3, kDeafAfter, &compacted, &deaf_dropped,
                  &gaps_recovered};

  UpdateMsg stamp(const std::vector<UpdateRecord>& batch,
                  membership::Incarnation incarnation = 1) {
    UpdateMsg msg = out.stamp(batch, /*epoch=*/1, /*now=*/sim::kSecond);
    msg.origin = kOrigin;
    msg.origin_incarnation = incarnation;
    return msg;
  }
};

// A record shadowed by a newer one for the same subject is compacted out of
// the log, leaving a hole in the sent seqs. The hole sits above window_base,
// so a receiver behind it recovers from the piggyback alone.
TEST_F(UpdateStreamTest, CompactionHoleIsNotLoss) {
  stamp({join(10)});                       // seq 1
  stamp({join(11)});                       // seq 2
  UpdateMsg third = stamp({join(10, 2)});  // seq 3 shadows seq 1
  EXPECT_EQ(seqs(third.records), (std::vector<uint64_t>{3, 2}));
  EXPECT_EQ(third.window_base, 0u);
  EXPECT_EQ(compacted.value, 1u);

  EXPECT_FALSE(in.lags(kOrigin, 1, 0));  // heartbeat anchors at seq 0
  const auto receipt = in.receive(third);
  EXPECT_EQ(receipt.verdict, Verdict::kRecovered);
  EXPECT_EQ(seqs(receipt), (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(in.cursor(kOrigin), 3u);
  EXPECT_EQ(gaps_recovered.value, 1u);
}

// History trimmed out of the bounded log is real loss: window_base names the
// newest seq the message no longer covers, and a receiver behind it must
// sync. Its cursor stays put so the gap stays visible.
TEST_F(UpdateStreamTest, TrimmedHistoryNeedsSync) {
  UpdateMsg last;
  for (NodeId subject = 10; subject < 20; ++subject) {
    last = stamp({join(subject)});  // seqs 1..10; the log keeps 8
  }
  EXPECT_EQ(seqs(last.records), (std::vector<uint64_t>{10, 9, 8, 7}));
  EXPECT_EQ(last.window_base, 6u);  // next retained-but-unsent record

  EXPECT_FALSE(in.lags(kOrigin, 1, 5));
  const auto behind = in.receive(last);
  EXPECT_EQ(behind.verdict, Verdict::kNeedsSync);
  EXPECT_EQ(seqs(behind), (std::vector<uint64_t>{7, 8, 9, 10}));
  EXPECT_EQ(in.cursor(kOrigin), 5u);

  in.anchor(kOrigin, 1, 6);
  const auto covered = in.receive(last);
  EXPECT_EQ(covered.verdict, Verdict::kRecovered);
  EXPECT_EQ(in.cursor(kOrigin), 10u);
  EXPECT_EQ(in.receive(last).verdict, Verdict::kDuplicate);
  EXPECT_TRUE(in.receive(last).fresh.empty());
}

// The trim watermark only rises when records leave the log by trimming (or
// clearing), never by compaction: once the whole log fits in one message,
// window_base is the watermark.
TEST_F(UpdateStreamTest, TrimWatermarkIgnoresCompaction) {
  for (NodeId subject = 1; subject <= 9; ++subject) {
    stamp({join(subject)});  // seq 9 trims seq 1 out: watermark 1
  }
  std::vector<UpdateRecord> reannounce;
  for (NodeId subject = 2; subject <= 9; ++subject) {
    reannounce.push_back(join(subject));
  }
  UpdateMsg full = stamp(reannounce);  // seqs 10..17 shadow all of 2..9
  EXPECT_EQ(full.records.size(), 8u);
  EXPECT_EQ(full.window_base, 1u);

  out.clear_log();
  EXPECT_EQ(stamp({join(30)}).window_base, 17u);
}

// Leaving a channel drops the log and the cursors but never the sequence
// number: the next life on the channel continues above every seq sent, and
// receivers that missed the tail are sent to the full-image path.
TEST_F(UpdateStreamTest, SeqNeverFallsBackAcrossALeave) {
  stamp({join(10)});
  stamp({join(11)});
  stamp({join(12)});
  in.anchor(kOrigin, 1, 7);
  out.reset();
  EXPECT_EQ(out.seq(), 3u);
  UpdateMsg next = stamp({join(13)});
  EXPECT_EQ(seqs(next.records), (std::vector<uint64_t>{4}));
  EXPECT_EQ(next.window_base, 3u);
  in.reset();
  EXPECT_EQ(in.cursor(kOrigin), 0u);
}

// Cursors are per life: a restarted origin's stream starts over and is a
// first contact; messages from the older life are dropped, and neither a
// heartbeat nor an anchor from the older life moves the cursor.
TEST_F(UpdateStreamTest, CursorsAreScopedByIncarnation) {
  UpdateStream old_life{3, kDeafAfter, &compacted, &deaf_dropped,
                        &gaps_recovered};
  UpdateMsg stale;
  for (NodeId subject = 10; subject < 15; ++subject) {
    stale = old_life.stamp({join(subject)}, 1, sim::kSecond);
  }
  stale.origin = kOrigin;
  stale.origin_incarnation = 1;
  EXPECT_EQ(in.receive(stale).verdict, Verdict::kFirstContact);
  EXPECT_EQ(in.cursor(kOrigin), 5u);

  UpdateMsg restarted = stamp({join(20)}, /*incarnation=*/2);  // seq 1
  const auto fresh = in.receive(restarted);
  EXPECT_EQ(fresh.verdict, Verdict::kFirstContact);
  EXPECT_EQ(fresh.fresh.size(), 1u);
  EXPECT_EQ(in.cursor(kOrigin), 1u);

  const auto late = in.receive(stale);
  EXPECT_EQ(late.verdict, Verdict::kOldLife);
  EXPECT_TRUE(late.fresh.empty());
  EXPECT_FALSE(in.lags(kOrigin, 1, 40));
  in.anchor(kOrigin, 1, 40);
  EXPECT_EQ(in.cursor(kOrigin), 1u);
  EXPECT_TRUE(in.lags(kOrigin, 2, 2));
}

// The deafness guard: after a silence longer than the level's failure
// timeout, the backlog stamped while cut off is dropped, on the next arrival
// or the next stamp, whichever comes first — and not a moment earlier.
TEST_F(UpdateStreamTest, DeafnessDropsTheBacklog) {
  out.heard(sim::kSecond);
  stamp({join(10)});
  stamp({join(11)});
  out.heard(sim::kSecond + kDeafAfter);  // exactly the timeout: kept
  EXPECT_EQ(deaf_dropped.value, 0u);
  EXPECT_EQ(stamp({join(12)}).records.size(), 3u);

  out.heard(2 * sim::kSecond + 2 * kDeafAfter);
  EXPECT_EQ(deaf_dropped.value, 1u);
  UpdateMsg after = stamp({join(13)});
  EXPECT_EQ(seqs(after.records), (std::vector<uint64_t>{4}));
  EXPECT_EQ(after.window_base, 3u);

  // Timer-driven emissions run the same guard.
  UpdateMsg late = out.stamp({join(14)}, 1, 3 * sim::kSecond + 4 * kDeafAfter);
  EXPECT_EQ(seqs(late.records), (std::vector<uint64_t>{5}));
  EXPECT_EQ(deaf_dropped.value, 2u);
}

}  // namespace
}  // namespace tamp::protocols
