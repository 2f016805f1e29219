#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "membership/codec.h"
#include "membership/table.h"
#include "util/rng.h"
#include "util/strings.h"

namespace tamp::membership {
namespace {

EntryData entry(NodeId node, Incarnation inc = 1) {
  EntryData e = make_representative_entry(node, inc);
  return e;
}

TEST(Codec, EntryRoundTrip) {
  EntryData original = entry(7, 3);
  WireWriter w;
  encode_entry(w, original);
  auto buffer = w.take();
  WireReader r(buffer);
  auto decoded = decode_entry(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(Codec, RepresentativeEntryNearPaperSize) {
  // The paper measured 228 bytes of per-node membership information.
  size_t size = encoded_entry_size(entry(42));
  EXPECT_GT(size, 180u);
  EXPECT_LT(size, 280u);
}

TEST(Codec, TruncatedBufferFailsCleanly) {
  WireWriter w;
  encode_entry(w, entry(1));
  auto buffer = w.take();
  for (size_t cut = 0; cut + 1 < buffer.size(); cut += 7) {
    WireReader r(buffer.data(), cut);
    auto decoded = decode_entry(r);
    EXPECT_FALSE(decoded.has_value()) << "cut=" << cut;
  }
}

TEST(Wire, VarintRoundTrip) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 40,
                     0xffffffffffffffffull}) {
    WireWriter w;
    w.varint(v);
    WireReader r(w.view().data(), w.view().size());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(Wire, PadTo) {
  WireWriter w;
  w.u32(5);
  w.pad_to(100);
  EXPECT_EQ(w.size(), 100u);
  w.pad_to(50);  // never shrinks
  EXPECT_EQ(w.size(), 100u);
}

TEST(Table, ApplyAddsAndRefreshes) {
  MembershipTable table;
  EXPECT_EQ(table.apply(entry(1), Liveness::kDirect, kInvalidNode, 100),
            ApplyResult::kAdded);
  EXPECT_EQ(table.apply(entry(1), Liveness::kDirect, kInvalidNode, 200),
            ApplyResult::kRefreshed);
  EXPECT_EQ(table.find(1)->last_heard, 200);
  EXPECT_EQ(table.size(), 1u);
}

TEST(Table, NewerIncarnationUpdates) {
  MembershipTable table;
  table.apply(entry(1, 1), Liveness::kDirect, kInvalidNode, 0);
  EXPECT_EQ(table.apply(entry(1, 2), Liveness::kDirect, kInvalidNode, 1),
            ApplyResult::kUpdated);
  EXPECT_EQ(table.find(1)->data->incarnation, 2u);
}

TEST(Table, OlderIncarnationIsStale) {
  MembershipTable table;
  table.apply(entry(1, 5), Liveness::kDirect, kInvalidNode, 0);
  EXPECT_EQ(table.apply(entry(1, 4), Liveness::kDirect, kInvalidNode, 1),
            ApplyResult::kStale);
  EXPECT_EQ(table.find(1)->data->incarnation, 5u);
}

TEST(Table, RelayedDoesNotDowngradeDirect) {
  MembershipTable table;
  table.apply(entry(1), Liveness::kDirect, kInvalidNode, 0);
  table.apply(entry(1), Liveness::kRelayed, 9, 1);
  EXPECT_EQ(table.find(1)->liveness, Liveness::kDirect);
  // But a relayed record with *new content* still refreshes the data.
  EntryData updated = entry(1);
  updated.values["hostname"] = "renamed";
  EXPECT_EQ(table.apply(updated, Liveness::kRelayed, 9, 2),
            ApplyResult::kUpdated);
  EXPECT_EQ(table.find(1)->data->values.at("hostname"), "renamed");
  EXPECT_EQ(table.find(1)->liveness, Liveness::kDirect);
}

TEST(Table, DirectUpgradesRelayed) {
  MembershipTable table;
  table.apply(entry(1), Liveness::kRelayed, 9, 0);
  EXPECT_EQ(table.find(1)->liveness, Liveness::kRelayed);
  table.apply(entry(1), Liveness::kDirect, kInvalidNode, 1);
  EXPECT_EQ(table.find(1)->liveness, Liveness::kDirect);
}

TEST(Table, RemoveHonorsIncarnation) {
  MembershipTable table;
  table.apply(entry(1, 3), Liveness::kDirect, kInvalidNode, 0);
  EXPECT_FALSE(table.remove(1, 2, 10));  // stale leave
  EXPECT_TRUE(table.contains(1));
  EXPECT_TRUE(table.remove(1, 3, 10));
  EXPECT_FALSE(table.contains(1));
}

TEST(Table, TombstoneBlocksRelayedRejoin) {
  MembershipTable table;
  table.apply(entry(1, 3), Liveness::kDirect, kInvalidNode, 0);
  table.remove(1, 3, 10);
  EXPECT_EQ(table.apply(entry(1, 3), Liveness::kRelayed, 9, 11),
            ApplyResult::kStale);
  // Higher incarnation passes.
  EXPECT_EQ(table.apply(entry(1, 4), Liveness::kRelayed, 9, 12),
            ApplyResult::kAdded);
}

TEST(Table, DirectObservationOverridesTombstone) {
  MembershipTable table;
  table.apply(entry(1, 3), Liveness::kDirect, kInvalidNode, 0);
  table.remove(1, 3, 10);
  EXPECT_EQ(table.apply(entry(1, 3), Liveness::kDirect, kInvalidNode, 11),
            ApplyResult::kAdded);
}

TEST(Table, TombstoneExpires) {
  MembershipTable table(/*tombstone_ttl=*/100);
  table.apply(entry(1, 3), Liveness::kDirect, kInvalidNode, 0);
  table.remove(1, 3, 10);
  EXPECT_EQ(table.apply(entry(1, 3), Liveness::kRelayed, 9, 50),
            ApplyResult::kStale);
  EXPECT_EQ(table.apply(entry(1, 3), Liveness::kRelayed, 9, 111),
            ApplyResult::kAdded);
}

TEST(Table, ExpirePolicy) {
  MembershipTable table;
  table.apply(entry(1), Liveness::kDirect, kInvalidNode, 0);
  table.apply(entry(2), Liveness::kDirect, kInvalidNode, 50);
  auto expired = table.expire(101, [](const MembershipEntry& e) {
    return e.data->node == 1 ? sim::Duration{100} : sim::Duration{-1};
  });
  EXPECT_EQ(expired, (std::vector<NodeId>{1}));
  EXPECT_FALSE(table.contains(1));
  EXPECT_TRUE(table.contains(2));
}

TEST(Table, PurgeRelayedBy) {
  MembershipTable table;
  table.apply(entry(1), Liveness::kRelayed, 9, 0);
  table.apply(entry(2), Liveness::kRelayed, 9, 0);
  table.apply(entry(3), Liveness::kRelayed, 8, 0);
  table.apply(entry(4), Liveness::kDirect, kInvalidNode, 0);
  auto purged = table.purge_relayed_by(9);
  EXPECT_EQ(purged, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(table.size(), 2u);
}

TEST(Table, LookupByServiceAndPartition) {
  MembershipTable table;
  EntryData a;
  a.node = 1;
  a.incarnation = 1;
  a.services.push_back({"index", {0, 1}, {}});
  EntryData b;
  b.node = 2;
  b.incarnation = 1;
  b.services.push_back({"index", {2}, {}});
  EntryData c;
  c.node = 3;
  c.incarnation = 1;
  c.services.push_back({"doc", {0}, {}});
  for (const auto& e : {a, b, c}) {
    table.apply(e, Liveness::kDirect, kInvalidNode, 0);
  }

  EXPECT_EQ(table.lookup("index", "*").size(), 2u);
  EXPECT_EQ(table.lookup("index", "2").size(), 1u);
  EXPECT_EQ(table.lookup("index", "0-1").size(), 1u);
  EXPECT_EQ(table.lookup(".*", "*").size(), 3u);
  EXPECT_EQ(table.lookup("doc", "1-5").size(), 0u);
  EXPECT_EQ(table.lookup("(index|doc)", "0").size(), 2u);
}

TEST(Table, LookupMalformedRegexMatchesNothing) {
  MembershipTable table;
  table.apply(entry(1), Liveness::kDirect, kInvalidNode, 0);
  EXPECT_TRUE(table.lookup("(unclosed", "*").empty());
}

TEST(Table, NodeIdsSorted) {
  MembershipTable table;
  for (NodeId n : {5u, 1u, 3u}) {
    table.apply(entry(n), Liveness::kDirect, kInvalidNode, 0);
  }
  EXPECT_EQ(table.node_ids(), (std::vector<NodeId>{1, 3, 5}));
}

TEST(Table, CopiedTableLooksUpItsOwnRows) {
  MembershipTable table;
  table.apply(entry(1), Liveness::kDirect, kInvalidNode, 0);
  table.apply(entry(2), Liveness::kDirect, kInvalidNode, 0);
  ASSERT_EQ(table.lookup("retriever", "*").size(), 2u);  // index built
  MembershipTable copy = table;
  auto matches = copy.lookup("retriever", "*");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], copy.find(1));
  EXPECT_EQ(matches[1], copy.find(2));
}

// The lookup contract, spelled as the plain linear scan: every row (in node
// order) that has a service whose full name matches the ECMAScript pattern
// and which hosts a listed partition. A malformed pattern matches nothing.
std::vector<const MembershipEntry*> reference_lookup(
    const MembershipTable& table, const std::string& pattern_text,
    const std::string& partition_spec) {
  std::vector<const MembershipEntry*> out;
  std::regex pattern;
  try {
    pattern = std::regex(pattern_text);
  } catch (const std::regex_error&) {
    return out;
  }
  auto wanted = util::expand_partition_spec(partition_spec);
  for (const auto& [id, row] : table.entries()) {
    bool hit = false;
    for (const auto& service : row.data->services) {
      if (!std::regex_match(service.name, pattern)) continue;
      bool partition_ok = !wanted;  // "*": any partition set, even none
      for (int p : service.partitions) {
        if (wanted &&
            std::find(wanted->begin(), wanted->end(), p) != wanted->end()) {
          partition_ok = true;
        }
      }
      hit = hit || partition_ok;
    }
    if (hit) out.push_back(&row);
  }
  return out;
}

// Random service sets over a small name pool, so names collide across rows,
// and sometimes one name registered twice with disjoint partitions.
std::vector<ServiceRegistration> random_services(util::Rng& rng) {
  static const char* const kNames[] = {"index", "doc", "idx", "index2"};
  std::vector<ServiceRegistration> services;
  const int count = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < count; ++i) {
    ServiceRegistration service;
    service.name = kNames[rng.uniform_u64(4)];
    for (int p = 0; p < 4; ++p) {
      if (rng.bernoulli(0.4)) service.partitions.push_back(p);
    }
    services.push_back(std::move(service));
  }
  if (rng.bernoulli(0.2)) {
    services.push_back({"index", {0}, {}});
    services.push_back({"index", {2}, {}});
  }
  return services;
}

TEST(Table, LookupMatchesRegexScanUnderChurn) {
  const std::vector<std::string> patterns = {
      // exact names
      "index", "doc", "idx", "index2", "missing", "",
      // real regexes, some using a single metacharacter
      "ind.*", "(index|doc)", "i.*x", "doc|idx", "index\\d", "i.dex", "^doc",
      "doc$", "ind[e]x", "id{1}x", "docs?", "do+c",
      // malformed
      "(unclosed", "[", "*bad"};
  const std::vector<std::string> specs = {"*", "2", "0-1", "0,2", "3-1"};
  constexpr NodeId kNodes = 14;
  constexpr NodeId kRelays[] = {100, 101, 102};

  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    MembershipTable table(5);
    std::map<NodeId, EntryData> latest;  // last data offered per node
    sim::Time now = 0;

    for (int step = 0; step < 300; ++step) {
      now += static_cast<sim::Time>(rng.uniform_int(0, 3));
      const NodeId node = static_cast<NodeId>(rng.uniform_u64(kNodes));
      const NodeId relay = kRelays[rng.uniform_u64(3)];
      const Liveness liveness =
          rng.bernoulli(0.5) ? Liveness::kDirect : Liveness::kRelayed;
      EntryData& data = latest[node];
      data.node = node;
      switch (rng.uniform_u64(12)) {
        case 0:  // new incarnation, maybe new services
          ++data.incarnation;
          if (rng.bernoulli(0.5)) data.services = random_services(rng);
          [[fallthrough]];
        case 1:
        case 2:  // unchanged data: a refresh (or an add)
          table.apply(data, liveness, relay, now, rng.bernoulli(0.2));
          break;
        case 3: {  // same incarnation, changed services
          data.services = random_services(rng);
          table.apply(data, liveness, relay, now);
          break;
        }
        case 4: {  // a stale incarnation
          EntryData stale = data;
          if (stale.incarnation > 0) --stale.incarnation;
          stale.services = random_services(rng);
          table.apply(stale, liveness, relay, now);
          break;
        }
        case 5:
          table.remove(node, data.incarnation, now);
          break;
        case 6:
          table.touch(node, now);
          break;
        case 7:
          table.reconfirm_relays({node}, relay, kInvalidNode, now);
          break;
        case 8:
          table.demote_to_relayed(node, relay);
          break;
        case 9:
          table.expire(now, [](const MembershipEntry& e) -> sim::Duration {
            return e.liveness == Liveness::kRelayed ? 6 : 12;
          });
          break;
        case 10:
          table.purge_relayed_by(relay);
          break;
        case 11:
          if (rng.bernoulli(0.1)) table.clear();
          break;
      }

      // Lookup first: the reference's entries() call flushes the insert
      // overlay, and lookup must be the one to see unflushed rows.
      for (const auto& pattern : patterns) {
        for (const auto& spec : specs) {
          auto got = table.lookup(pattern, spec);
          auto want = reference_lookup(table, pattern, spec);
          ASSERT_EQ(got, want) << "step " << step << " pattern '" << pattern
                               << "' spec '" << spec << "'";
        }
      }
    }
  }
}


std::vector<uint8_t> encoded(const EntryData& data) {
  WireWriter w;
  encode_entry(w, data);
  return w.take();
}

std::vector<NodeId> ids_of(const std::vector<const MembershipEntry*>& rows) {
  std::vector<NodeId> ids;
  for (const MembershipEntry* row : rows) ids.push_back(row->data->node);
  return ids;
}

void expect_same_entry(const MembershipEntry* got, const MembershipEntry* want) {
  ASSERT_EQ(got == nullptr, want == nullptr);
  if (got == nullptr) return;
  EXPECT_EQ(*got->data, *want->data);
  EXPECT_EQ(got->liveness, want->liveness);
  EXPECT_EQ(got->relayed_by, want->relayed_by);
  EXPECT_EQ(got->last_heard, want->last_heard);
  EXPECT_EQ(got->first_seen, want->first_seen);
}

// The provenance rule apply_relayed folds into the table write, spelled out
// the way a caller would apply it around a plain apply().
ApplyResult apply_relayed_by_hand(MembershipTable& table, const EntryData& data,
                                  NodeId proposed, sim::Time now,
                                  const std::set<NodeId>& heard) {
  NodeId relay = proposed;
  const MembershipEntry* existing = table.find(data.node);
  if (existing != nullptr && existing->liveness == Liveness::kRelayed &&
      existing->relayed_by != kInvalidNode &&
      heard.contains(existing->relayed_by)) {
    relay = existing->relayed_by;
  }
  return table.apply(data, Liveness::kRelayed, relay, now);
}

// Each row's relay and last-heard stamp, by node id.
using Provenance = std::map<NodeId, std::pair<NodeId, sim::Time>>;

void expect_provenance(const MembershipTable& table, const Provenance& want) {
  const auto& rows = table.entries();
  ASSERT_EQ(rows.size(), want.size());
  for (const auto& [id, row] : rows) {
    SCOPED_TRACE("row " + std::to_string(id));
    auto it = want.find(id);
    ASSERT_NE(it, want.end());
    EXPECT_EQ(row.relayed_by, it->second.first);
    EXPECT_EQ(row.last_heard, it->second.second);
  }
}

// Interning is invisible: a table fed pooled records (one shared record per
// distinct row, refreshes compared by handle) behaves exactly like one fed
// a fresh deep copy of every row it is offered. The interned table also
// takes the folded entry points (apply_relayed, one batched
// reconfirm_relays) where the reference takes the sequence they replace
// (find + provenance rule + apply, one reconfirm per id); each reconfirm is
// also checked against the rule worked out by hand. The tables are compared
// after every step, and in a second run only after every fourth: every
// read merges the insert overlay, so only then do writes meet rows that
// still wait there.
TEST(Table, InternedRowsAreValueTransparent) {
  const std::vector<std::string> patterns = {"index", "doc", "missing",
                                             "ind.*", "(unclosed"};
  const std::vector<std::string> specs = {"*", "2", "0,2"};
  constexpr NodeId kNodes = 12;
  // The last relay is "none": rows relayed with no known relay.
  constexpr NodeId kRelays[] = {100, 101, 102, kInvalidNode};

  for (int run = 0; run < 8; ++run) {
    const auto seed = static_cast<uint64_t>(run % 4 + 1);
    const int check_every = run < 4 ? 1 : 4;
    SCOPED_TRACE("seed " + std::to_string(seed) + ", compared every " +
                 std::to_string(check_every) + " steps");
    util::Rng rng(seed);
    EntryPool pool;
    MembershipTable interned(5);
    MembershipTable reference(5);
    std::map<NodeId, EntryData> latest;
    // Relays the daemon still hears; kInvalidNode counts as heard, so the
    // rule's own check for a missing relay is what keeps such a tag.
    std::set<NodeId> heard = {kInvalidNode, kRelays[0]};
    auto still_heard = [&heard](NodeId relay) { return heard.contains(relay); };
    sim::Time now = 0;

    // Both tables see the same wire bytes: one through the pool, one as a
    // freshly decoded unpooled copy. A failed decode ends the step before
    // anything is applied.
    auto decode_both = [&](const EntryData& data, EntryRef& pooled,
                           EntryData& copy) {
      const std::vector<uint8_t> bytes = encoded(data);
      WireReader pooled_reader(bytes);
      pooled = pool.decode(pooled_reader);
      ASSERT_TRUE(pooled);
      WireReader copy_reader(bytes);
      std::optional<EntryData> decoded = decode_entry(copy_reader);
      ASSERT_TRUE(decoded.has_value());
      copy = std::move(*decoded);
    };
    auto apply_both = [&](const EntryData& data, Liveness liveness,
                          NodeId relay, bool override_tombstone) {
      EntryRef pooled;
      EntryData copy;
      decode_both(data, pooled, copy);
      if (testing::Test::HasFatalFailure()) return;
      EXPECT_EQ(interned.apply(pooled, liveness, relay, now,
                               override_tombstone),
                reference.apply(copy, liveness, relay, now,
                                override_tombstone));
    };
    auto apply_relayed_both = [&](const EntryData& data, NodeId relay) {
      EntryRef pooled;
      EntryData copy;
      decode_both(data, pooled, copy);
      if (testing::Test::HasFatalFailure()) return;
      EXPECT_EQ(interned.apply_relayed(pooled, relay, now, still_heard),
                apply_relayed_by_hand(reference, copy, relay, now, heard));
    };

    for (int step = 0; step < 400; ++step) {
      now += static_cast<sim::Time>(rng.uniform_int(0, 3));
      const NodeId node = static_cast<NodeId>(rng.uniform_u64(kNodes));
      const NodeId relay = kRelays[rng.uniform_u64(4)];
      const Liveness liveness =
          rng.bernoulli(0.5) ? Liveness::kDirect : Liveness::kRelayed;
      EntryData& data = latest[node];
      data.node = node;
      switch (rng.uniform_u64(15)) {
        case 0:  // new incarnation, maybe new services
          ++data.incarnation;
          if (rng.bernoulli(0.5)) data.services = random_services(rng);
          [[fallthrough]];
        case 1:
        case 2:  // unchanged data: a refresh (or an add)
          apply_both(data, liveness, relay, rng.bernoulli(0.2));
          break;
        case 3:  // same incarnation, changed value
          data.values["load"] = std::to_string(rng.uniform_u64(4));
          apply_both(data, liveness, relay, false);
          break;
        case 12:  // a relayed copy: unchanged, a new value or a new life
          if (rng.bernoulli(0.2)) ++data.incarnation;
          if (rng.bernoulli(0.3)) {
            data.values["load"] = std::to_string(rng.uniform_u64(4));
          }
          apply_relayed_both(data, relay);
          break;
        case 13: {  // a relay falls silent or is heard again
          const NodeId toggled = kRelays[rng.uniform_u64(3)];
          if (!heard.erase(toggled)) heard.insert(toggled);
          break;
        }
        case 14:  // a relayed row whose relay is unknown
          interned.demote_to_relayed(node, kInvalidNode);
          reference.demote_to_relayed(node, kInvalidNode);
          break;
        case 4: {  // a stale incarnation
          EntryData stale = data;
          if (stale.incarnation > 0) --stale.incarnation;
          stale.services = random_services(rng);
          apply_both(stale, liveness, relay, false);
          break;
        }
        case 5:
          EXPECT_EQ(interned.remove(node, data.incarnation, now),
                    reference.remove(node, data.incarnation, now));
          // A replayed relayed copy meets the tombstone.
          if (rng.bernoulli(0.5)) apply_relayed_both(data, relay);
          break;
        case 6:
          interned.touch(node, now);
          reference.touch(node, now);
          break;
        case 7: {
          // Ids ascending or shuffled, with repeats and absent ids (up to
          // kNodes + 1); the relay and the owner are sometimes rows of the
          // list itself.
          std::vector<NodeId> ids;
          const size_t count = rng.uniform_u64(2 * kNodes);
          for (size_t i = 0; i < count; ++i) {
            ids.push_back(static_cast<NodeId>(rng.uniform_u64(kNodes + 2)));
          }
          if (rng.bernoulli(0.5)) std::sort(ids.begin(), ids.end());
          auto some_listed = [&](NodeId otherwise) {
            return rng.bernoulli(0.3) && !ids.empty()
                       ? ids[rng.uniform_u64(ids.size())]
                       : otherwise;
          };
          const NodeId via = some_listed(relay);
          const NodeId owner = some_listed(kInvalidNode);
          // The rule by hand, from the rows before the call: a listed
          // relayed row, neither the relay's nor the owner's, is re-rooted
          // at `via` and stamped now; every other row keeps both. It is
          // read off the reference: reading the interned table before the
          // call would merge the overlay the batch should meet.
          Provenance want;
          for (const auto& [id, row] : reference.entries()) {
            const bool listed =
                std::find(ids.begin(), ids.end(), id) != ids.end();
            want[id] = listed && id != via && id != owner &&
                               row.liveness == Liveness::kRelayed
                           ? std::make_pair(via, now)
                           : std::make_pair(row.relayed_by, row.last_heard);
          }
          interned.reconfirm_relays(ids, via, owner, now);
          for (NodeId id : ids) {
            reference.reconfirm_relays({id}, via, owner, now);
          }
          expect_provenance(interned, want);
          expect_provenance(reference, want);
          break;
        }
        case 8:
          interned.demote_to_relayed(node, relay);
          reference.demote_to_relayed(node, relay);
          break;
        case 9: {
          auto timeout = [](const MembershipEntry& e) -> sim::Duration {
            return e.liveness == Liveness::kRelayed ? 6 : 12;
          };
          EXPECT_EQ(interned.expire(now, timeout),
                    reference.expire(now, timeout));
          break;
        }
        case 10:
          EXPECT_EQ(interned.purge_relayed_by(relay),
                    reference.purge_relayed_by(relay));
          break;
        case 11:
          if (rng.bernoulli(0.1)) {
            interned.clear();
            reference.clear();
          }
          break;
      }

      if (step % check_every != check_every - 1) continue;
      for (const auto& pattern : patterns) {
        for (const auto& spec : specs) {
          ASSERT_EQ(ids_of(interned.lookup(pattern, spec)),
                    ids_of(reference.lookup(pattern, spec)))
              << "step " << step << " pattern '" << pattern << "'";
        }
      }
      for (NodeId id = 0; id < kNodes; ++id) {
        expect_same_entry(interned.find(id), reference.find(id));
      }
      const auto& got = interned.entries();
      const auto& want = reference.entries();
      ASSERT_EQ(got.size(), want.size()) << "step " << step;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].first, want[i].first);
        expect_same_entry(&got[i].second, &want[i].second);
      }
    }
  }
}

// Rows still waiting in the insert overlay are reconfirmed and relay-applied
// like merged ones, whatever the order of the ids.
TEST(Table, RelayedWritesReachUnmergedRows) {
  MembershipTable table;
  for (NodeId node : {2u, 4u, 6u, 8u, 101u}) {
    table.apply(entry(node), Liveness::kRelayed, 100, 0);
  }
  ASSERT_NE(table.find(2), nullptr);  // merges the five rows
  for (NodeId node : {7u, 3u}) {
    table.apply(entry(node), Liveness::kRelayed, 100, 0);
  }
  table.apply(entry(5), Liveness::kDirect, kInvalidNode, 0);

  // 3 and 7 sit in the overlay: out of order, repeated, mixed with merged,
  // absent (9), direct (5), self-relayed (101) and the owner's (4) ids.
  table.reconfirm_relays({7, 2, 9, 3, 5, 7, 101, 8, 4}, 101, 4, 10);
  const auto heard = [](NodeId relay) { return relay == 101; };
  EXPECT_EQ(table.apply_relayed(EntryRef(entry(6)), 102, 11, heard),
            ApplyResult::kRefreshed);
  EXPECT_EQ(table.apply_relayed(EntryRef(entry(3)), 102, 12, heard),
            ApplyResult::kRefreshed);
  EXPECT_EQ(table.apply_relayed(EntryRef(entry(1)), 102, 13, heard),
            ApplyResult::kAdded);

  struct Want {
    NodeId node;
    Liveness liveness;
    NodeId relayed_by;
    sim::Time last_heard;
  };
  const Want want[] = {
      {1, Liveness::kRelayed, 102, 13},  // new: the proposed relay
      {2, Liveness::kRelayed, 101, 10},
      {3, Liveness::kRelayed, 101, 12},  // 101 is still heard: kept
      {4, Liveness::kRelayed, 100, 0},  // the owner's row: left alone
      {5, Liveness::kDirect, kInvalidNode, 0},
      {6, Liveness::kRelayed, 102, 11},  // 100 is not heard: moved
      {7, Liveness::kRelayed, 101, 10},
      {8, Liveness::kRelayed, 101, 10},
      {101, Liveness::kRelayed, 100, 0},  // never its own relay
  };
  ASSERT_EQ(table.size(), std::size(want));
  for (const Want& w : want) {
    SCOPED_TRACE("node " + std::to_string(w.node));
    const MembershipEntry* got = table.find(w.node);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->liveness, w.liveness);
    EXPECT_EQ(got->relayed_by, w.relayed_by);
    EXPECT_EQ(got->last_heard, w.last_heard);
  }
}

TEST(EntryPool, EqualRowsShareOneRecordAndChangesGetNewOnes) {
  EntryPool pool;
  const EntryData base = entry(3, 1);
  const std::vector<uint8_t> bytes = encoded(base);
  WireReader first_reader(bytes);
  EntryRef first = pool.decode(first_reader);
  WireReader second_reader(bytes);
  EntryRef second = pool.decode(second_reader);
  ASSERT_TRUE(first);
  EXPECT_EQ(first.record(), second.record());
  EXPECT_EQ(pool.intern(base).record(), first.record());
  EXPECT_EQ(pool.live_records(), 1u);

  EntryData next_life = base;
  ++next_life.incarnation;
  EntryData changed = base;
  changed.values["load"] = "0.7";
  EntryRef next_ref = pool.intern(next_life);
  EntryRef changed_ref = pool.intern(changed);
  EXPECT_NE(next_ref.record(), first.record());
  EXPECT_NE(changed_ref.record(), first.record());
  EXPECT_NE(changed_ref.record(), next_ref.record());
  EXPECT_EQ(pool.live_records(), 3u);

  // Records hold their row's cached encoding and digest hash.
  for (const EntryRef* ref : {&first, &next_ref, &changed_ref}) {
    EXPECT_EQ(ref->bytes(), encoded(**ref));
    EXPECT_EQ(ref->digest_hash(), digest_row_hash(**ref));
  }

  // The last handle to a record returns it.
  next_ref = EntryRef();
  EXPECT_EQ(pool.live_records(), 2u);
  first = EntryRef();
  EXPECT_EQ(pool.live_records(), 2u);  // `second` still holds it
  second = EntryRef();
  changed_ref = EntryRef();
  EXPECT_EQ(pool.live_records(), 0u);
  EXPECT_EQ(pool.live_bytes(), 0u);
}

// A non-canonical encoding (a repeated map key) decodes to the same row as
// the canonical one, so it must intern to the same record.
TEST(EntryPool, NonCanonicalBytesInternToTheCanonicalRecord) {
  EntryData data = entry(4, 2);
  data.values = {{"k", "v"}};
  EntryPool pool;
  EntryRef canonical = pool.intern(data);

  WireWriter w;
  w.u32(data.node);
  w.u64(data.incarnation);
  w.u16(data.machine.cpus);
  w.u32(data.machine.memory_mb);
  w.str(data.machine.os);
  w.varint(data.services.size());
  for (const auto& service : data.services) {
    w.str(service.name);
    w.varint(service.partitions.size());
    for (int partition : service.partitions) {
      w.varint(static_cast<uint64_t>(partition));
    }
    write_string_map(w, service.params);
  }
  w.varint(2);  // "k" twice: decode_entry keeps the first
  w.str("k");
  w.str("v");
  w.str("k");
  w.str("other");
  const std::vector<uint8_t> bytes = w.take();

  WireReader reader(bytes);
  EntryRef decoded = pool.decode(reader);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(decoded.record(), canonical.record());
  EXPECT_EQ(decoded.bytes(), encoded(data));
  EXPECT_EQ(pool.live_records(), 1u);
}

TEST(EntryPool, CopiedTableOutlivesOriginalAndPool) {
  MembershipTable copy;
  {
    auto pool = std::make_unique<EntryPool>();
    MembershipTable original;
    for (NodeId n = 0; n < 6; ++n) {
      original.apply(pool->intern(entry(n, 2)), Liveness::kDirect,
                     kInvalidNode, 10);
    }
    copy = original;
    EXPECT_EQ(copy.find(3)->data.record(), original.find(3)->data.record());
    // The pool goes first, then the original table.
    pool.reset();
  }
  ASSERT_EQ(copy.size(), 6u);
  EXPECT_EQ(copy.find(3)->data->incarnation, 2u);
  EXPECT_EQ(copy.find(3)->data.digest_hash(), digest_row_hash(entry(3, 2)));
  EXPECT_EQ(copy.lookup("retriever", "*").size(), 6u);
  // An equal row from elsewhere refreshes; a changed one updates.
  EXPECT_EQ(copy.apply(entry(3, 2), Liveness::kDirect, kInvalidNode, 20),
            ApplyResult::kRefreshed);
  EXPECT_EQ(copy.apply(entry(3, 3), Liveness::kDirect, kInvalidNode, 30),
            ApplyResult::kUpdated);
  EXPECT_EQ(copy.find(3)->last_heard, 30);
}

}  // namespace
}  // namespace tamp::membership
