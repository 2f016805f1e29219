#include "protocols/hier.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/check.h"
#include "util/logging.h"

namespace tamp::protocols {

using membership::ApplyResult;
using membership::decode_message;
using membership::encode_message;
using membership::BootstrapRequestMsg;
using membership::BootstrapResponseMsg;
using membership::BusyKind;
using membership::BusyMsg;
using membership::CoordinatorMsg;
using membership::DigestRowSummary;
using membership::ElectionAnswerMsg;
using membership::ElectionMsg;
using membership::EntryData;
using membership::EntryRef;
using membership::HeartbeatMsg;
using membership::Incarnation;
using membership::Liveness;
using membership::MembershipEntry;
using membership::NodeId;
using membership::RefreshDeltaMsg;
using membership::RefreshDigestMsg;
using membership::RefreshPullMsg;
using membership::SyncRequestMsg;
using membership::SyncResponseMsg;
using membership::UpdateKind;
using membership::UpdateMsg;
using membership::UpdateRecord;

namespace {

UpdateRecord make_join_record(const EntryRef& entry) {
  UpdateRecord record;
  record.kind = UpdateKind::kJoin;
  record.subject = entry->node;
  record.incarnation = entry->incarnation;
  record.entry = entry;
  return record;
}

UpdateRecord make_leave_record(NodeId subject, Incarnation inc) {
  UpdateRecord record;
  record.kind = UpdateKind::kLeave;
  record.subject = subject;
  record.incarnation = inc;
  return record;
}

// Per-bucket XOR of the rows' (cached) digest hashes.
std::vector<uint64_t> bucket_hashes(
    const std::vector<const MembershipEntry*>& rows, size_t bucket_count) {
  std::vector<uint64_t> buckets(bucket_count, 0);
  for (const MembershipEntry* row : rows) {
    buckets[membership::digest_bucket_of(row->data->node, bucket_count)] ^=
        row->data.digest_hash();
  }
  return buckets;
}

}  // namespace

HierDaemon::HierDaemon(sim::Simulation& sim, net::Network& net, NodeId self,
                       EntryData own, HierConfig config)
    : MembershipDaemon(sim, net, self, std::move(own)),
      config_(config),
      heartbeat_timer_(sim, config.period, [this] { heartbeat_tick(); }),
      scan_timer_(sim, kScanInterval, [this] { scan_tick(); }),
      refresh_timer_(sim,
                     config.refresh_interval > 0 ? config.refresh_interval
                                                 : sim::kSecond,
                     [this] { refresh_tick(); }),
      topo_poll_timer_(sim,
                       config.topology_poll_interval > 0
                           ? config.topology_poll_interval
                           : config.period,
                       [this] { topology_poll_tick(); }),
      slots_(sim, net.obs(), self, config.period, config.image_serve_budget,
             [this](int level, BusyKind kind, NodeId target) {
               send_poll(level, kind, target);
             }) {
  TAMP_CHECK(config_.max_ttl >= 1 && config_.max_ttl <= 250);
  resolve_metrics();
  table_ = membership::MembershipTable(kTombstoneTtl);
  levels_.reserve(static_cast<size_t>(config_.max_ttl));
  for (int level = 0; level < config_.max_ttl; ++level) {
    const sim::Duration timeout = level_timeout(level);
    auto state = std::make_unique<LevelState>(
        UpdateStream(config_.piggyback, timeout, metrics_.out_log_compacted,
                     metrics_.deaf_backlogs_dropped,
                     metrics_.gaps_recovered_by_piggyback),
        timeout);
    // Listening, the coordinator wait and the backup grace all end the
    // same way: a channel still leaderless elects.
    auto elect_if_leaderless = [this, level] {
      if (level_state(level).leader == membership::kInvalidNode) {
        maybe_start_election(level);
      }
    };
    state->listen_timer =
        std::make_unique<sim::OneShotTimer>(sim, elect_if_leaderless);
    state->election_timer = std::make_unique<sim::OneShotTimer>(
        sim, [this, level] { election_deadline(level); });
    state->coordinator_timer = std::make_unique<sim::OneShotTimer>(
        sim, [this, level, elect_if_leaderless] {
          level_state(level).electing = false;
          elect_if_leaderless();
        });
    state->backup_grace_timer =
        std::make_unique<sim::OneShotTimer>(sim, elect_if_leaderless);
    levels_.push_back(std::move(state));
  }
}

HierDaemon::~HierDaemon() { stop(); }

void HierDaemon::resolve_metrics() {
  obs::MetricsRegistry& m = net_.obs().metrics;
  auto c = [&](std::string_view name) {
    return m.counter(obs::Protocol::kHier, name, self_);
  };
  metrics_.heartbeats_sent = c("heartbeats_sent");
  metrics_.updates_sent = c("updates_sent");
  metrics_.update_records_applied = c("update_records_applied");
  metrics_.elections_started = c("elections_started");
  metrics_.coordinators_sent = c("coordinators_sent");
  metrics_.bootstraps_requested = c("bootstraps_requested");
  metrics_.bootstraps_served = c("bootstraps_served");
  metrics_.syncs_requested = c("syncs_requested");
  metrics_.syncs_served = c("syncs_served");
  metrics_.gaps_recovered_by_piggyback = c("gaps_recovered_by_piggyback");
  metrics_.relayed_purges = c("relayed_purges");
  metrics_.epochs_minted = c("epochs_minted");
  metrics_.stale_epoch_rejects = c("stale_epoch_rejects");
  metrics_.epochs_superseded = c("epochs_superseded");
  metrics_.deaf_backlogs_dropped = c("deaf_backlogs_dropped");
  metrics_.busy_sent = c("busy_sent");
  metrics_.out_log_compacted = c("out_log_compacted");
  metrics_.digests_sent = c("digests_sent");
  metrics_.digest_pulls_sent = c("digest_pulls_sent");
  metrics_.digest_pulls_served = c("digest_pulls_served");
  metrics_.deltas_sent = c("deltas_sent");
  metrics_.delta_rows_shipped = c("delta_rows_shipped");
  metrics_.digest_rows_suppressed = c("digest_rows_suppressed");
  metrics_.digest_full_fallbacks = c("digest_full_fallbacks");
  metrics_.topology_rescopes = c("topology_rescopes");
  metrics_.image_serve_entries =
      m.histogram(obs::Protocol::kHier, "image_serve_entries", self_);
}

void HierDaemon::trace(obs::TraceKind kind, int level, uint64_t a,
                       uint64_t b) {
  net_.obs().tracer.record(kind, self_, sim_.now(), level, a, b);
}

void HierDaemon::multicast(int level, const membership::Message& msg,
                           size_t pad_to) {
  net_.send_multicast(self_, channel_of(level), ttl_of(level),
                      config_.data_port, encode_message(msg, pad_to));
}

void HierDaemon::unicast(NodeId to, const membership::Message& msg) {
  net_.send_unicast(self_, net::Address{to, config_.control_port},
                    encode_message(msg));
}

sim::Duration HierDaemon::level_timeout(int level) const {
  double factor = std::pow(config_.level_timeout_factor, level);
  return static_cast<sim::Duration>(
      static_cast<double>(config_.max_losses) *
      static_cast<double>(config_.period) * factor);
}

int HierDaemon::level_of_channel(net::ChannelId channel) const {
  // Admin-specified channels take precedence over derived ones.
  int derived = -1;
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (channel_of(l) != channel) continue;
    if (admin_channel(l) != 0) return l;
    if (derived < 0) derived = l;
  }
  return derived;
}

// --- lifecycle ------------------------------------------------------------

void HierDaemon::start() {
  if (running()) return;
  base_start();
  net_.bind(self_, config_.data_port,
            [this](const net::Packet& p) { on_data_packet(p); });
  net_.bind(self_, config_.control_port,
            [this](const net::Packet& p) { on_control_packet(p); });
  heartbeat_timer_.start_with_random_phase();
  scan_timer_.start_with_random_phase();
  if (config_.refresh_interval > 0) refresh_timer_.start_with_random_phase();
  if (config_.topology_poll_interval > 0) {
    topo_epoch_seen_ = net_.topology().epoch();
    topo_poll_timer_.start_with_random_phase();
  }
  join_level(0);
}

void HierDaemon::stop() {
  if (!running()) return;
  heartbeat_timer_.stop();
  scan_timer_.stop();
  refresh_timer_.stop();
  topo_poll_timer_.stop();
  leave_levels_from(0);
  net_.unbind(self_, config_.data_port);
  net_.unbind(self_, config_.control_port);
  base_stop();
}

void HierDaemon::join_level(int level) {
  if (level >= config_.max_ttl) return;
  LevelState& ls = level_state(level);
  if (ls.joined) return;
  ls.joined = true;
  trace(obs::TraceKind::kGroupJoin, level);
  ls.stream.heard(sim_.now());  // deafness clock starts at (re)join
  net_.join_group(self_, channel_of(level));
  send_heartbeat(level);
  // Paper bootstrap: listen for a leader flag first; elect only if the
  // channel turns out to be leaderless.
  ls.listen_timer->restart(config_.join_listen);
}

void HierDaemon::leave_levels_from(int level, bool announce) {
  for (int l = config_.max_ttl - 1; l >= level; --l) {
    LevelState& ls = level_state(l);
    if (!ls.joined) continue;
    trace(obs::TraceKind::kGroupLeave, l, announce ? 1 : 0);
    if (announce) {
      // Graceful goodbye: we are alive, just leaving this channel — peers
      // must not mistake our silence here for a node failure.
      HeartbeatMsg goodbye;
      goodbye.entry = own_row_;
      goodbye.level = static_cast<uint8_t>(l);
      goodbye.is_leader = false;
      goodbye.leaving = true;
      goodbye.seq = ++hb_seq_;
      multicast(l, goodbye, config_.heartbeat_pad);
    }
    net_.leave_group(self_, channel_of(l));
    ls.joined = false;
    ls.bootstrapped = false;
    ls.members.clear();
    ls.leader = membership::kInvalidNode;
    ls.leader_backup = membership::kInvalidNode;
    ls.i_am_leader = false;
    ls.my_backup = membership::kInvalidNode;
    ls.prev_leader = membership::kInvalidNode;
    ls.prev_leader_incarnation = 0;
    ls.stream.reset();
    slots_.clear(l);
    // `superseded` intentionally NOT reset: succession knowledge, like the
    // epoch itself, must never regress within one daemon lifetime.
    ls.listen_timer->cancel();
    end_election(ls);
  }
}

// --- introspection -----------------------------------------------------------

bool HierDaemon::joined(int level) const {
  return level >= 0 && level < config_.max_ttl && levels_[level]->joined;
}

bool HierDaemon::is_leader(int level) const {
  return joined(level) && levels_[level]->i_am_leader;
}

NodeId HierDaemon::leader_of(int level) const {
  if (!joined(level)) return membership::kInvalidNode;
  return levels_[level]->leader;
}

NodeId HierDaemon::backup_of(int level) const {
  if (!joined(level)) return membership::kInvalidNode;
  const LevelState& ls = *levels_[level];
  return ls.i_am_leader ? ls.my_backup : ls.leader_backup;
}

std::vector<int> HierDaemon::joined_levels() const {
  std::vector<int> out;
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (levels_[l]->joined) out.push_back(l);
  }
  return out;
}

std::vector<NodeId> HierDaemon::group_members(int level) const {
  std::vector<NodeId> out;
  if (!joined(level)) return out;
  for (const auto& m : levels_[level]->members.all()) out.push_back(m.node);
  return out;
}

membership::Epoch HierDaemon::epoch_of(int level) const {
  if (level < 0 || level >= config_.max_ttl) return 0;
  return levels_[level]->epoch;
}

size_t HierDaemon::pending_exchanges(int level) const {
  return slots_.pending(level);
}

// --- periodic work ------------------------------------------------------------

void HierDaemon::heartbeat_tick() {
  ++hb_seq_;
  for (int l : joined_levels()) send_heartbeat(l);
  // The table-wide soft-state GC below is O(view size); its timeouts are
  // tens of seconds, so scanning every few periods loses nothing and keeps
  // thousand-node simulations fast.
  if (hb_seq_ % 5 != 0) return;
  // Direct entries we no longer actually hear (e.g. a lost goodbye from a
  // node that left a shared channel) decay to relayed status, entering the
  // normal second-hand lifecycle below.
  const sim::Time now = sim_.now();
  std::vector<NodeId> demote;
  for (const auto& [id, entry] : table_.entries()) {
    if (entry.liveness == Liveness::kDirect && id != self_ &&
        !heard_directly(id)) {
      demote.push_back(id);
    }
  }
  for (NodeId id : demote) {
    table_.demote_to_relayed(id, membership::kInvalidNode);
  }
  // Relayed entries are soft state refreshed by the relay chain's periodic
  // anti-entropy (refresh_tick): an entry no digest or delta vouches for
  // within the refresh horizon is stale — drop it. This is what eventually
  // clears entries resurrected by packet reordering or late replays under
  // loss.
  const sim::Duration refresh = config_.refresh_interval;
  sim::Duration orphan_timeout = 2 * level_timeout(config_.max_ttl - 1);
  if (refresh > 0) {
    orphan_timeout = std::max(
        orphan_timeout, 2 * refresh + level_timeout(config_.max_ttl - 1));
  }
  auto expired = table_.expire(now, [&](const membership::MembershipEntry& e) {
    if (e.data->node == self_ || e.liveness != Liveness::kRelayed) {
      return sim::Duration{-1};
    }
    return orphan_timeout;
  });
  for (NodeId node : expired) notify(node, false);
}

void HierDaemon::send_heartbeat(int level) {
  LevelState& ls = level_state(level);
  HeartbeatMsg heartbeat;
  heartbeat.entry = own_row_;
  heartbeat.level = static_cast<uint8_t>(level);
  heartbeat.is_leader = ls.i_am_leader;
  heartbeat.backup = ls.my_backup;
  heartbeat.seq = ls.stream.seq();
  heartbeat.epoch = ls.epoch;
  multicast(level, heartbeat, config_.heartbeat_pad);
  metrics_.heartbeats_sent->add();
}

void HierDaemon::scan_tick() {
  // Levels joined during the scan (a backup taking over joins the next
  // level up) are scanned in the same tick. on_member_dead removes every
  // member due() returns, as due() requires.
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (!levels_[l]->joined) continue;
    LevelState& ls = level_state(l);
    for (NodeId node : ls.members.due(sim_.now(), ls.timeout)) {
      on_member_dead(l, node);
    }
  }
}

void HierDaemon::topology_poll_tick() {
  const uint64_t epoch = net_.topology().epoch();
  if (epoch == topo_epoch_seen_) return;
  topo_epoch_seen_ = epoch;
  // The routing fabric changed shape under us. Re-probe every group
  // member's TTL distance against the new routes and shed the ones whose
  // distance no longer fits their level — waiting for their heartbeats to
  // time out would be both slow and wrong (it carries death semantics; a
  // migrated node is alive). Members that moved *into* scope announce
  // themselves on the next heartbeat they multicast.
  uint64_t dropped = 0;
  for (int level : joined_levels()) dropped += drop_out_of_scope(level);
  trace(obs::TraceKind::kTopologyChange, -1, epoch, dropped);
  if (dropped > 0) metrics_.topology_rescopes->add(dropped);
  // Announce immediately on every joined channel: peers the new routes just
  // put within earshot hear us up to a full period early, and where two
  // established leaders suddenly share a scope the heartbeat's leader flag
  // starts the merge (lowest id keeps the role) right away.
  for (int level : joined_levels()) send_heartbeat(level);
}

size_t HierDaemon::drop_out_of_scope(int level) {
  LevelState& ls = level_state(level);
  std::vector<NodeId> gone;
  for (const auto& m : ls.members.all()) {
    const int ttl = net_.topology().ttl_required(self_, m.node);
    if (ttl == 0 || ttl > level + 1) gone.push_back(m.node);
  }
  for (NodeId member : gone) {
    forget_member(level, member);
    if (ls.i_am_leader && ls.my_backup == member) {
      ls.my_backup = pick_backup(level);
    }
  }
  return gone.size();
}

void HierDaemon::forget_member(int level, NodeId member) {
  LevelState& ls = level_state(level);
  ls.members.erase(member);
  slots_.prune(level, member);
  if (ls.leader == member) {
    ls.leader = membership::kInvalidNode;
    ls.backup_grace_timer->restart(kBackupGrace);
  }
  if (!heard_directly(member)) {
    table_.demote_to_relayed(member, membership::kInvalidNode);
  }
}

bool HierDaemon::heard_directly(NodeId node) const {
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (levels_[l]->joined && levels_[l]->members.contains(node)) return true;
  }
  return false;
}

void HierDaemon::on_member_dead(int level, NodeId member) {
  LevelState& ls = level_state(level);
  const LevelMembers::Member* info = ls.members.find(member);
  if (info == nullptr) return;
  const bool was_leader = info->is_leader || ls.leader == member;
  // Capture the dying life's incarnation before the table entry goes: the
  // succession fence must name the life that was lost, not a later restart.
  const auto* lost_entry = table_.find(member);
  const Incarnation lost_incarnation =
      lost_entry ? lost_entry->data->incarnation : 0;
  ls.members.erase(member);
  slots_.prune(level, member);

  TAMP_LOG(Info) << "hier node " << self_ << " detects member " << member
                 << " dead at level " << level;
  trace(obs::TraceKind::kTimeoutExpiry, level, member);

  if (ls.i_am_leader && ls.my_backup == member) {
    ls.my_backup = pick_backup(level);
  }

  if (!heard_directly(member)) {
    drop_row(member, lost_incarnation, level);
    // Paper Timeout protocol: a dead node detected at level > 0 takes the
    // membership information it relayed with it (partition detection). A
    // dead *level-0* leader does not: the backup/new leader re-seeds the
    // group within the (larger) higher-level timeouts, so instant purging
    // would only cause view flapping; orphan expiry is the backstop.
    if (level > 0) purge_dependents(member, level);
  }

  if (was_leader) handle_leader_loss(level, member, lost_incarnation);
}

void HierDaemon::purge_dependents(NodeId dead, int arrival_level) {
  // Worklist: purging one relay may orphan entries relayed by the purged
  // node in turn (multi-hop chains).
  std::vector<NodeId> worklist{dead};
  while (!worklist.empty()) {
    NodeId relay = worklist.back();
    worklist.pop_back();
    // Entries announced by the dead relay went quiet when it did, so by the
    // time its death is detected (one level_timeout at this level) they are
    // at least that stale. Anything fresher is being re-announced by a
    // *live* relay (e.g. a new leader's refresh beat our purge) and must
    // survive: it will either be re-tagged to it or expire as an orphan.
    for (const auto& [id, incarnation] : quiet_rows_via(relay, arrival_level)) {
      if (drop_row(id, incarnation, arrival_level)) {
        metrics_.relayed_purges->add();
        worklist.push_back(id);
      }
    }
  }
}

std::vector<std::pair<NodeId, Incarnation>> HierDaemon::quiet_rows_via(
    NodeId relay, int level) const {
  std::vector<std::pair<NodeId, Incarnation>> rows;
  const sim::Duration horizon = level_timeout(level);
  for (const auto& [id, entry] : table_.entries()) {
    if (entry.liveness == Liveness::kRelayed && entry.relayed_by == relay &&
        id != self_ && !heard_directly(id) &&
        sim_.now() - entry.last_heard > horizon) {
      rows.emplace_back(id, entry.data->incarnation);
    }
  }
  return rows;
}

bool HierDaemon::drop_row(NodeId id, Incarnation incarnation, int level) {
  if (!table_.remove(id, incarnation, sim_.now())) return false;
  notify(id, false);
  relay_record(make_leave_record(id, incarnation), level);
  return true;
}

// --- packet handling -----------------------------------------------------------

void HierDaemon::on_data_packet(const net::Packet& packet) {
  int level = level_of_channel(packet.channel);
  if (level < 0 || !levels_[level]->joined) return;
  auto message = decode_message(packet, &pool_);
  if (!message) return;
  // Resurfacing check: after a long enough deafness the backlog is dropped
  // rather than replayed through the piggyback.
  levels_[level]->stream.heard(sim_.now());
  std::visit(
      [&](auto&& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, HeartbeatMsg>) {
          on_heartbeat(level, msg);
        } else if constexpr (std::is_same_v<T, UpdateMsg>) {
          on_update(level, msg);
        } else if constexpr (std::is_same_v<T, ElectionMsg>) {
          on_election(level, msg);
        } else if constexpr (std::is_same_v<T, CoordinatorMsg>) {
          on_coordinator(level, msg);
        } else if constexpr (std::is_same_v<T, RefreshDigestMsg>) {
          on_refresh_digest(level, msg);
        }
      },
      *message);
}

void HierDaemon::on_control_packet(const net::Packet& packet) {
  auto message = decode_message(packet, &pool_);
  if (!message) return;
  std::visit(
      [&](auto&& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, BootstrapRequestMsg>) {
          const int req_level = clamp_level(msg.level);
          // Symmetric exchange: absorb what the newcomer knows (it may be a
          // lower-level leader bringing a subtree) — cheap inbound work that
          // happens even when the O(N) image serve below is refused.
          absorb_entries(msg.known, msg.requester, 0);
          BootstrapResponseMsg response;
          response.level = static_cast<uint8_t>(req_level);
          response.epoch = levels_[req_level]->epoch;
          serve_image(msg.requester, BusyKind::kBootstrap, response);
        } else if constexpr (std::is_same_v<T, BootstrapResponseMsg>) {
          const int arrival = clamp_level(msg.level);
          LevelState& ls = *levels_[arrival];
          // A full image from a responder whose leadership of this channel
          // was superseded is itself stale: don't absorb it, the live
          // leader's traffic is already re-seeding us.
          if (reject_stale(ls, msg.responder, msg.epoch,
                           msg.responder_incarnation)) {
            return;
          }
          // The exchange completed: only now is the level bootstrapped. A
          // lost response leaves the flag down and the retry timer running.
          if (ls.joined) ls.bootstrapped = true;
          slots_.close(arrival, BusyKind::kBootstrap, msg.responder);
          absorb_entries(msg.entries, msg.responder, arrival);
        } else if constexpr (std::is_same_v<T, SyncRequestMsg>) {
          SyncResponseMsg response;
          response.level = msg.level;
          if (joined(msg.level)) {
            response.stream_seq = levels_[msg.level]->stream.seq();
          }
          response.epoch = epoch_of(msg.level);
          serve_image(msg.requester, BusyKind::kSync, response);
        } else if constexpr (std::is_same_v<T, SyncResponseMsg>) {
          const int level = joined(msg.level) ? msg.level : 0;
          if (joined(msg.level)) {
            // Reconciliation removes entries, so it must never run against
            // the image of a responder whose leadership of this channel was
            // superseded (a resumed stale leader serves a view missing most
            // of the cluster).
            if (reject_stale(*levels_[level], msg.responder, msg.epoch,
                             msg.responder_incarnation)) {
              return;
            }
            // The poll was answered; stop the retry timer for it.
            slots_.close(level, BusyKind::kSync, msg.responder);
            // The image covers everything up to the responder's current
            // stream position: re-anchor our cursor there.
            levels_[level]->stream.anchor(
                msg.responder, msg.responder_incarnation, msg.stream_seq);
          }
          reconcile_with_image(msg.responder, msg.entries, level);
          absorb_entries(msg.entries, msg.responder, level);
        } else if constexpr (std::is_same_v<T, ElectionAnswerMsg>) {
          if (joined(msg.level) && levels_[msg.level]->electing) {
            levels_[msg.level]->answered = true;
          }
        } else if constexpr (std::is_same_v<T, BusyMsg>) {
          // Honor the deferral without consuming a retry attempt.
          slots_.defer(clamp_level(msg.level), msg.kind, msg.responder,
                       msg.retry_after);
        } else if constexpr (std::is_same_v<T, RefreshPullMsg>) {
          on_refresh_pull(msg);
        } else if constexpr (std::is_same_v<T, RefreshDeltaMsg>) {
          on_refresh_delta(msg);
        }
      },
      *message);
}

void HierDaemon::on_heartbeat(int level, const HeartbeatMsg& msg) {
  LevelState& ls = level_state(level);
  const NodeId sender = msg.entry->node;
  if (sender == self_) return;
  const sim::Time now = sim_.now();

  if (msg.leaving) {
    // Keep the entry's contents fresh before our knowledge of it becomes
    // second-hand.
    table_.apply(msg.entry, Liveness::kDirect, membership::kInvalidNode, now);
    forget_member(level, sender);
    return;
  }

  // Epoch bookkeeping. Epochs are lineage-scoped — overlapping groups
  // sharing this channel mint independently, so a bigger number from an
  // arbitrary sender proves nothing by itself. A claim is stale only when
  // our succession record says this claimant's *current life* was already
  // superseded at that epoch (a restarted claimant is a fresh lineage);
  // supersession of *our own* leadership likewise requires a direct claim
  // (leader flag / COORDINATOR), never second-hand member gossip.
  const bool stale_claim =
      msg.is_leader &&
      reject_stale(ls, sender, msg.epoch, msg.entry->incarnation);
  if (msg.is_leader && !stale_claim) {
    if (msg.epoch > ls.epoch) adopt_epoch(level, msg.epoch, sender);
  } else if (!msg.is_leader && !ls.i_am_leader && msg.epoch > ls.epoch) {
    // Member gossip raises the channel-history watermark (so a later mint
    // lands above it) but carries no supersession authority.
    ls.epoch = msg.epoch;
  }

  // A stale claimant is still a live member; just don't record it as a
  // leader, or its presence would suppress a genuinely needed election.
  const bool added_member = ls.members.put(
      sender, now, msg.is_leader && !stale_claim, msg.backup);

  ApplyResult result = table_.apply(msg.entry, Liveness::kDirect,
                                    membership::kInvalidNode, now);
  if (result == ApplyResult::kAdded) notify(sender, true);

  // The heartbeat advertises the sender's update-stream position: a cursor
  // behind it means we lost update packets with nothing since to expose the
  // gap — poll for a fresh image (paper Message Loss Detection). A first
  // contact just anchors; the bootstrap exchange supplies the content. The
  // cursor only advances when the recovery actually lands (update or sync
  // response): a lost poll is retried by the exchange's own timer.
  if (ls.stream.lags(sender, msg.entry->incarnation, msg.seq)) {
    request_sync(level, sender, msg.entry->incarnation, msg.seq);
  }

  if (msg.is_leader && !stale_claim) {
    const bool leader_changed = ls.leader != sender;
    if (leader_changed) {
      ls.leader = sender;
      ls.prev_leader = membership::kInvalidNode;  // succession resolved
      ls.prev_leader_incarnation = 0;
      end_election(ls);
    }
    ls.leader_backup = msg.backup;
    if (ls.i_am_leader) {
      // Two leaders in mutual earshot: a newer-epoch claim was already
      // resolved by adopt_epoch above (we yielded), so what remains is an
      // equal-or-older claim from an independent lineage (healed merge,
      // overlap fringe): lowest id keeps the role (paper's election
      // invariant — a leader never tolerates seeing another).
      if (sender < self_) {
        ls.leader = sender;
        abdicate(level);
        // Merged groups (e.g. a healed partition): exchange views with the
        // surviving leader so both sides' subtrees propagate.
        request_bootstrap(level, sender);
      } else {
        send_coordinator(level);
        ls.leader = self_;
      }
    } else if (!ls.bootstrapped || leader_changed) {
      // First contact with a leader, or a leadership handoff: (re)pull the
      // full image from whoever now leads this channel.
      request_bootstrap(level, sender);
    }
  } else {
    // Reject a stale claim: don't adopt the sender as leader, don't yield
    // to it, don't pull its (stale) image. If we hold the live leadership,
    // repel it — assert the current epoch and re-seed the claimant's view
    // so it abdicates and recovers without operator action.
    if (stale_claim && ls.i_am_leader) {
      repel_stale_claim(level, sender, msg.epoch, msg.entry->incarnation);
    }
    // Stale, or it stepped down: either way the sender does not lead.
    if (ls.leader == sender) ls.leader = membership::kInvalidNode;
  }

  // A fresh face (or fresh contents) in a group we participate in gets
  // propagated to the groups we lead; the relay rules no-op for followers.
  if (added_member || result == ApplyResult::kAdded ||
      result == ApplyResult::kUpdated) {
    relay_record(make_join_record(msg.entry), level);
  }
}

void HierDaemon::on_update(int level, const UpdateMsg& msg) {
  LevelState& ls = level_state(level);
  if (msg.origin == self_) return;
  ls.members.touch(msg.origin, sim_.now());
  // Stale-replay fence. An update stream from an origin whose leadership
  // claim on this channel was superseded — at or below the epoch the batch
  // is stamped with — is replay from before the re-election (a resumed
  // leader flushing its out-log): the records in it, chiefly the leaves it
  // stamped while detached, describe a world that no longer exists. Epochs
  // from other, overlapping lineages pass (not comparable numbers), and so
  // does a restarted origin's fresh stream (new life, new lineage).
  if (reject_stale(ls, msg.origin, msg.epoch, msg.origin_incarnation)) return;
  if (msg.records.empty()) return;

  const auto receipt = ls.stream.receive(msg);
  if (receipt.verdict == UpdateStream::Verdict::kNeedsSync) {
    // Poll the origin for a full image (paper Message Loss Detection); the
    // present records are still applied (idempotent).
    request_sync(level, msg.origin, msg.origin_incarnation,
                 receipt.fresh.back()->seq);
  }
  for (const auto* record : receipt.fresh) {
    process_record(*record, msg.origin, level);
  }
}

void HierDaemon::on_election(int level, const ElectionMsg& msg) {
  LevelState& ls = level_state(level);
  if (msg.candidate == self_) return;
  if (ls.i_am_leader) {
    send_coordinator(level);
    return;
  }
  if (self_ < msg.candidate && can_participate(level)) {
    ElectionAnswerMsg answer;
    answer.responder = self_;
    answer.level = static_cast<uint8_t>(level);
    unicast(msg.candidate, answer);
    maybe_start_election(level);
  }
}

void HierDaemon::on_coordinator(int level, const CoordinatorMsg& msg) {
  LevelState& ls = level_state(level);
  if (msg.leader == self_) return;
  if (reject_stale(ls, msg.leader, msg.epoch, msg.leader_incarnation)) {
    // Stale replay: an announcement of leadership the group has since
    // re-elected away (e.g. a resumed leader's deferred COORDINATOR).
    if (ls.i_am_leader) {
      repel_stale_claim(level, msg.leader, msg.epoch, msg.leader_incarnation);
    }
    return;
  }
  // Record the succession the announcement carries: claims by the named
  // predecessor's fenced life below this epoch are fenced from now on. This
  // is what lets a receiver that never directly hears the new leader still
  // reject the old one's replayed leadership.
  if (msg.prev != membership::kInvalidNode && msg.prev != msg.leader &&
      msg.prev != self_ && msg.epoch > 0) {
    raise_fence(ls, msg.prev, msg.epoch - 1, msg.prev_incarnation);
  }
  // A newer epoch resolves any leadership we held (adopt_epoch ignores an
  // older one); fall through as a follower and record the announcer.
  adopt_epoch(level, msg.epoch, msg.leader);
  if (ls.i_am_leader) {
    if (msg.leader < self_) {
      ls.leader = msg.leader;
      ls.leader_backup = msg.backup;
      abdicate(level);
    }
    // Otherwise keep the role; the higher-id claimant will yield when it
    // hears our leader-flagged heartbeat.
    return;
  }
  ls.leader = msg.leader;
  ls.leader_backup = msg.backup;
  ls.prev_leader = membership::kInvalidNode;  // succession resolved
  ls.prev_leader_incarnation = 0;
  end_election(ls);
  ls.members.put(msg.leader, sim_.now(), true, msg.backup);
  if (!ls.bootstrapped) request_bootstrap(level, msg.leader);
}

// --- leadership -------------------------------------------------------------

bool HierDaemon::can_participate(int level) const {
  const LevelState& ls = *levels_[level];
  if (!ls.joined) return false;
  // Paper overlap rule: stay out of elections on a channel where we already
  // hear a leader (even one of a different, overlapping group).
  for (const auto& m : ls.members.all()) {
    if (m.is_leader) return false;
  }
  return true;
}

void HierDaemon::maybe_start_election(int level) {
  LevelState& ls = level_state(level);
  if (!ls.joined || ls.electing || ls.i_am_leader || !can_participate(level)) {
    return;
  }
  metrics_.elections_started->add();
  trace(obs::TraceKind::kElectionStart, level, ls.epoch);
  ls.electing = true;
  ls.answered = false;
  ElectionMsg msg;
  msg.candidate = self_;
  msg.level = static_cast<uint8_t>(level);
  multicast(level, msg);
  ls.election_timer->restart(kElectionTimeout);
}

void HierDaemon::election_deadline(int level) {
  LevelState& ls = level_state(level);
  if (!ls.electing) return;
  if (!ls.answered) {
    become_leader(level);
  } else {
    // A lower-id node objected; give it time to announce itself.
    ls.coordinator_timer->restart(kCoordinatorTimeout);
  }
}

NodeId HierDaemon::pick_backup(int level) {
  LevelState& ls = level_state(level);
  std::vector<NodeId> candidates;
  for (const auto& m : ls.members.all()) candidates.push_back(m.node);
  if (candidates.empty()) return membership::kInvalidNode;
  return sim_.rng().pick(candidates);
}

void HierDaemon::become_leader(int level) {
  LevelState& ls = level_state(level);
  end_election(ls);
  if (ls.i_am_leader) return;
  ls.i_am_leader = true;
  ls.leader = self_;
  ls.my_backup = pick_backup(level);
  // Our own view is now the group's authority; an outstanding bootstrap
  // poll (to a dead or demoted leader) is moot.
  slots_.close(level, BusyKind::kBootstrap, membership::kInvalidNode);
  // Mint a new leadership epoch above everything heard on this channel, and
  // fence the predecessor we are succeeding: its claims (and replayed
  // updates) below the new epoch are stale from this moment on.
  ls.epoch += 1;
  metrics_.epochs_minted->add();
  trace(obs::TraceKind::kEpochMint, level, ls.epoch);
  if (ls.prev_leader != membership::kInvalidNode && ls.prev_leader != self_) {
    raise_fence(ls, ls.prev_leader, ls.epoch - 1, ls.prev_leader_incarnation);
  }

  TAMP_LOG(Info) << "hier node " << self_ << " becomes leader of level "
                 << level << " epoch " << ls.epoch;

  send_coordinator(level);

  send_heartbeat(level);
  // Re-seed the group with everything we know: after a leader death the
  // members purged the old relay's entries and need a fresh image.
  send_state_refresh(level);
  join_level(level + 1);
  // Announce our subtree upward before the higher group's (longer) timeout
  // purges everything the dead leader used to relay.
  if (joined(level + 1)) send_state_refresh(level + 1, /*subtree_only=*/true);
}

void HierDaemon::abdicate(int level) {
  LevelState& ls = level_state(level);
  if (!ls.i_am_leader) return;
  TAMP_LOG(Info) << "hier node " << self_ << " abdicates level " << level;
  ls.i_am_leader = false;
  ls.my_backup = membership::kInvalidNode;
  // Membership of level L+1 was contingent on leading level L. This is a
  // voluntary departure, so it is announced (we are not dead).
  leave_levels_from(level + 1, /*announce=*/true);
}

void HierDaemon::send_coordinator(int level) {
  LevelState& ls = level_state(level);
  CoordinatorMsg msg;
  msg.leader = self_;
  msg.level = static_cast<uint8_t>(level);
  msg.backup = ls.my_backup;
  msg.epoch = ls.epoch;
  // Name the leadership this one superseded (when it succeeded one), so
  // every receiver — including ones that will never hear us directly —
  // learns to fence the predecessor's replayed claims.
  msg.prev = ls.i_am_leader ? ls.prev_leader : membership::kInvalidNode;
  msg.leader_incarnation = own_.incarnation;
  msg.prev_incarnation = ls.i_am_leader ? ls.prev_leader_incarnation : 0;
  multicast(level, msg);
  metrics_.coordinators_sent->add();
  trace(obs::TraceKind::kCoordinator, level, ls.epoch);
}

void HierDaemon::adopt_epoch(int level, membership::Epoch epoch,
                             NodeId new_leader) {
  LevelState& ls = level_state(level);
  if (epoch <= ls.epoch) return;
  ls.epoch = epoch;
  ls.prev_leader = membership::kInvalidNode;
  ls.prev_leader_incarnation = 0;
  if (!ls.i_am_leader) return;
  // A direct claim outranks our leadership: either we were superseded while
  // out of earshot (pause, partition) and the group elected past us, or a
  // merge brought a longer-lived leadership into earshot. Step down
  // silently. The out-log is dropped, not replayed — it holds leaves
  // stamped while detached, which would purge live nodes — and the old
  // subtree's entries are the new leadership's to curate, so no purge
  // either. Then re-enter as a plain member and pull a fresh image.
  metrics_.epochs_superseded->add();
  trace(obs::TraceKind::kEpochSupersede, level, epoch, new_leader);
  TAMP_LOG(Info) << "hier node " << self_ << " superseded at level " << level
                 << " (epoch " << epoch << "), abdicating";
  ls.stream.clear_log();
  ls.leader = new_leader;
  abdicate(level);
  ls.bootstrapped = false;
  // Any in-flight poll was aimed at the old leadership.
  slots_.close(level, BusyKind::kBootstrap, membership::kInvalidNode);
  if (new_leader != membership::kInvalidNode) {
    request_bootstrap(level, new_leader);
  }
  // Else: leader unknown yet — re-pull from whoever we next hear claiming
  // the channel with a live epoch.
}

void HierDaemon::raise_fence(LevelState& ls, NodeId node,
                             membership::Epoch epoch,
                             membership::Incarnation incarnation) {
  // Fences are per-life: a record for a newer incarnation replaces the old
  // life's record wholesale (the old life can never claim again anyway),
  // while within one life the fence only ever rises.
  LevelState::Fence& fence = ls.superseded[node];
  if (incarnation > fence.incarnation) {
    fence.incarnation = incarnation;
    fence.epoch = epoch;
  } else if (incarnation == fence.incarnation) {
    fence.epoch = std::max(fence.epoch, epoch);
  }
}

bool HierDaemon::reject_stale(const LevelState& ls, NodeId node,
                              membership::Epoch epoch,
                              membership::Incarnation incarnation) {
  // Stale only when the claimant's *current life* was superseded at or
  // below this epoch: a higher incarnation is a restart — a fresh lineage
  // the old succession record says nothing about.
  auto it = ls.superseded.find(node);
  const bool stale = it != ls.superseded.end() &&
                     incarnation <= it->second.incarnation &&
                     epoch <= it->second.epoch;
  if (stale) metrics_.stale_epoch_rejects->add();
  return stale;
}

void HierDaemon::end_election(LevelState& ls) {
  ls.electing = false;
  ls.answered = false;
  ls.election_timer->cancel();
  ls.coordinator_timer->cancel();
  ls.backup_grace_timer->cancel();
}

void HierDaemon::repel_stale_claim(int level, NodeId claimant,
                                   membership::Epoch claim_epoch,
                                   membership::Incarnation claim_incarnation) {
  LevelState& ls = level_state(level);
  // Pin the claimant's current life in the succession fence (it may predate
  // our own knowledge — e.g. the fence was learned from a COORDINATOR) and
  // name it in the re-assertion so followers that missed the original
  // announcement learn the succession too.
  raise_fence(ls, claimant, claim_epoch, claim_incarnation);
  trace(obs::TraceKind::kStaleReject, level, claimant, claim_epoch);
  ls.prev_leader = claimant;
  ls.prev_leader_incarnation = claim_incarnation;
  send_coordinator(level);
  // Re-seed the claimant's stale view (and repair anything its replayed
  // leaves knocked out elsewhere). A full-view burst, so rate-limited: the
  // claimant keeps heartbeating until the COORDINATOR lands.
  const sim::Time now = sim_.now();
  if (now - ls.last_stale_reseed < config_.period) return;
  ls.last_stale_reseed = now;
  send_state_refresh(level);
  // The resumed subtree hangs off this channel; re-announce upward too so
  // the parent group re-admits whatever the stale episode purged there.
  if (joined(level + 1)) send_state_refresh(level + 1, /*subtree_only=*/true);
}

void HierDaemon::handle_leader_loss(int level, NodeId old_leader,
                                    membership::Incarnation old_incarnation) {
  LevelState& ls = level_state(level);
  // Leadership may already have been resolved (a backup's COORDINATOR beat
  // our own detection scan): do not contest it.
  if (ls.leader != membership::kInvalidNode && ls.leader != old_leader) {
    return;
  }
  if (ls.leader == old_leader) ls.leader = membership::kInvalidNode;
  // Whoever wins the succession (backup takeover or election) names the
  // lost leader's life as superseded in its COORDINATOR.
  ls.prev_leader = old_leader;
  ls.prev_leader_incarnation = old_incarnation;
  const NodeId backup = ls.leader_backup;
  ls.leader_backup = membership::kInvalidNode;
  if (backup == self_ && ls.joined && !ls.i_am_leader) {
    become_leader(level);  // designated backup takes over immediately
    return;
  }
  if (backup != membership::kInvalidNode && ls.members.contains(backup)) {
    ls.backup_grace_timer->restart(kBackupGrace);
  } else {
    maybe_start_election(level);
  }
}

// --- update propagation ------------------------------------------------------

bool HierDaemon::process_record(const UpdateRecord& record, NodeId relayed_by,
                                int arrival_level) {
  metrics_.update_records_applied->add();
  trace(obs::TraceKind::kDeltaApply, arrival_level, record.subject, record.seq);
  if (record.subject == self_) return false;
  const sim::Time now = sim_.now();

  if (record.kind == UpdateKind::kJoin) {
    if (!record.entry) return false;
    const bool fresh = apply_relayed(record.entry, relayed_by);
    if (fresh) relay_record(record, arrival_level);
    return fresh;
  }

  // kLeave. Stale leaves are fenced upstream: the per-origin succession
  // fence drops whole messages from superseded claimants, and the deafness
  // guard stops a resurfacing node from ever emitting its cut-off backlog.
  // record.epoch stays on the wire as provenance (which leadership stamped
  // the record) — it is not compared numerically here, because relayed
  // records cross channels whose lineages mint independently.
  // Our own ears beat second-hand news: if we currently hear the subject's
  // heartbeats, the leave is stale (or an overlap artifact).
  if (heard_directly(record.subject)) return false;
  if (!table_.remove(record.subject, record.incarnation, now)) return false;
  notify(record.subject, false);
  relay_record(record, arrival_level);
  purge_dependents(record.subject, arrival_level);
  return true;
}

void HierDaemon::relay_record(const UpdateRecord& record, int arrival_level) {
  std::vector<bool> emit(static_cast<size_t>(config_.max_ttl), false);
  // Downward/lateral: into every group this node leads (includes the
  // arrival channel itself when we lead it — needed for overlapping groups,
  // where same-channel peers may be outside the original sender's TTL).
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (levels_[l]->joined && levels_[l]->i_am_leader) emit[l] = true;
  }
  // Upward cascade: the leader of level L forwards into L+1; when it is the
  // (possibly sole) member-and-leader there too, the record must keep
  // climbing — a node cannot receive its own multicast, so the cascade is
  // computed here rather than re-entering through the socket.
  for (int l = arrival_level;
       l + 1 < config_.max_ttl && levels_[l]->i_am_leader &&
       levels_[l + 1]->joined;
       ++l) {
    emit[l + 1] = true;
  }
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (emit[l]) emit_batch(l, {record});
  }
}

void HierDaemon::emit_batch(int level,
                            const std::vector<UpdateRecord>& batch) {
  LevelState& ls = level_state(level);
  if (!ls.joined || batch.empty()) return;

  UpdateMsg msg = ls.stream.stamp(batch, ls.epoch, sim_.now());
  msg.origin = self_;
  msg.origin_incarnation = own_.incarnation;
  multicast(level, msg);
  metrics_.updates_sent->add();
  trace(obs::TraceKind::kDeltaEmit, level, msg.records.size(), ls.epoch);
}

std::vector<const MembershipEntry*> HierDaemon::refresh_scope(
    int level, bool subtree_only) const {
  const LevelState& ls = *levels_[level];
  std::vector<const MembershipEntry*> rows;
  for (const auto& [id, entry] : table_.entries()) {
    if (subtree_only && id != self_) {
      // Upward refreshes announce only the subtree this node represents:
      // re-announcing what we learned *from* this very group would keep a
      // departed peer's stale entries alive through mutual refresh.
      if (ls.members.contains(id)) continue;
      if (entry.liveness == Liveness::kRelayed &&
          entry.relayed_by != membership::kInvalidNode &&
          ls.members.contains(entry.relayed_by)) {
        continue;
      }
    }
    rows.push_back(&entry);
  }
  return rows;
}

void HierDaemon::send_state_refresh(int level, bool subtree_only) {
  std::vector<UpdateRecord> batch;
  for (const MembershipEntry* row : refresh_scope(level, subtree_only)) {
    batch.push_back(make_join_record(row->data));
  }
  emit_batch(level, batch);
}

// --- digest anti-entropy ----------------------------------------------------

void HierDaemon::send_refresh_digest(int level, bool subtree) {
  LevelState& ls = level_state(level);
  if (!ls.joined) return;
  const auto rows = refresh_scope(level, subtree);
  RefreshDigestMsg msg;
  msg.origin = self_;
  msg.origin_incarnation = own_.incarnation;
  msg.level = static_cast<uint8_t>(level);
  msg.epoch = ls.epoch;
  msg.subtree = subtree;
  msg.row_count = static_cast<uint32_t>(rows.size());
  msg.buckets = bucket_hashes(rows, kDigestBuckets);
  for (uint64_t bucket : msg.buckets) msg.view_hash ^= bucket;
  // Table iteration is id-ascending, which is exactly the order the
  // delta-varint scope coding wants.
  if (subtree) {
    for (const MembershipEntry* row : rows) {
      msg.subjects.push_back(row->data->node);
    }
  }
  multicast(level, msg);
  metrics_.digests_sent->add();
}

std::vector<const MembershipEntry*> HierDaemon::digest_receiver_scope(
    const RefreshDigestMsg& msg) const {
  std::vector<const MembershipEntry*> rows;
  if (msg.subtree) {
    // The digest names its scope; hash our copies of exactly those rows.
    // A listed row we don't hold leaves its hash out of our bucket — the
    // mismatch is how the pull discovers it. Rows we hold that the origin
    // stopped listing simply go unrefreshed and age into orphan expiry.
    for (NodeId id : msg.subjects) {
      const MembershipEntry* entry = table_.find(id);
      if (entry != nullptr) rows.push_back(entry);
    }
    return rows;
  }
  for (const auto& [id, entry] : table_.entries()) {
    rows.push_back(&entry);
  }
  return rows;
}

void HierDaemon::on_refresh_digest(int level, const RefreshDigestMsg& msg) {
  LevelState& ls = level_state(level);
  if (msg.origin == self_) return;
  ls.members.touch(msg.origin, sim_.now());
  // Same stale-replay fence as update streams: a digest from a superseded
  // leadership life describes a pre-re-election world; comparing against it
  // (and worse, pulling rows from it) would resurrect that world.
  if (reject_stale(ls, msg.origin, msg.epoch, msg.origin_incarnation)) return;
  const size_t bucket_count = msg.buckets.size();
  if (bucket_count == 0 || bucket_count > membership::kMaxDigestBuckets) {
    return;
  }

  const auto rows = digest_receiver_scope(msg);
  const std::vector<uint64_t> buckets = bucket_hashes(rows, bucket_count);
  RefreshPullMsg pull;
  for (size_t b = 0; b < bucket_count; ++b) {
    if (buckets[b] != msg.buckets[b]) {
      pull.bucket_indices.push_back(static_cast<uint16_t>(b));
    }
  }

  // Rows in agreeing buckets are still being announced by the origin:
  // refresh them exactly as absorbing a full re-announcement would, minus
  // the bytes — re-rooting their provenance at the origin, the relay that
  // just vouched for them. Rows in mismatched buckets wait for the delta —
  // the ones the origin stopped announcing must keep aging toward orphan
  // expiry, or a lost LEAVE would never be repaired — and are summarized
  // in the pull.
  std::vector<NodeId> reconfirmed;
  for (const MembershipEntry* row : rows) {
    const NodeId id = row->data->node;
    const size_t b = membership::digest_bucket_of(id, bucket_count);
    if (buckets[b] != msg.buckets[b]) {
      pull.rows.push_back(
          DigestRowSummary{id, row->data->incarnation, row->data.digest_hash()});
    } else if (row->liveness == Liveness::kRelayed) {
      reconfirmed.push_back(id);
    }
  }
  table_.reconfirm_relays(reconfirmed, msg.origin, self_, sim_.now());
  if (pull.bucket_indices.empty()) return;

  pull.requester = self_;
  pull.level = static_cast<uint8_t>(level);
  pull.epoch = ls.epoch;
  pull.subtree = msg.subtree;
  unicast(msg.origin, pull);
  metrics_.digest_pulls_sent->add();
}

void HierDaemon::on_refresh_pull(const RefreshPullMsg& msg) {
  if (msg.requester == self_) return;
  const int level = clamp_level(msg.level);
  LevelState& ls = *levels_[level];
  if (!ls.joined) return;
  metrics_.digest_pulls_served->add();

  // Bucket geometry is ours (the pull answers our digest); indices outside
  // it are from a digest we did not send this configuration for — ignore
  // them rather than guess.
  const size_t bucket_count = kDigestBuckets;
  std::vector<bool> wanted(bucket_count, false);
  for (uint16_t b : msg.bucket_indices) {
    if (b < bucket_count) wanted[b] = true;
  }
  std::map<NodeId, const DigestRowSummary*> theirs;
  for (const auto& row : msg.rows) theirs[row.subject] = &row;

  RefreshDeltaMsg delta;
  delta.responder = self_;
  delta.responder_incarnation = own_.incarnation;
  delta.level = msg.level;
  delta.epoch = ls.epoch;
  const size_t cap = config_.digest_max_rows_per_delta > 0
                         ? static_cast<size_t>(config_.digest_max_rows_per_delta)
                         : table_.size();
  for (const MembershipEntry* row : refresh_scope(level, msg.subtree)) {
    const NodeId id = row->data->node;
    if (!wanted[membership::digest_bucket_of(id, bucket_count)]) continue;
    auto it = theirs.find(id);
    if (it != theirs.end() && it->second->row_hash == row->data.digest_hash()) {
      delta.confirmed.push_back(id);
      continue;
    }
    if (delta.entries.size() >= cap) {
      // Divergence beyond the delta budget: stop here and let the requester
      // escalate to the full-image path (which admission control guards).
      delta.truncated = true;
      break;
    }
    delta.entries.push_back(row->data);
  }
  // Rows the requester listed that we do not hold in scope are deliberately
  // neither shipped nor confirmed: unrefreshed, they age into orphan expiry
  // at the requester — the digest exchange's form of lost-LEAVE repair.
  metrics_.delta_rows_shipped->add(delta.entries.size());
  metrics_.digest_rows_suppressed->add(delta.confirmed.size());
  metrics_.deltas_sent->add();
  unicast(msg.requester, delta);
}

void HierDaemon::on_refresh_delta(const RefreshDeltaMsg& msg) {
  if (msg.responder == self_) return;
  const int level = clamp_level(msg.level);
  LevelState& ls = *levels_[level];
  if (!ls.joined) return;
  if (reject_stale(ls, msg.responder, msg.epoch, msg.responder_incarnation)) {
    return;
  }
  absorb_entries(msg.entries, msg.responder, level);
  table_.reconfirm_relays(msg.confirmed, msg.responder, self_, sim_.now());
  if (msg.truncated) {
    // The backstop demotion: only a delta that could not carry the whole
    // divergence escalates to an O(N) image, and that path sits behind the
    // responder's image_serve_budget like any other full-image exchange.
    // An exhausted sync slot is just dropped: the delta carries no stream
    // position to anchor past.
    metrics_.digest_full_fallbacks->add();
    slots_.open(level, BusyKind::kSync, msg.responder);
  }
}

// --- bootstrap / sync -------------------------------------------------------

void HierDaemon::request_bootstrap(int level, NodeId leader) {
  // An exhausted exchange waited for exactly this: a fresh leader claim.
  if (!slots_.open(level, BusyKind::kBootstrap, leader)) {
    slots_.open(level, BusyKind::kBootstrap, leader);
  }
}

void HierDaemon::request_sync(int level, NodeId origin, Incarnation incarnation,
                              uint64_t observed_seq) {
  // The attempt budget on this origin is spent and it is still ahead of us:
  // stop polling and anchor the cursor past the gap instead. The
  // anti-entropy refresh re-announces whatever the lost stretch carried,
  // and orphan expiry removes what it should have removed.
  if (!slots_.open(level, BusyKind::kSync, origin)) {
    level_state(level).stream.anchor(origin, incarnation, observed_seq);
  }
}

void HierDaemon::send_poll(int level, BusyKind kind, NodeId target) {
  LevelState& ls = level_state(level);
  if (kind == BusyKind::kBootstrap) {
    metrics_.bootstraps_requested->add();
    trace(obs::TraceKind::kBootstrapRequest, level, target);
    BootstrapRequestMsg request;
    request.requester = self_;
    request.level = static_cast<uint8_t>(level);
    request.epoch = ls.epoch;
    request.known = full_view();
    unicast(target, request);
    return;
  }
  metrics_.syncs_requested->add();
  trace(obs::TraceKind::kSyncRequest, level, target);
  SyncRequestMsg request;
  request.requester = self_;
  request.level = static_cast<uint8_t>(level);
  // The live cursor, not the one captured when the exchange opened: an
  // intervening update may have advanced it.
  request.last_seq_seen = ls.stream.cursor(target);
  request.epoch = ls.epoch;
  unicast(target, request);
}

template <class Response>
void HierDaemon::serve_image(NodeId requester, BusyKind kind,
                             Response& response) {
  if (!slots_.admit_serve()) {
    metrics_.busy_sent->add();
    BusyMsg busy;
    busy.responder = self_;
    busy.level = response.level;
    busy.kind = kind;
    busy.retry_after = slots_.busy_retry_after();
    trace(obs::TraceKind::kBusyPushback, busy.level, requester,
          static_cast<uint64_t>(busy.retry_after));
    unicast(requester, busy);
    return;
  }
  (kind == BusyKind::kBootstrap ? metrics_.bootstraps_served
                                : metrics_.syncs_served)
      ->add();
  response.responder = self_;
  response.responder_incarnation = own_.incarnation;
  response.entries = full_view();
  metrics_.image_serve_entries->observe(
      static_cast<double>(response.entries.size()));
  unicast(requester, response);
}

std::vector<EntryRef> HierDaemon::full_view() const {
  std::vector<EntryRef> entries;
  entries.reserve(table_.size());
  for (const auto& [id, entry] : table_.entries()) entries.push_back(entry.data);
  return entries;
}

// A solicited full image *synchronizes* the directory: adding what the
// responder knows, and — for entries whose provenance chain runs through
// the responder — removing what it no longer lists (a lost LEAVE shows up
// as an absence in the relay's image).
void HierDaemon::reconcile_with_image(NodeId responder,
                                      const std::vector<EntryRef>& entries,
                                      int arrival_level) {
  std::set<NodeId> present;
  for (const auto& entry : entries) present.insert(entry->node);
  // Only entries the responder has *stopped* announcing count as stale; a
  // recently-applied entry may simply be younger than the image
  // (formation-time races), so leave it to the normal lifecycle.
  for (const auto& [id, incarnation] :
       quiet_rows_via(responder, arrival_level)) {
    if (!present.contains(id) && drop_row(id, incarnation, arrival_level)) {
      purge_dependents(id, arrival_level);
    }
  }
}

void HierDaemon::absorb_entries(const std::vector<EntryRef>& entries,
                                NodeId relayed_by, int arrival_level) {
  for (const auto& entry : entries) {
    if (entry->node == self_) continue;
    if (apply_relayed(entry, relayed_by)) {
      relay_record(make_join_record(entry), arrival_level);
    }
  }
}

// Tombstones are respected even in solicited exchanges: during a failover
// race the responder may still list a node we just declared dead, and
// overriding would flap the view. A healed partition's mutual tombstones
// simply expire, after which the periodic anti-entropy refresh re-merges the
// sides.
//
// relayed_by is the provenance chain the Timeout protocol purges by, so it
// must track the canonical relay: the neighbor on the path toward the
// subject. Any peer may mention any entry (bootstrap copies, anti-entropy
// refreshes), so the tag is sticky — it moves to a new relayer only once
// the current one is no longer heard (leader handover, healed partition).
bool HierDaemon::apply_relayed(const EntryRef& entry, NodeId relayed_by) {
  const ApplyResult result = table_.apply_relayed(
      entry, relayed_by, sim_.now(),
      [this](NodeId relay) { return heard_directly(relay); });
  if (result == ApplyResult::kAdded) notify(entry->node, true);
  return result == ApplyResult::kAdded || result == ApplyResult::kUpdated;
}

void HierDaemon::refresh_tick() {
  // A digest round ships a summary instead of the rows; event-driven
  // re-seeds elsewhere (become_leader, repel_stale_claim) send the full
  // view, where the receivers provably need the whole image.
  for (int l = 0; l < config_.max_ttl; ++l) {
    if (!levels_[l]->joined || !levels_[l]->i_am_leader) continue;
    // Anti-entropy into the group this node leads, and upward into the
    // parent group it represents that subtree in: every relayed entry in
    // the cluster is vouched for along its chain once per interval, so
    // freshness genuinely means "still being relayed".
    send_refresh_digest(l, /*subtree=*/false);
    if (joined(l + 1)) send_refresh_digest(l + 1, /*subtree=*/true);
  }
}

}  // namespace tamp::protocols
