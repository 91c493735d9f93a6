// The cluster front-end (PR 8, elastic since PR 9): one well-known
// ingress endpoint fanning a consistent-hash-sharded fleet of
// ShardNodes out behind it.
//
// Routing: the submit route's {session} capture is the shard key — the
// ShardRing maps it onto the owning shard, whose IngressServer executes
// the request. Clients keep speaking the PR-7 wire protocol to ONE
// endpoint; the front-end forwards via per-shard IngressClients with
// the original "<client>#<id>" identity stamped as forwarded_for, so
// traces and the shard-side dedup ledger see one request no matter how
// many hops (or retries) it took.
//
// Health/failover: every shard gets a PR-4 sliding-window breaker fed
// by forwarding outcomes (a lost reply = failure; a typed refusal means
// the shard is alive and counts as success). A tripped window reroutes
// the session's traffic to its ring-designated replica shard at
// admission time — gated through the REPLICA's breaker too, so a
// tripped replica is never dogpiled; both windows open refuses
// "shard-unavailable". An individual lost reply fails over the one
// request to the replica with the elapsed wait deducted from its
// deadline budget (a spent deadline refuses "deadline" instead of
// delivering a reply the client can no longer use). Failover is
// at-most-once end-to-end: the replica run is a fresh execution, and
// exactly-once refers to the client-facing callback ledger (one
// terminal outcome per request, never two).
//
// Replication: update_model() diffs the new authoritative middleware
// model against the current one and ships the model::diff ChangeList —
// not full model text — to every current shard's "replicate/model-diff"
// route, tracking delta vs full-model bytes (the savings BENCH_8
// reports). A shard whose delta send fails or is nacked is marked
// STALE: it stops receiving deltas (they would apply against the wrong
// baseline) and instead gets a full-model ship ("replicate/model-full")
// on the next maintain()/update_model() cycle, versioned so a late ack
// of an old full ship never clears staleness spuriously.
//
// Elasticity (PR 9): join(endpoint) admits a new shard — it attaches a
// downstream client, warms the newcomer with the same full-model
// machinery (stale until the CURRENT model version is acked), and only
// then splices it into the ring, bumping the topology epoch. leave()
// removes a shard from the ring immediately (epoch bump), closes its
// client so no new forwards can race in, lets the pending forwards
// settle on the old route, and retires the shard once they have. Every
// routing decision happens under the topology lock against exactly one
// ring state and is stamped with its epoch; a failover from an older
// epoch re-resolves its target against the current ring — so no
// session ever has two live owners.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "broker/invocation_policy.hpp"
#include "cluster/shard_ring.hpp"
#include "common/status.hpp"
#include "ingress/ingress_client.hpp"
#include "ingress/router.hpp"
#include "ingress/wire.hpp"
#include "model/model.hpp"
#include "net/network.hpp"

namespace mdsm::cluster {

struct ClusterConfig {
  std::string endpoint = "cluster";  ///< the fleet's public endpoint
  std::size_t virtual_nodes = 64;    ///< ring points per shard
  /// Per-shard health window (PR-4 machinery). The defaults trip after
  /// half of the last 16 forwards are lost, with min_samples guarding
  /// cold shards and a cooldown before half-open probes retest.
  broker::BreakerConfig health{.window = 16,
                               .min_samples = 4,
                               .failure_threshold = 0.5,
                               .cooldown = std::chrono::milliseconds(200),
                               .half_open_probes = 1};
  /// Reply budget per downstream hop before a forward counts as lost. A
  /// downstream client never retries on its own: a lost forward is
  /// re-forwarded to the replica shard once (failover).
  Duration downstream_reply_timeout = std::chrono::milliseconds(500);
};

class ClusterFrontEnd {
 public:
  /// A shard's place in the join → serve → drain → gone lifecycle.
  enum class ShardState {
    kJoining,   ///< warming via full-model ship; not in the ring yet
    kActive,    ///< in the ring, serving its key-arcs
    kDraining,  ///< out of the ring; pending forwards still settling
    kRetired,   ///< drained; client released, slot kept for index stability
  };

  /// Bind the front-end on `network`, forwarding to the shard ingress
  /// endpoints in `shard_endpoints` (index order = ring shard index).
  /// `authoritative_model` seeds the replication baseline — it must be
  /// the middleware model every shard was launched from.
  static Result<std::unique_ptr<ClusterFrontEnd>> attach(
      net::Network& network, const model::Model& authoritative_model,
      std::vector<std::string> shard_endpoints, ClusterConfig config = {});

  ~ClusterFrontEnd();
  ClusterFrontEnd(const ClusterFrontEnd&) = delete;
  ClusterFrontEnd& operator=(const ClusterFrontEnd&) = delete;

  [[nodiscard]] const std::string& endpoint_name() const noexcept {
    return endpoint_name_;
  }
  /// The ring itself. NOT synchronized against concurrent join/leave —
  /// single-threaded introspection (tests, examples) only; concurrent
  /// callers should use shard_for().
  [[nodiscard]] const ShardRing& ring() const noexcept { return ring_; }
  /// Slots ever allocated, retired ones included (indices are stable).
  [[nodiscard]] std::size_t shard_count() const;
  /// Shards currently in the ring.
  [[nodiscard]] std::size_t active_shard_count() const;
  [[nodiscard]] ShardState shard_state(std::size_t index) const;
  /// Topology epoch: bumps on every ring change (join completion,
  /// leave). Forwards are stamped with it so stale failovers re-resolve.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  /// Fraction of the keyspace the LAST topology change moved (the
  /// migration bound the bench asserts: ~1/N per single join/leave).
  [[nodiscard]] double last_rebalance_fraction() const noexcept {
    return last_rebalance_fraction_.load(std::memory_order_acquire);
  }
  /// The shard currently serving `session` (after health rerouting).
  [[nodiscard]] std::size_t shard_for(std::string_view session) const;

  /// Begin admitting a new shard serving `endpoint`: attach a
  /// downstream client, start the full-model warm-up, and splice it
  /// into the ring once the warm-up acks at the current model version.
  /// Returns the new shard's index immediately; completion is
  /// observable via shard_state() / stats().joins_completed.
  Result<std::size_t> join(const std::string& endpoint);

  /// Begin retiring shard `index`: remove it from the ring (new submits
  /// for its arcs route to the survivors at the bumped epoch), close
  /// its downstream client, and retire it once every pending forward
  /// has settled on the old route. Refuses to retire the last active
  /// shard. Completion is observable via shard_state() /
  /// stats().leaves_completed.
  Status leave(std::size_t index);

  /// Replace the authoritative middleware model: diff, ship the
  /// ChangeList to every current shard (stale shards get a full-model
  /// ship instead), adopt `next_model` as the new baseline. Returns the
  /// first immediate send failure (delivery outcomes arrive
  /// asynchronously and land in stats()).
  Status update_model(const model::Model& next_model);

  /// Housekeeping for simulation drivers: expire overdue downstream
  /// forwards (triggering retries/failover), retire drained leavers,
  /// and re-ship the full model to stale shards. Returns outcomes
  /// resolved.
  std::size_t maintain();

  struct Stats {
    std::uint64_t received = 0;    ///< wire messages from clients
    std::uint64_t forwarded = 0;   ///< submits relayed to a shard
    std::uint64_t rerouted = 0;    ///< sent to the replica: breaker open
    std::uint64_t failovers = 0;   ///< re-forwarded after a lost reply
    std::uint64_t refused = 0;     ///< refused at the front-end itself
    std::uint64_t replies = 0;     ///< replies returned to clients
    std::uint64_t reply_failures = 0;
    std::uint64_t query_fanouts = 0;  ///< query/* broadcast to all shards
    std::uint64_t breaker_trips = 0;  ///< health windows opened
    // Replication ledger:
    std::uint64_t deltas_shipped = 0;  ///< update_model() calls that diffed
    std::uint64_t delta_bytes = 0;     ///< ChangeList bytes actually sent
    std::uint64_t full_bytes = 0;      ///< full-model bytes NOT sent
    std::uint64_t replication_acks = 0;
    std::uint64_t replication_failures = 0;
    // Full-sync / staleness ledger (PR 9):
    std::uint64_t stale_marks = 0;       ///< shards marked divergent
    std::uint64_t full_syncs_shipped = 0;  ///< full-model ships sent
    std::uint64_t full_sync_acks = 0;      ///< ...that the shard accepted
    // Elasticity ledger (PR 9):
    std::uint64_t joins_started = 0;
    std::uint64_t joins_completed = 0;   ///< warm shard spliced into ring
    std::uint64_t leaves_started = 0;
    std::uint64_t leaves_completed = 0;  ///< drained shard retired
    // Session-state replication ledger (PR 10):
    std::uint64_t checkpoints_taken = 0;   ///< captures pulled from owners
    std::uint64_t checkpoint_acks = 0;     ///< replica staged the ship
    std::uint64_t checkpoint_failures = 0;  ///< capture or ship lost/nacked
    std::uint64_t resumes_shipped = 0;    ///< failovers that found a ckpt
    std::uint64_t resumes_completed = 0;  ///< ...whose import acked
  };
  [[nodiscard]] Stats stats() const;

  /// Version of the last checkpoint captured for `session` (0 = none) —
  /// exposed for tests.
  [[nodiscard]] std::int64_t checkpoint_version(std::string_view session) const;

 private:
  /// Everything one forwarded submit needs to fail over and reply.
  struct Forward {
    std::string client;  ///< original sender endpoint
    std::uint64_t id = 0;  ///< original request id (reply correlation)
    std::string session;
    std::string dsml;
    std::string text;
    std::optional<Duration> deadline;  ///< REMAINING budget this attempt
    bool high_priority = false;
    std::optional<std::size_t> fallback;  ///< replica to try on loss
    /// Verdict the target shard's breaker issued for this attempt
    /// (probes must retire their probe slot on settle).
    broker::CircuitBreaker::Admission admission =
        broker::CircuitBreaker::Admission::kAllow;
    /// Topology epoch the routing decision was made under; a failover
    /// after a flip re-resolves its target against the current ring.
    std::uint64_t epoch = 0;
    /// When this attempt left the front-end (network clock), so a
    /// failover can deduct the wait already spent from the deadline.
    TimePoint sent_at{};
  };

  struct Shard {
    std::string endpoint;
    /// breaker declared BEFORE client: the client's destructor fires
    /// straggler callbacks that feed the health window, so the breaker
    /// must outlive it.
    std::unique_ptr<broker::CircuitBreaker> breaker;
    /// shared_ptr so in-flight forwards and maintenance snapshots keep
    /// the client alive across a concurrent retire; null once retired.
    std::shared_ptr<ingress::IngressClient> client;
    std::atomic<ShardState> state{ShardState::kActive};
    /// Replica diverged (missed/nacked a delta, or still warming):
    /// deltas are withheld; the full model re-ships until the current
    /// version acks.
    std::atomic<bool> stale{false};
    std::atomic<bool> full_sync_in_flight{false};
    /// Highest model version this shard acked (delta or full).
    std::atomic<std::uint64_t> acked_version{0};
  };

  ClusterFrontEnd(net::Network& network, model::Model authoritative);

  void on_message(const net::Message& message);
  void handle_submit(const net::Message& message,
                     const ingress::RouteParams& params);
  void handle_query(const net::Message& message,
                    const ingress::RouteParams& params);
  void forward(Forward state, std::size_t shard_index);
  /// Forward `state` to `shard_index`, first importing the session's
  /// cached checkpoint there if that shard is not already known to hold
  /// it live. Used by both resume paths: settle-time failover and
  /// admission-time reroute (breaker open on the owner).
  void resume_then_forward(Forward state, std::size_t shard_index);
  /// Resolve one downstream outcome: fail over, or reply to the client.
  void settle_forward(Forward& state, std::size_t shard_index,
                      const ingress::RemoteOutcome& outcome);
  /// Ship the current full model to `index` (at most one in flight per
  /// shard). Clears staleness — and completes a pending join — when the
  /// ack matches the current model version.
  void kick_full_sync(std::size_t index);
  /// Splice a warmed joiner into the ring (unique topology lock).
  void complete_join(std::size_t index);
  /// Release a drained leaver's client and mark the slot retired.
  void retire(std::size_t index);
  void mark_stale(std::size_t index);
  /// Cadence hook (PR 10): count a completed sequenced request for
  /// `session` and, when the model-driven interval fires, pull a fresh
  /// checkpoint from the owning shard.
  void maybe_checkpoint(const std::string& session, std::size_t owner);
  /// Capture `session`'s state from shard `owner` ("checkpoint/{session}"),
  /// version-stamp and cache it, then ship it to the ring replica.
  void checkpoint_session(const std::string& session, std::size_t owner);
  /// Ship a cached checkpoint to shard `index` via
  /// "replicate/session-state". `resume` asks the receiver to import it
  /// into its live platform (the failover path); false merely stages it.
  /// `done(acked)` fires once the ship settles (immediately on a send
  /// failure); it may be null.
  void ship_session_state(const std::string& session, std::int64_t version,
                          const std::string& state_text, std::size_t index,
                          bool resume, std::function<void(bool)> done);
  /// Warm a joining shard with every cached checkpoint (stage-only
  /// ships) — called before the join completes.
  void warm_joiner_sessions(std::size_t index);
  void send_reply(const std::string& to, ingress::wire::Reply reply);
  void refuse(const std::string& to, std::uint64_t request_id,
              const Status& status, std::string refusal);
  /// Feed the shard's health window; counts breaker trips.
  void record_health(std::size_t shard_index,
                     broker::CircuitBreaker::Admission admission,
                     bool success);

  net::Network* network_;
  std::shared_ptr<net::Endpoint> endpoint_;
  std::string endpoint_name_;
  ingress::Router router_;
  ClusterConfig config_;

  /// Guards the SHAPE of shards_ (append on join, client release on
  /// retire) and every ring_ read/write. Routing paths take it shared
  /// for the decision only — never across a downstream send, so a
  /// reentrant settle can re-acquire it safely.
  mutable std::shared_mutex topology_mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardRing ring_{1};
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<double> last_rebalance_fraction_{0.0};

  mutable std::mutex model_mutex_;  ///< guards authoritative_; serializes
                                    ///< model_version_ writes
  model::Model authoritative_;
  /// Atomic so ack callbacks can compare versions without nesting
  /// model_mutex_ inside topology_mutex_ (the lock order is
  /// model → nothing, topology → nothing — never one inside the other).
  std::atomic<std::uint64_t> model_version_{1};
  /// Teardown latch: straggler outcomes fired by destructing downstream
  /// clients must not fail over or touch breakers mid-destruction.
  std::atomic<bool> shutting_down_{false};

  /// Session-state replication (PR 10). Decoded from the authoritative
  /// model's `checkpoint_interval` attr: pull + ship a checkpoint after
  /// every N completed sequenced requests per session (0 disables).
  std::int64_t checkpoint_interval_ = 0;
  struct SessionCheckpoint {
    std::int64_t version = 0;    ///< stamp of the cached state_text
    std::string state_text;      ///< last captured checkpoint (text codec)
    std::uint64_t completed = 0;  ///< completed requests since attach
    bool capture_in_flight = false;  ///< at most one pull per session
    /// Highest version known to be LIVE at resumed_shard — captures mark
    /// their source shard current; resume ships mark their target. A
    /// forward to that shard skips the redundant re-import.
    std::int64_t resumed_version = 0;
    std::size_t resumed_shard = static_cast<std::size_t>(-1);
  };
  mutable std::mutex checkpoint_mutex_;  ///< guards checkpoints_ only;
                                         ///< never held across a send
  std::map<std::string, SessionCheckpoint, std::less<>> checkpoints_;

  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> rerouted_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> replies_{0};
  std::atomic<std::uint64_t> reply_failures_{0};
  std::atomic<std::uint64_t> query_fanouts_{0};
  std::atomic<std::uint64_t> breaker_trips_{0};
  std::atomic<std::uint64_t> deltas_shipped_{0};
  std::atomic<std::uint64_t> delta_bytes_{0};
  std::atomic<std::uint64_t> full_bytes_{0};
  std::atomic<std::uint64_t> replication_acks_{0};
  std::atomic<std::uint64_t> replication_failures_{0};
  std::atomic<std::uint64_t> stale_marks_{0};
  std::atomic<std::uint64_t> full_syncs_shipped_{0};
  std::atomic<std::uint64_t> full_sync_acks_{0};
  std::atomic<std::uint64_t> joins_started_{0};
  std::atomic<std::uint64_t> joins_completed_{0};
  std::atomic<std::uint64_t> leaves_started_{0};
  std::atomic<std::uint64_t> leaves_completed_{0};
  std::atomic<std::uint64_t> checkpoints_taken_{0};
  std::atomic<std::uint64_t> checkpoint_acks_{0};
  std::atomic<std::uint64_t> checkpoint_failures_{0};
  std::atomic<std::uint64_t> resumes_shipped_{0};
  std::atomic<std::uint64_t> resumes_completed_{0};
};

}  // namespace mdsm::cluster
