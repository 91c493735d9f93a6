// One member of the sharded platform cluster (PR 8): a full Platform
// plus its own IngressServer endpoint on the shared simulated network,
// and a replica of the cluster's authoritative middleware model.
//
// Runtime-model changes (DSK/procedure updates) reach shards as
// model::diff ChangeLists on the "replicate/{what}" extension route —
// the front-end ships deltas, never full model text. The node applies
// the delta to its replica model, then re-decodes only the controller
// artifacts the delta touched (DscSpec and ProcedureSpec upserts and
// removals) and publishes them as one controller catalog edit. The new
// catalog version invalidates cached intent models, and a generation in
// flight keeps the snapshot it started on, so traffic during a
// replication never executes against a stale or half-applied
// vocabulary.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/status.hpp"
#include "core/platform.hpp"
#include "ingress/ingress_server.hpp"
#include "model/diff.hpp"
#include "model/model.hpp"
#include "net/network.hpp"

namespace mdsm::cluster {

struct ShardNodeOptions {
  /// Endpoint this shard's ingress binds ("" derives
  /// "<platform-name>.ingress" — pass explicit names, shards share one
  /// middleware model).
  std::string endpoint;
  /// Platform assembly knobs (clock, pipeline threads, LTS override...).
  core::PlatformConfig platform_config;
  /// Manual reply loop for deterministic tests (see IngressServer).
  bool manual_reply_loop = false;
  /// Called between assemble() and start() to install the shard's
  /// resource adapters (each shard needs its own adapter instances).
  std::function<Status(core::Platform&)> provision;
};

class ShardNode {
 public:
  /// Assemble, provision and start a platform from `middleware_model`,
  /// bind its ingress on `network`, and install the replication route.
  static Result<std::unique_ptr<ShardNode>> launch(
      const model::Model& middleware_model, net::Network& network,
      ShardNodeOptions options);

  ~ShardNode();
  ShardNode(const ShardNode&) = delete;
  ShardNode& operator=(const ShardNode&) = delete;

  [[nodiscard]] const std::string& endpoint_name() const noexcept {
    return server_->endpoint_name();
  }
  [[nodiscard]] core::Platform& platform() noexcept { return *platform_; }
  [[nodiscard]] ingress::IngressServer& server() noexcept { return *server_; }

  /// Manual reply loop only: drain queued replies.
  std::size_t pump();

  /// Simulate a node death: unbind the endpoint and stop the platform.
  /// Subsequent messages to this shard become undeliverable, which is
  /// exactly what the front-end's health window observes.
  void kill();
  [[nodiscard]] bool alive() const noexcept { return !killed_; }

  /// Apply a replication delta to the replica model and re-sync the
  /// controller vocabulary it touched (exposed for tests; the wire path
  /// arrives via "replicate/model-diff").
  Status apply_changes(const model::ChangeList& changes);

  /// Full-model sync (PR 9): diff the authoritative `full` model against
  /// the local replica and apply the difference — the warm-up path for a
  /// freshly joined shard and the repair path for one that missed or
  /// nacked a delta. The wire path arrives via "replicate/model-full"
  /// carrying the serialized model text.
  Status apply_full_model(const model::Model& full);

  struct Stats {
    std::uint64_t deltas_applied = 0;   ///< replication payloads accepted
    std::uint64_t changes_applied = 0;  ///< individual changes in them
    std::uint64_t full_syncs_applied = 0;  ///< full-model ships accepted
    std::uint64_t procedures_synced = 0;
    std::uint64_t dscs_synced = 0;
    // Session-state replication (PR 10).
    std::uint64_t checkpoints_exported = 0;  ///< "checkpoint/{session}" serves
    std::uint64_t session_states_staged = 0;  ///< checkpoints accepted+held
    std::uint64_t session_states_imported = 0;  ///< resume imports applied
    std::uint64_t session_states_rejected_stale = 0;  ///< version-gated drops
  };
  [[nodiscard]] Stats replication_stats() const;

  /// Version of the checkpoint currently staged for `session` (nullopt
  /// when none has been shipped) — exposed for tests.
  [[nodiscard]] std::optional<std::int64_t> staged_checkpoint_version(
      std::string_view session) const;

 private:
  explicit ShardNode(model::Model replica_model)
      : replica_model_(std::move(replica_model)) {}

  void install_replication_route();
  void handle_replicate(const net::Message& message,
                        const ingress::RouteParams& params);
  /// Serve "checkpoint/{session}": export this platform's session state
  /// and reply with its text encoding (the front-end's capture path).
  void handle_checkpoint(const net::Message& message,
                         const ingress::RouteParams& params);
  /// "replicate/session-state" payload: version-gate, stage, and (on a
  /// resume ship) import into the live platform.
  void handle_session_state(const net::Message& message, std::uint64_t id,
                            const ingress::wire::Request& request);
  /// apply_changes with replica_mutex_ already held.
  Status apply_changes_locked(const model::ChangeList& changes);

  std::unique_ptr<core::Platform> platform_;
  std::unique_ptr<ingress::IngressServer> server_;
  net::Network* network_ = nullptr;
  bool killed_ = false;

  mutable std::mutex replica_mutex_;  ///< guards replica_model_ + stats
  model::Model replica_model_;
  Stats stats_;

  /// Last checkpoint shipped per session, version-gated (strict <: an
  /// equal-version re-ship is an idempotent retry and is accepted).
  struct StagedCheckpoint {
    std::int64_t version = 0;
    model::Value state;
  };
  std::map<std::string, StagedCheckpoint, std::less<>>
      staged_checkpoints_;  ///< guarded by replica_mutex_
};

}  // namespace mdsm::cluster
