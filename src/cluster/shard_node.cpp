#include "cluster/shard_node.hpp"

#include <set>
#include <utility>
#include <vector>

#include "core/middleware_metamodel.hpp"
#include "core/spec_decode.hpp"
#include "ingress/wire.hpp"
#include "model/text_format.hpp"

namespace mdsm::cluster {

namespace {

/// The DscSpec/ProcedureSpec ancestor owning `id` in `model` (the
/// object itself counts), or null when the object sits outside the
/// controller vocabulary (platform attrs, broker specs, ...).
const model::ModelObject* owning_spec(const model::Model& model,
                                      std::string_view id) {
  const model::ModelObject* object = model.find(id);
  while (object != nullptr) {
    if (object->class_name() == "ProcedureSpec" ||
        object->class_name() == "DscSpec") {
      return object;
    }
    if (object->parent_id().empty()) return nullptr;
    object = model.find(object->parent_id());
  }
  return nullptr;
}

/// The session-state envelope is a list of [key, value] pairs
/// ([["session", s], ["version", v], ["resume", b], ["state", tree]]);
/// find `key`.
const model::Value* find_envelope_entry(const model::Value& envelope,
                                        std::string_view key) {
  if (!envelope.is_list()) return nullptr;
  for (const model::Value& entry : envelope.as_list()) {
    if (!entry.is_list() || entry.as_list().size() != 2) continue;
    const model::ValueList& pair = entry.as_list();
    if (pair[0].is_string() && pair[0].as_string() == key) return &pair[1];
  }
  return nullptr;
}

}  // namespace

Result<std::unique_ptr<ShardNode>> ShardNode::launch(
    const model::Model& middleware_model, net::Network& network,
    ShardNodeOptions options) {
  Result<std::unique_ptr<core::Platform>> platform =
      core::Platform::assemble(middleware_model,
                               std::move(options.platform_config));
  if (!platform.ok()) return platform.status();

  std::unique_ptr<ShardNode> node(new ShardNode(middleware_model.clone()));
  node->network_ = &network;
  node->platform_ = std::move(platform).value();
  if (options.provision != nullptr) {
    MDSM_RETURN_IF_ERROR(options.provision(*node->platform_));
  }
  MDSM_RETURN_IF_ERROR(node->platform_->start());

  ingress::IngressServerOptions server_options;
  server_options.endpoint = std::move(options.endpoint);
  server_options.manual_reply_loop = options.manual_reply_loop;
  Result<std::unique_ptr<ingress::IngressServer>> server =
      ingress::IngressServer::attach(*node->platform_, network,
                                     std::move(server_options));
  if (!server.ok()) {
    (void)node->platform_->stop();
    return server.status();
  }
  node->server_ = std::move(server).value();
  node->install_replication_route();
  return node;
}

ShardNode::~ShardNode() {
  // Same ordering as kill(): unbind the endpoint so no new delivery
  // races the drain, stop the platform while the server is still alive
  // (in-flight submit callbacks capture it), then free the server.
  if (server_ != nullptr && network_ != nullptr) {
    (void)network_->remove_endpoint(server_->endpoint_name());
  }
  if (platform_ != nullptr && platform_->running()) (void)platform_->stop();
  server_.reset();
}

void ShardNode::install_replication_route() {
  // Registered before any traffic flows (launch returns the node only
  // after this), satisfying the router's no-concurrent-mutation rule.
  (void)server_->router().add(
      "replicate/{what}",
      [this](const net::Message& message, const ingress::RouteParams& params) {
        handle_replicate(message, params);
      });
  (void)server_->router().add(
      "checkpoint/{session}",
      [this](const net::Message& message, const ingress::RouteParams& params) {
        handle_checkpoint(message, params);
      });
}

void ShardNode::handle_checkpoint(const net::Message& message,
                                  const ingress::RouteParams& params) {
  Result<ingress::wire::Request> decoded =
      ingress::wire::decode_request(message.payload);
  if (!decoded.ok()) {
    server_->post_refusal(message.from, 0, decoded.status(),
                          ingress::wire::is_version_mismatch(decoded.status())
                              ? "bad-version"
                              : "malformed");
    return;
  }
  const std::uint64_t id = decoded.value().request_id;
  Result<model::Value> state =
      platform_->export_session_state(std::string(params.get("session")));
  if (!state.ok()) {
    server_->post_refusal(message.from, id, state.status(), {});
    return;
  }
  {
    std::lock_guard lock(replica_mutex_);
    ++stats_.checkpoints_exported;
  }
  ingress::wire::Reply reply;
  reply.request_id = id;
  reply.message = state.value().to_text();
  server_->post_reply(message.from, std::move(reply));
}

void ShardNode::handle_session_state(const net::Message& message,
                                     std::uint64_t id,
                                     const ingress::wire::Request& request) {
  const model::Value* session = find_envelope_entry(request.body, "session");
  const model::Value* version = find_envelope_entry(request.body, "version");
  const model::Value* state = find_envelope_entry(request.body, "state");
  const model::Value* resume = find_envelope_entry(request.body, "resume");
  if (session == nullptr || !session->is_string() || version == nullptr ||
      !version->is_int() || state == nullptr) {
    server_->post_refusal(
        message.from, id,
        InvalidArgument("session-state envelope needs session/version/state"),
        "malformed");
    return;
  }
  const std::string& key = session->as_string();
  const std::int64_t shipped = version->as_int();
  {
    std::lock_guard lock(replica_mutex_);
    auto it = staged_checkpoints_.find(key);
    // Strict <: re-shipping the staged version is an idempotent retry
    // and must succeed; only an *older* checkpoint is refused so a
    // delayed ship can never roll a session back.
    if (it != staged_checkpoints_.end() && shipped < it->second.version) {
      ++stats_.session_states_rejected_stale;
      server_->post_refusal(
          message.from, id,
          FailedPrecondition("checkpoint v" + std::to_string(shipped) +
                             " for session '" + key +
                             "' is older than staged v" +
                             std::to_string(it->second.version)),
          "stale-checkpoint");
      return;
    }
    staged_checkpoints_[key] = StagedCheckpoint{shipped, *state};
    ++stats_.session_states_staged;
  }
  if (resume != nullptr && resume->is_bool() && resume->as_bool()) {
    // Failover: adopt the checkpoint into the live platform *before*
    // the front-end forwards the retried request, so sequenced work
    // resumes from where the dead owner left off.
    if (Status imported = platform_->import_session_state(*state);
        !imported.ok()) {
      server_->post_refusal(message.from, id, imported, {});
      return;
    }
    std::lock_guard lock(replica_mutex_);
    ++stats_.session_states_imported;
  }
  ingress::wire::Reply reply;
  reply.request_id = id;
  reply.message = "session-state staged";
  reply.commands = shipped;
  server_->post_reply(message.from, std::move(reply));
}

void ShardNode::handle_replicate(const net::Message& message,
                                 const ingress::RouteParams& params) {
  Result<ingress::wire::Request> decoded =
      ingress::wire::decode_request(message.payload);
  if (!decoded.ok()) {
    server_->post_refusal(message.from, 0, decoded.status(),
                          ingress::wire::is_version_mismatch(decoded.status())
                              ? "bad-version"
                              : "malformed");
    return;
  }
  const std::uint64_t id = decoded.value().request_id;
  const std::string_view what = params.get("what");
  if (what == "model-full") {
    // Full-model ship: the warm-up / stale-repair path. The payload is
    // serialized model text; the node diffs it against its replica so
    // the apply machinery (and the vocabulary re-sync) is shared with
    // the delta path.
    Result<model::Model> full = model::parse_model(
        decoded.value().text, core::middleware_metamodel());
    if (!full.ok()) {
      server_->post_refusal(message.from, id, full.status(), "malformed");
      return;
    }
    if (Status status = apply_full_model(full.value()); !status.ok()) {
      server_->post_refusal(message.from, id, status, {});
      return;
    }
    ingress::wire::Reply reply;
    reply.request_id = id;
    reply.message = "model-full applied";
    server_->post_reply(message.from, std::move(reply));
    return;
  }
  if (what == "session-state") {
    handle_session_state(message, id, decoded.value());
    return;
  }
  if (what != "model-diff") {
    server_->post_refusal(
        message.from, id,
        NotFound("unknown replication payload '" + std::string(what) + "'"),
        "no-route");
    return;
  }
  Result<model::ChangeList> changes =
      model::decode_changes(decoded.value().body);
  if (!changes.ok()) {
    server_->post_refusal(message.from, id, changes.status(), "malformed");
    return;
  }
  const std::int64_t applied =
      static_cast<std::int64_t>(changes.value().size());
  if (Status status = apply_changes(changes.value()); !status.ok()) {
    server_->post_refusal(message.from, id, status, {});
    return;
  }
  ingress::wire::Reply reply;
  reply.request_id = id;
  reply.message = "model-diff applied";
  reply.commands = applied;
  server_->post_reply(message.from, std::move(reply));
}

Status ShardNode::apply_changes(const model::ChangeList& changes) {
  std::lock_guard lock(replica_mutex_);
  return apply_changes_locked(changes);
}

Status ShardNode::apply_full_model(const model::Model& full) {
  std::lock_guard lock(replica_mutex_);
  // The diff must be computed against the replica under the same lock
  // that apply uses, or a racing delta could wedge between the two.
  const model::ChangeList changes = model::diff(replica_model_, full);
  if (!changes.empty()) {
    MDSM_RETURN_IF_ERROR(apply_changes_locked(changes));
  }
  ++stats_.full_syncs_applied;
  return Status::Ok();
}

Status ShardNode::apply_changes_locked(const model::ChangeList& changes) {
  // Pre-apply pass: removals must be resolved against the model that
  // still contains them — both the registry keys (`name` attributes) of
  // removed specs, and the owning spec of a removed *descendant* (a
  // step deleted from a surviving procedure re-syncs that procedure).
  std::vector<std::string> removed_procedures;
  std::vector<std::string> removed_dscs;
  std::set<std::string> touched_specs;
  for (const model::Change& change : changes) {
    if (change.kind == model::ChangeKind::kRemoveObject) {
      const model::ModelObject* object = replica_model_.find(change.object_id);
      if (object == nullptr) continue;
      if (object->class_name() == "ProcedureSpec") {
        removed_procedures.push_back(object->get_string("name"));
        continue;
      }
      if (object->class_name() == "DscSpec") {
        removed_dscs.push_back(object->get_string("name"));
        continue;
      }
      if (const model::ModelObject* spec =
              owning_spec(replica_model_, change.object_id);
          spec != nullptr) {
        touched_specs.insert(spec->id());
      }
    }
  }

  MDSM_RETURN_IF_ERROR(model::apply(changes, replica_model_));

  // Post-apply pass: additions and mutations resolve against the new
  // model state (an added object's ancestors exist only now).
  for (const model::Change& change : changes) {
    if (change.kind == model::ChangeKind::kRemoveObject) continue;
    if (const model::ModelObject* spec =
            owning_spec(replica_model_, change.object_id);
        spec != nullptr) {
      touched_specs.insert(spec->id());
    }
  }

  std::vector<controller::Dsc> synced_dscs;
  std::vector<controller::Procedure> synced_procedures;
  for (const std::string& spec_id : touched_specs) {
    const model::ModelObject* spec = replica_model_.find(spec_id);
    if (spec == nullptr) continue;  // removed later in the same delta
    if (spec->class_name() == "DscSpec") {
      synced_dscs.push_back(core::decode_dsc(*spec));
      continue;
    }
    Result<controller::Procedure> procedure =
        core::decode_procedure(replica_model_, *spec);
    if (!procedure.ok()) return procedure.status();
    synced_procedures.push_back(std::move(procedure.value()));
  }

  // One catalog edit for the whole delta: concurrent generations see the
  // vocabulary from before it or after it, never a re-synced artifact
  // half-way through its remove and re-add. Withdraw vocabulary first (a
  // procedure and its classifier may leave together), then upsert DSCs
  // before the procedures that validate against them.
  MDSM_RETURN_IF_ERROR(platform_->controller().catalog().edit(
      [&](controller::Catalog& draft) {
        for (const std::string& name : removed_procedures) {
          (void)draft.remove_procedure(name);
        }
        for (const std::string& name : removed_dscs) {
          (void)draft.remove_dsc(name);
        }
        for (controller::Dsc& dsc : synced_dscs) {
          (void)draft.remove_dsc(dsc.name);
          MDSM_RETURN_IF_ERROR(draft.add_dsc(std::move(dsc)));
        }
        for (controller::Procedure& procedure : synced_procedures) {
          (void)draft.remove_procedure(procedure.name);
          MDSM_RETURN_IF_ERROR(draft.add_procedure(std::move(procedure)));
        }
        return Status::Ok();
      }));
  stats_.dscs_synced += synced_dscs.size();
  stats_.procedures_synced += synced_procedures.size();
  ++stats_.deltas_applied;
  stats_.changes_applied += changes.size();
  return Status::Ok();
}

std::size_t ShardNode::pump() {
  return server_ != nullptr ? server_->pump() : 0;
}

void ShardNode::kill() {
  if (killed_) return;
  killed_ = true;
  // Unbind first — traffic becomes undeliverable — but keep the server
  // object alive: pipeline workers still hold submit callbacks that
  // capture it. stop() drains those callbacks (their replies now fail
  // kUnavailable and are dropped); only then may the server be freed.
  (void)network_->remove_endpoint(server_->endpoint_name());
  if (platform_ != nullptr && platform_->running()) (void)platform_->stop();
  server_.reset();
}

ShardNode::Stats ShardNode::replication_stats() const {
  std::lock_guard lock(replica_mutex_);
  return stats_;
}

std::optional<std::int64_t> ShardNode::staged_checkpoint_version(
    std::string_view session) const {
  std::lock_guard lock(replica_mutex_);
  auto it = staged_checkpoints_.find(session);
  if (it == staged_checkpoints_.end()) return std::nullopt;
  return it->second.version;
}

}  // namespace mdsm::cluster
