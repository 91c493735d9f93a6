#include "cluster/cluster_front_end.hpp"

#include <utility>

#include "model/diff.hpp"
#include "model/text_format.hpp"

namespace mdsm::cluster {

namespace wire = ingress::wire;

namespace {

/// Downstream stub options for the shard at `index`: one client per
/// shard, each on its own endpoint so reply correlation never crosses
/// shards.
ingress::IngressClientOptions downstream_options(const ClusterConfig& config,
                                                 std::size_t index) {
  ingress::IngressClientOptions options;
  options.endpoint = config.endpoint + ".to." + std::to_string(index);
  options.reply_timeout = config.downstream_reply_timeout;
  return options;
}

void raise_acked_version(std::atomic<std::uint64_t>& acked,
                         std::uint64_t version) {
  std::uint64_t current = acked.load(std::memory_order_relaxed);
  while (current < version &&
         !acked.compare_exchange_weak(current, version,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace

ClusterFrontEnd::ClusterFrontEnd(net::Network& network,
                                 model::Model authoritative)
    : network_(&network), authoritative_(std::move(authoritative)) {}

Result<std::unique_ptr<ClusterFrontEnd>> ClusterFrontEnd::attach(
    net::Network& network, const model::Model& authoritative_model,
    std::vector<std::string> shard_endpoints, ClusterConfig config) {
  if (shard_endpoints.empty()) {
    return InvalidArgument("a cluster needs at least one shard endpoint");
  }
  Result<net::Endpoint*> created = network.create_endpoint(config.endpoint);
  if (!created.ok()) return created.status();

  std::unique_ptr<ClusterFrontEnd> front(
      new ClusterFrontEnd(network, authoritative_model.clone()));
  front->endpoint_ = network.endpoint_handle(config.endpoint);
  front->endpoint_name_ = config.endpoint;
  front->ring_ = ShardRing(shard_endpoints.size(), config.virtual_nodes);

  for (std::size_t i = 0; i < shard_endpoints.size(); ++i) {
    auto shard = std::make_unique<Shard>();
    shard->endpoint = shard_endpoints[i];
    Result<std::unique_ptr<ingress::IngressClient>> client =
        ingress::IngressClient::attach(network, shard_endpoints[i],
                                       downstream_options(config, i));
    if (!client.ok()) {
      front.reset();  // destructor unwinds endpoints created so far
      return client.status();
    }
    shard->client = std::move(client).value();
    shard->breaker = std::make_unique<broker::CircuitBreaker>(config.health);
    shard->acked_version.store(1, std::memory_order_relaxed);
    front->shards_.push_back(std::move(shard));
  }
  front->config_ = std::move(config);

  // Session-state replication cadence is model-driven (PR 10): the
  // MiddlewarePlatform root's `checkpoint_interval` attr says how many
  // completed sequenced requests a session accrues between checkpoints.
  auto platforms = authoritative_model.objects_of("MiddlewarePlatform");
  if (!platforms.empty()) {
    front->checkpoint_interval_ =
        platforms[0]->get_int("checkpoint_interval", 0);
  }

  Status routes = front->router_.add(
      wire::kSubmitPattern,
      [raw = front.get()](const net::Message& message,
                          const ingress::RouteParams& params) {
        raw->handle_submit(message, params);
      });
  if (routes.ok()) {
    routes = front->router_.add(
        wire::kQueryPattern,
        [raw = front.get()](const net::Message& message,
                            const ingress::RouteParams& params) {
          raw->handle_query(message, params);
        });
  }
  if (!routes.ok()) {
    front.reset();
    return routes;
  }

  // Last: traffic may arrive the moment the handler lands.
  ClusterFrontEnd* raw = front.get();
  front->endpoint_->set_handler(
      [raw](const net::Message& message) { raw->on_message(message); });
  return front;
}

ClusterFrontEnd::~ClusterFrontEnd() {
  shutting_down_.store(true, std::memory_order_release);
  if (endpoint_ != nullptr) {
    endpoint_->set_handler(nullptr);
    // Downstream clients resolve their pending forwards on destruction
    // (settle_forward sees shutting_down_ and only replies, never fails
    // over); quiescing the public endpoint first means no new ones
    // arrive.
    shards_.clear();
    if (!endpoint_->detached()) network_->remove_endpoint(endpoint_name_);
  }
}

std::size_t ClusterFrontEnd::shard_count() const {
  std::shared_lock lock(topology_mutex_);
  return shards_.size();
}

std::size_t ClusterFrontEnd::active_shard_count() const {
  std::shared_lock lock(topology_mutex_);
  return ring_.shards();
}

ClusterFrontEnd::ShardState ClusterFrontEnd::shard_state(
    std::size_t index) const {
  std::shared_lock lock(topology_mutex_);
  if (index >= shards_.size()) return ShardState::kRetired;
  return shards_[index]->state.load(std::memory_order_acquire);
}

std::size_t ClusterFrontEnd::shard_for(std::string_view session) const {
  std::shared_lock lock(topology_mutex_);
  const std::size_t primary = ring_.owner(session);
  // Peek, don't admit: state() alone — an admit() here would consume
  // half-open probe slots that belong to real traffic.
  if (shards_[primary]->breaker->state() ==
      broker::CircuitBreaker::State::kOpen) {
    return ring_.replica(session);
  }
  return primary;
}

void ClusterFrontEnd::on_message(const net::Message& message) {
  received_.fetch_add(1, std::memory_order_relaxed);
  std::optional<ingress::Router::Match> match = router_.route(message.topic);
  if (!match.has_value()) {
    Result<wire::Request> decoded = wire::decode_request(message.payload);
    const std::uint64_t id = decoded.ok() ? decoded.value().request_id : 0;
    refuse(message.from, id,
           NotFound("no route for topic '" + message.topic + "'"),
           "no-route");
    return;
  }
  (*match->handler)(message, match->params);
}

void ClusterFrontEnd::handle_submit(const net::Message& message,
                                    const ingress::RouteParams& params) {
  Result<wire::Request> decoded = wire::decode_request(message.payload);
  if (!decoded.ok()) {
    refuse(message.from, 0, decoded.status(),
           wire::is_version_mismatch(decoded.status()) ? "bad-version"
                                                       : "malformed");
    return;
  }
  wire::Request request = std::move(decoded).value();

  Forward state;
  state.client = message.from;
  state.id = request.request_id;
  state.session = std::string(params.get("session"));
  state.dsml = std::string(params.get("dsml"));
  state.text = std::move(request.text);
  state.high_priority = request.high_priority;
  if (request.deadline_us > 0) {
    state.deadline = Duration(request.deadline_us);
  }

  std::size_t target = 0;
  bool rerouted = false;  // off the owner → resume the session first
  std::optional<Status> refusal;  // decided under the lock, sent outside
  {
    std::shared_lock lock(topology_mutex_);
    const std::size_t primary = ring_.owner(state.session);
    const std::size_t replica = ring_.replica(state.session);
    target = primary;
    if (replica != primary) state.fallback = replica;
    state.epoch = epoch_.load(std::memory_order_acquire);

    // Health gate: an open primary window reroutes the whole attempt to
    // the replica — through the REPLICA's own breaker, so a tripped
    // replica is never dogpiled and its window sees correct verdicts.
    broker::CircuitBreaker::AdmitResult admit =
        shards_[primary]->breaker->admit(network_->clock().now());
    if (admit.admission == broker::CircuitBreaker::Admission::kReject) {
      if (replica == primary) {
        refusal = Unavailable("shard " + std::to_string(primary) +
                              " is unhealthy and the ring has no replica");
      } else {
        broker::CircuitBreaker::AdmitResult replica_admit =
            shards_[replica]->breaker->admit(network_->clock().now());
        if (replica_admit.admission ==
            broker::CircuitBreaker::Admission::kReject) {
          refusal = Unavailable(
              "shards " + std::to_string(primary) + " and " +
              std::to_string(replica) +
              " are both unhealthy (primary and replica windows open)");
        } else {
          rerouted_.fetch_add(1, std::memory_order_relaxed);
          rerouted = true;
          target = replica;
          state.fallback.reset();  // the replica is the last resort
          state.admission = replica_admit.admission;
        }
      }
    } else {
      state.admission = admit.admission;  // kAllow, or a half-open kProbe
    }
  }
  if (refusal.has_value()) {
    refuse(message.from, state.id, *refusal, "shard-unavailable");
    return;
  }
  // Admission-time reroute is a resume path too (PR 10): the rerouted
  // request lands on the replica, which must import the session's last
  // checkpoint before serving or it would restart sequenced work cold.
  if (rerouted) {
    resume_then_forward(std::move(state), target);
    return;
  }
  forward(std::move(state), target);
}

void ClusterFrontEnd::forward(Forward state, std::size_t shard_index) {
  // Shared ownership: the downstream callback needs the state to settle
  // the outcome, but a send failure drops that callback unfired and the
  // failure path here still needs it for the failover/refusal.
  auto shared = std::make_shared<Forward>(std::move(state));
  std::shared_ptr<ingress::IngressClient> client;
  {
    std::shared_lock lock(topology_mutex_);
    client = shards_[shard_index]->client;  // null once retired
  }

  ingress::RemoteSubmitOptions options;
  options.deadline = shared->deadline;
  options.high_priority = shared->high_priority;
  // Loss detection runs on the hop's own reply_timeout cadence, NOT
  // reply_timeout + deadline: a failover must happen while the client's
  // deadline still has budget left, or it could only ever refuse.
  options.wait_includes_deadline = false;
  // The retry-stable identity: shard-side tracing and the dedup ledger
  // key on the ORIGINAL client and id, not this hop's.
  options.forwarded_for =
      shared->client + "#" + std::to_string(shared->id);

  shared->sent_at = network_->clock().now();
  Result<std::uint64_t> sent =
      client == nullptr
          ? Result<std::uint64_t>(Unavailable(
                "shard " + std::to_string(shard_index) + " is retired"))
          : client->submit(
                shared->dsml, shared->session, shared->text,
                [this, shard_index, shared](
                    const ingress::RemoteOutcome& outcome) {
                  settle_forward(*shared, shard_index, outcome);
                },
                std::move(options));
  if (!sent.ok()) {
    // The downstream refused the send outright (shard endpoint gone
    // mid-teardown, or a draining client closed under us): the callback
    // will never fire, so settle here with a synthetic lost outcome —
    // same failover/refusal path.
    ingress::RemoteOutcome outcome;
    outcome.request_id = shared->id;
    outcome.status = sent.status();
    outcome.refusal = "reply-lost";
    settle_forward(*shared, shard_index, outcome);
    return;
  }
  forwarded_.fetch_add(1, std::memory_order_relaxed);
}

void ClusterFrontEnd::settle_forward(Forward& state, std::size_t shard_index,
                                     const ingress::RemoteOutcome& outcome) {
  // A shard that answered — even with a refusal — is alive; only a lost
  // reply (or an unreachable endpoint) marks it unhealthy.
  const bool lost = outcome.refusal == "reply-lost";
  const bool shutting_down = shutting_down_.load(std::memory_order_acquire);
  if (!shutting_down) record_health(shard_index, state.admission, !lost);

  if (lost && !shutting_down) {
    const TimePoint now = network_->clock().now();

    // Pick the failover target against the CURRENT topology. A same-
    // epoch loss uses the precomputed ring replica; after a flip the
    // arcs may have moved or the fallback may be draining, so the
    // target is re-resolved from the live ring.
    std::optional<std::size_t> target;
    bool gated = false;  // a candidate exists but its window is open
    broker::CircuitBreaker::Admission admission =
        broker::CircuitBreaker::Admission::kAllow;
    std::uint64_t routed_epoch = state.epoch;
    {
      std::shared_lock lock(topology_mutex_);
      std::optional<std::size_t> candidate;
      const std::uint64_t current_epoch =
          epoch_.load(std::memory_order_acquire);
      if (state.epoch != current_epoch) {
        const std::size_t owner = ring_.owner(state.session);
        if (owner != shard_index) {
          candidate = owner;
        } else {
          const std::size_t replica = ring_.replica(state.session);
          if (replica != shard_index) candidate = replica;
        }
      } else if (state.fallback.has_value() &&
                 *state.fallback != shard_index) {
        candidate = *state.fallback;
      }
      if (candidate.has_value() &&
          shards_[*candidate]->state.load(std::memory_order_acquire) ==
              ShardState::kActive) {
        broker::CircuitBreaker::AdmitResult admit =
            shards_[*candidate]->breaker->admit(now);
        if (admit.admission == broker::CircuitBreaker::Admission::kReject) {
          gated = true;
        } else {
          target = candidate;
          admission = admit.admission;
          routed_epoch = current_epoch;
        }
      }
    }

    if (target.has_value() || gated) {
      // Deadline accounting (PR 9 bugfix): the wait on the lost reply
      // already spent part of the client's budget — the replica gets
      // only the remainder, and a spent budget is refused instead of
      // producing a reply the client can no longer use.
      std::optional<Duration> remaining = state.deadline;
      if (state.deadline.has_value()) {
        const Duration elapsed = now - state.sent_at;
        if (elapsed >= *state.deadline) {
          refuse(state.client, state.id,
                 Timeout("deadline spent waiting on shard " +
                         std::to_string(shard_index) + "'s lost reply"),
                 "deadline");
          return;
        }
        remaining = *state.deadline - elapsed;
      }
      if (!target.has_value()) {  // gated: both windows are open
        refuse(state.client, state.id,
               Unavailable("shard " + std::to_string(shard_index) +
                           " lost the reply and the failover shard's "
                           "health window is open"),
               "shard-unavailable");
        return;
      }
      failovers_.fetch_add(1, std::memory_order_relaxed);
      Forward retry = std::move(state);
      retry.fallback.reset();
      retry.admission = admission;
      retry.deadline = remaining;
      retry.epoch = routed_epoch;
      // Resume-before-retry (PR 10): when a checkpoint of this session
      // is cached, it is imported on the failover target BEFORE the
      // retried request forwards, so sequenced work resumes from where
      // the dead owner left off instead of restarting. No checkpoint
      // (or a lost ship) degrades to the PR-8 cold retry.
      resume_then_forward(std::move(retry), *target);
      return;
    }
    // No candidate at all (single-shard ring): fall through and report
    // the loss as-is.
  }
  wire::Reply reply;
  reply.request_id = state.id;
  reply.code = outcome.status.code();
  reply.refusal = outcome.refusal;
  reply.message =
      outcome.status.ok() ? outcome.payload : outcome.status.message();
  reply.commands = outcome.commands;
  send_reply(state.client, std::move(reply));
  // Checkpoint cadence: only COMPLETED requests advance a session's
  // counter (refusals and losses leave no new state worth capturing).
  if (!shutting_down && !lost && outcome.status.ok() &&
      checkpoint_interval_ > 0) {
    maybe_checkpoint(state.session, shard_index);
  }
}

void ClusterFrontEnd::resume_then_forward(Forward state,
                                          std::size_t shard_index) {
  // Skip the ship when the target already holds this (or a newer)
  // version live — it captured the checkpoint itself, or a prior
  // resume landed it there. Re-importing would only redo work the
  // shard has already applied.
  std::optional<std::pair<std::int64_t, std::string>> checkpoint;
  {
    std::lock_guard lock(checkpoint_mutex_);
    auto it = checkpoints_.find(state.session);
    if (it != checkpoints_.end() && it->second.version > 0 &&
        !(it->second.resumed_shard == shard_index &&
          it->second.resumed_version >= it->second.version)) {
      checkpoint = {it->second.version, it->second.state_text};
    }
  }
  if (!checkpoint.has_value()) {
    forward(std::move(state), shard_index);
    return;
  }
  resumes_shipped_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t version = checkpoint->first;
  auto shared = std::make_shared<Forward>(std::move(state));
  ship_session_state(
      shared->session, version, checkpoint->second, shard_index,
      /*resume=*/true, [this, shared, shard_index, version](bool acked) {
        if (acked) {
          resumes_completed_.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard lock(checkpoint_mutex_);
          SessionCheckpoint& entry = checkpoints_[shared->session];
          if (entry.resumed_shard != shard_index ||
              entry.resumed_version < version) {
            entry.resumed_shard = shard_index;
            entry.resumed_version = version;
          }
        }
        // A lost ship still forwards: the cold retry is strictly better
        // than refusing, and the receiver's version gate makes a late
        // duplicate import harmless.
        forward(std::move(*shared), shard_index);
      });
}

void ClusterFrontEnd::maybe_checkpoint(const std::string& session,
                                       std::size_t owner) {
  bool capture = false;
  {
    std::lock_guard lock(checkpoint_mutex_);
    SessionCheckpoint& entry = checkpoints_[session];
    ++entry.completed;
    if (entry.completed %
                static_cast<std::uint64_t>(checkpoint_interval_) ==
            0 &&
        !entry.capture_in_flight) {
      entry.capture_in_flight = true;
      capture = true;
    }
  }
  if (capture) checkpoint_session(session, owner);
}

void ClusterFrontEnd::checkpoint_session(const std::string& session,
                                         std::size_t owner) {
  std::shared_ptr<ingress::IngressClient> client;
  std::size_t replica = owner;
  {
    std::shared_lock lock(topology_mutex_);
    if (owner < shards_.size()) client = shards_[owner]->client;
    replica = ring_.replica(session);
  }
  auto abort_capture = [this, &session] {
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(checkpoint_mutex_);
    checkpoints_[session].capture_in_flight = false;
  };
  if (client == nullptr) {
    abort_capture();
    return;
  }
  wire::Request request;
  Result<std::uint64_t> sent = client->call(
      "checkpoint/" + session, std::move(request),
      [this, session, owner, replica](const ingress::RemoteOutcome& outcome) {
        if (shutting_down_.load(std::memory_order_acquire)) return;
        if (!outcome.status.ok()) {
          checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard lock(checkpoint_mutex_);
          checkpoints_[session].capture_in_flight = false;
          return;
        }
        checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);
        std::int64_t version = 0;
        {
          std::lock_guard lock(checkpoint_mutex_);
          SessionCheckpoint& entry = checkpoints_[session];
          entry.state_text = outcome.payload;
          version = ++entry.version;
          entry.capture_in_flight = false;
          // The capture SOURCE holds this state live by construction —
          // a later reroute/failover to it must not re-import.
          entry.resumed_shard = owner;
          entry.resumed_version = version;
        }
        // Ship to the ring replica so a failover can resume there. A
        // single-shard ring has nowhere to ship; the cache still powers
        // a later re-resolved failover.
        if (replica == owner) return;
        ship_session_state(session, version, outcome.payload, replica,
                           /*resume=*/false, [this](bool acked) {
                             (acked ? checkpoint_acks_
                                    : checkpoint_failures_)
                                 .fetch_add(1, std::memory_order_relaxed);
                           });
      });
  if (!sent.ok()) abort_capture();
}

void ClusterFrontEnd::ship_session_state(const std::string& session,
                                         std::int64_t version,
                                         const std::string& state_text,
                                         std::size_t index, bool resume,
                                         std::function<void(bool)> done) {
  auto settle = [done = std::move(done)](bool acked) {
    if (done != nullptr) done(acked);
  };
  std::shared_ptr<ingress::IngressClient> client;
  {
    std::shared_lock lock(topology_mutex_);
    if (index < shards_.size()) client = shards_[index]->client;
  }
  Result<model::Value> state = model::parse_value(state_text);
  if (client == nullptr || !state.ok()) {
    settle(false);
    return;
  }
  auto pair = [](std::string key, model::Value value) {
    model::ValueList entry;
    entry.push_back(model::Value(std::move(key)));
    entry.push_back(std::move(value));
    return model::Value(std::move(entry));
  };
  model::ValueList envelope;
  envelope.push_back(pair("session", model::Value(session)));
  envelope.push_back(pair("version", model::Value(version)));
  envelope.push_back(pair("resume", model::Value(resume)));
  envelope.push_back(pair("state", std::move(state).value()));
  wire::Request request;
  request.body = model::Value(std::move(envelope));
  Result<std::uint64_t> sent = client->call(
      "replicate/session-state", std::move(request),
      [this, settle](const ingress::RemoteOutcome& outcome) {
        if (shutting_down_.load(std::memory_order_acquire)) return;
        settle(outcome.status.ok());
      });
  if (!sent.ok()) settle(false);
}

void ClusterFrontEnd::warm_joiner_sessions(std::size_t index) {
  struct Cached {
    std::string session;
    std::int64_t version;
    std::string text;
  };
  std::vector<Cached> cached;
  {
    std::lock_guard lock(checkpoint_mutex_);
    for (const auto& [session, entry] : checkpoints_) {
      if (entry.version > 0) {
        cached.push_back(Cached{session, entry.version, entry.state_text});
      }
    }
  }
  for (Cached& entry : cached) {
    ship_session_state(entry.session, entry.version, entry.text, index,
                       /*resume=*/false, nullptr);
  }
}

std::int64_t ClusterFrontEnd::checkpoint_version(
    std::string_view session) const {
  std::lock_guard lock(checkpoint_mutex_);
  auto it = checkpoints_.find(session);
  return it == checkpoints_.end() ? 0 : it->second.version;
}

void ClusterFrontEnd::handle_query(const net::Message& message,
                                   const ingress::RouteParams& params) {
  Result<wire::Request> decoded = wire::decode_request(message.payload);
  if (!decoded.ok()) {
    refuse(message.from, 0, decoded.status(),
           wire::is_version_mismatch(decoded.status()) ? "bad-version"
                                                       : "malformed");
    return;
  }
  const std::uint64_t id = decoded.value().request_id;
  const std::string what(params.get("what"));
  query_fanouts_.fetch_add(1, std::memory_order_relaxed);

  // Fan out to every ACTIVE shard (joiners aren't serving yet, leavers
  // already left the ring) and merge: the join fires the client reply
  // when the last downstream outcome (success, refusal or loss) lands.
  struct Target {
    std::size_t index;
    std::shared_ptr<ingress::IngressClient> client;
  };
  std::vector<Target> targets;
  {
    std::shared_lock lock(topology_mutex_);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i]->state.load(std::memory_order_acquire) ==
              ShardState::kActive &&
          shards_[i]->client != nullptr) {
        targets.push_back(Target{i, shards_[i]->client});
      }
    }
  }
  if (targets.empty()) {
    refuse(message.from, id, Unavailable("no active shard to query"),
           "shard-unavailable");
    return;
  }

  struct Join {
    std::mutex mutex;
    std::size_t remaining = 0;
    std::vector<std::pair<std::size_t, std::string>> parts;
  };
  auto join = std::make_shared<Join>();
  join->remaining = targets.size();
  join->parts.resize(targets.size());
  const std::string to = message.from;

  auto settle = [this, join, to, id](std::size_t slot, std::size_t shard,
                                     std::string part) {
    bool last = false;
    {
      std::lock_guard lock(join->mutex);
      join->parts[slot] = {shard, std::move(part)};
      last = --join->remaining == 0;
    }
    if (!last) return;
    wire::Reply reply;
    reply.request_id = id;
    for (const auto& [index, text] : join->parts) {
      reply.message += "=== shard " + std::to_string(index) + " ===\n";
      reply.message += text;
      reply.message += "\n";
    }
    send_reply(to, std::move(reply));
  };

  for (std::size_t slot = 0; slot < targets.size(); ++slot) {
    const std::size_t shard = targets[slot].index;
    Result<std::uint64_t> sent = targets[slot].client->query(
        what, [settle, slot, shard](const ingress::RemoteOutcome& outcome) {
          settle(slot, shard,
                 outcome.status.ok()
                     ? outcome.payload
                     : "<" + std::string(outcome.refusal.empty()
                                             ? "error"
                                             : outcome.refusal) +
                           ">");
        });
    if (!sent.ok()) settle(slot, shard, "<unreachable>");
  }
}

Status ClusterFrontEnd::update_model(const model::Model& next_model) {
  model::ChangeList changes;
  model::Value encoded;
  std::uint64_t version = 0;
  {
    std::lock_guard lock(model_mutex_);
    changes = model::diff(authoritative_, next_model);
    if (changes.empty()) return Status::Ok();
    encoded = model::encode_changes(changes);
    // The bytes a full-model push would have cost vs what the delta
    // actually costs — the savings BENCH_8 reports.
    full_bytes_.fetch_add(model::serialize_model(next_model).size(),
                          std::memory_order_relaxed);
    delta_bytes_.fetch_add(encoded.to_text().size(),
                           std::memory_order_relaxed);
    deltas_shipped_.fetch_add(1, std::memory_order_relaxed);
    authoritative_ = next_model.clone();
    version = model_version_.load(std::memory_order_relaxed) + 1;
    model_version_.store(version, std::memory_order_release);
  }

  struct Target {
    std::size_t index;
    std::shared_ptr<ingress::IngressClient> client;
    ShardState state;
    bool stale;
  };
  std::vector<Target> targets;
  {
    std::shared_lock lock(topology_mutex_);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      targets.push_back(Target{
          i, shards_[i]->client,
          shards_[i]->state.load(std::memory_order_acquire),
          shards_[i]->stale.load(std::memory_order_acquire)});
    }
  }

  Status first_failure = Status::Ok();
  for (const Target& t : targets) {
    if (t.state == ShardState::kRetired || t.client == nullptr) continue;
    if (t.state == ShardState::kDraining) continue;  // retiring: no new state
    if (t.stale || t.state == ShardState::kJoining) {
      // A diverged (or still-warming) replica can't apply a delta that
      // assumes the previous baseline — the full-sync fallback fires
      // instead. This is the PR-9 bugfix: the old code shipped nothing
      // and the shard diverged permanently.
      kick_full_sync(t.index);
      continue;
    }
    wire::Request request;
    request.body = encoded;
    const std::size_t index = t.index;
    Result<std::uint64_t> sent = t.client->call(
        "replicate/model-diff", std::move(request),
        [this, index, version](const ingress::RemoteOutcome& outcome) {
          // Teardown stragglers must not touch shards_ mid-clear.
          if (shutting_down_.load(std::memory_order_acquire)) return;
          if (outcome.status.ok()) {
            replication_acks_.fetch_add(1, std::memory_order_relaxed);
            std::shared_lock lock(topology_mutex_);
            raise_acked_version(shards_[index]->acked_version, version);
          } else {
            // Send failed, nacked, or the reply was lost: the replica
            // may have missed this delta — stop shipping deltas it can
            // no longer apply and schedule a full-model repair.
            replication_failures_.fetch_add(1, std::memory_order_relaxed);
            mark_stale(index);
          }
        });
    if (!sent.ok()) {
      replication_failures_.fetch_add(1, std::memory_order_relaxed);
      mark_stale(index);
      if (first_failure.ok()) first_failure = sent.status();
    }
  }
  return first_failure;
}

void ClusterFrontEnd::kick_full_sync(std::size_t index) {
  std::shared_ptr<ingress::IngressClient> client;
  {
    std::shared_lock lock(topology_mutex_);
    Shard& shard = *shards_[index];
    const ShardState state = shard.state.load(std::memory_order_acquire);
    if (state == ShardState::kRetired || state == ShardState::kDraining ||
        shard.client == nullptr) {
      return;
    }
    // At most one full ship in flight per shard; the ack (or its loss)
    // re-arms the next attempt.
    if (shard.full_sync_in_flight.exchange(true)) return;
    client = shard.client;
  }

  wire::Request request;
  std::uint64_t version = 0;
  {
    // Serialize and stamp the version under the same lock so the text
    // and the version always agree.
    std::lock_guard lock(model_mutex_);
    request.text = model::serialize_model(authoritative_);
    version = model_version_.load(std::memory_order_relaxed);
  }

  full_syncs_shipped_.fetch_add(1, std::memory_order_relaxed);
  Result<std::uint64_t> sent = client->call(
      "replicate/model-full", std::move(request),
      [this, index, version](const ingress::RemoteOutcome& outcome) {
        if (shutting_down_.load(std::memory_order_acquire)) return;
        bool warmed = false;
        {
          std::shared_lock lock(topology_mutex_);
          Shard& shard = *shards_[index];
          shard.full_sync_in_flight.store(false, std::memory_order_release);
          if (outcome.status.ok()) {
            full_sync_acks_.fetch_add(1, std::memory_order_relaxed);
            raise_acked_version(shard.acked_version, version);
            // Only an ack at the CURRENT version clears staleness — a
            // late ack of an older ship must not mask a newer miss.
            if (version ==
                model_version_.load(std::memory_order_acquire)) {
              shard.stale.store(false, std::memory_order_release);
              if (shard.state.load(std::memory_order_acquire) ==
                  ShardState::kJoining) {
                warmed = true;
              }
            }
          } else {
            replication_failures_.fetch_add(1, std::memory_order_relaxed);
            // Stays stale; the next maintain() retries.
          }
        }
        if (warmed) {
          // Warm the joiner's checkpoint staging table before it takes
          // ring arcs: a failover targeting it right after the splice
          // must find session state already staged.
          warm_joiner_sessions(index);
          complete_join(index);
        }
      });
  if (!sent.ok()) {
    replication_failures_.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock lock(topology_mutex_);
    shards_[index]->full_sync_in_flight.store(false,
                                              std::memory_order_release);
  }
}

Result<std::size_t> ClusterFrontEnd::join(const std::string& endpoint) {
  std::size_t index = 0;
  {
    std::unique_lock lock(topology_mutex_);
    for (const auto& shard : shards_) {
      if (shard->endpoint == endpoint &&
          shard->state.load(std::memory_order_acquire) !=
              ShardState::kRetired) {
        return InvalidArgument("endpoint '" + endpoint +
                               "' already serves shard traffic");
      }
    }
    index = shards_.size();
    auto shard = std::make_unique<Shard>();
    shard->endpoint = endpoint;
    Result<std::unique_ptr<ingress::IngressClient>> client =
        ingress::IngressClient::attach(*network_, endpoint,
                                       downstream_options(config_, index));
    if (!client.ok()) return client.status();
    shard->client = std::move(client).value();
    shard->breaker = std::make_unique<broker::CircuitBreaker>(config_.health);
    shard->state.store(ShardState::kJoining, std::memory_order_release);
    shard->stale.store(true, std::memory_order_release);
    shards_.push_back(std::move(shard));
  }
  joins_started_.fetch_add(1, std::memory_order_relaxed);
  // Warm-up: the full-model ship; its ack completes the join.
  kick_full_sync(index);
  return index;
}

void ClusterFrontEnd::complete_join(std::size_t index) {
  double fraction = 0.0;
  {
    std::unique_lock lock(topology_mutex_);
    Shard& shard = *shards_[index];
    ShardState expected = ShardState::kJoining;
    if (!shard.state.compare_exchange_strong(expected, ShardState::kActive)) {
      return;  // lost a race with another completion (or a teardown)
    }
    const std::vector<ShardRing::Arc> arcs = ring_.add_shard(index);
    fraction = ShardRing::arcs_fraction(arcs);
    // The flip: from this epoch on, moved-arc sessions route to the new
    // shard; forwards stamped with older epochs re-resolve on failover.
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  last_rebalance_fraction_.store(fraction, std::memory_order_release);
  joins_completed_.fetch_add(1, std::memory_order_relaxed);
}

Status ClusterFrontEnd::leave(std::size_t index) {
  std::shared_ptr<ingress::IngressClient> client;
  double fraction = 0.0;
  {
    std::unique_lock lock(topology_mutex_);
    if (index >= shards_.size()) {
      return InvalidArgument("no shard " + std::to_string(index));
    }
    Shard& shard = *shards_[index];
    if (shard.state.load(std::memory_order_acquire) != ShardState::kActive) {
      return FailedPrecondition("shard " + std::to_string(index) +
                                " is not active");
    }
    if (ring_.shards() <= 1) {
      return FailedPrecondition(
          "cannot retire the last shard: every key needs an owner");
    }
    const std::vector<ShardRing::Arc> arcs = ring_.remove_shard(index);
    fraction = ShardRing::arcs_fraction(arcs);
    shard.state.store(ShardState::kDraining, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    client = shard.client;
  }
  last_rebalance_fraction_.store(fraction, std::memory_order_release);
  leaves_started_.fetch_add(1, std::memory_order_relaxed);
  // Close OUTSIDE the ring flip: new submits already route elsewhere;
  // closing refuses any straggler routed under the old epoch (it fails
  // over to the new owner), while pending forwards keep settling on the
  // old route.
  client->close();
  if (client->pending() == 0) retire(index);
  return Status::Ok();
}

void ClusterFrontEnd::retire(std::size_t index) {
  std::shared_ptr<ingress::IngressClient> client;
  {
    std::unique_lock lock(topology_mutex_);
    Shard& shard = *shards_[index];
    ShardState expected = ShardState::kDraining;
    if (!shard.state.compare_exchange_strong(expected,
                                             ShardState::kRetired)) {
      return;  // someone else retired it
    }
    client = std::move(shard.client);
    shard.client = nullptr;
  }
  leaves_completed_.fetch_add(1, std::memory_order_relaxed);
  // The client's destructor runs outside the lock (it unbinds its
  // endpoint and would resolve any stragglers — there are none, the
  // drain condition was pending() == 0).
  client.reset();
}

void ClusterFrontEnd::mark_stale(std::size_t index) {
  std::shared_lock lock(topology_mutex_);
  if (index >= shards_.size()) return;
  if (!shards_[index]->stale.exchange(true, std::memory_order_acq_rel)) {
    stale_marks_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t ClusterFrontEnd::maintain() {
  struct Entry {
    std::size_t index;
    std::shared_ptr<ingress::IngressClient> client;
    ShardState state;
    bool stale;
    bool syncing;
  };
  std::vector<Entry> snapshot;
  {
    std::shared_lock lock(topology_mutex_);
    snapshot.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      snapshot.push_back(
          Entry{i, shards_[i]->client,
                shards_[i]->state.load(std::memory_order_acquire),
                shards_[i]->stale.load(std::memory_order_acquire),
                shards_[i]->full_sync_in_flight.load(
                    std::memory_order_acquire)});
    }
  }
  std::size_t resolved = 0;
  // Expiry callbacks re-enter forward()/settle_forward(); no lock held.
  for (const Entry& entry : snapshot) {
    if (entry.client != nullptr) resolved += entry.client->expire_overdue();
  }
  for (const Entry& entry : snapshot) {
    if (entry.state == ShardState::kDraining && entry.client != nullptr &&
        entry.client->pending() == 0) {
      retire(entry.index);
    } else if ((entry.state == ShardState::kActive ||
                entry.state == ShardState::kJoining) &&
               entry.stale && !entry.syncing) {
      kick_full_sync(entry.index);
    }
  }
  return resolved;
}

void ClusterFrontEnd::send_reply(const std::string& to, wire::Reply reply) {
  // Reentrant sends are legal on the simulated bus (handlers run outside
  // the network lock), so replies go straight out from the delivery
  // thread — the front-end has no pipeline of its own to keep clear.
  Status sent = endpoint_->send(to, std::string(wire::kReplyTopic),
                                wire::encode_reply(reply));
  if (sent.ok()) {
    replies_.fetch_add(1, std::memory_order_relaxed);
  } else {
    reply_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ClusterFrontEnd::refuse(const std::string& to, std::uint64_t request_id,
                             const Status& status, std::string refusal) {
  if (refusal.empty()) refusal = std::string(wire::classify_refusal(status));
  refused_.fetch_add(1, std::memory_order_relaxed);
  wire::Reply reply;
  reply.request_id = request_id;
  reply.code = status.code();
  reply.refusal = std::move(refusal);
  reply.message = status.message();
  send_reply(to, std::move(reply));
}

void ClusterFrontEnd::record_health(
    std::size_t shard_index, broker::CircuitBreaker::Admission admission,
    bool success) {
  broker::CircuitBreaker::Transition transition;
  {
    std::shared_lock lock(topology_mutex_);
    transition = shards_[shard_index]->breaker->on_result(
        admission, success, network_->clock().now());
  }
  if (transition == broker::CircuitBreaker::Transition::kOpened) {
    breaker_trips_.fetch_add(1, std::memory_order_relaxed);
  }
}

ClusterFrontEnd::Stats ClusterFrontEnd::stats() const {
  Stats stats;
  stats.received = received_.load(std::memory_order_relaxed);
  stats.forwarded = forwarded_.load(std::memory_order_relaxed);
  stats.rerouted = rerouted_.load(std::memory_order_relaxed);
  stats.failovers = failovers_.load(std::memory_order_relaxed);
  stats.refused = refused_.load(std::memory_order_relaxed);
  stats.replies = replies_.load(std::memory_order_relaxed);
  stats.reply_failures = reply_failures_.load(std::memory_order_relaxed);
  stats.query_fanouts = query_fanouts_.load(std::memory_order_relaxed);
  stats.breaker_trips = breaker_trips_.load(std::memory_order_relaxed);
  stats.deltas_shipped = deltas_shipped_.load(std::memory_order_relaxed);
  stats.delta_bytes = delta_bytes_.load(std::memory_order_relaxed);
  stats.full_bytes = full_bytes_.load(std::memory_order_relaxed);
  stats.replication_acks =
      replication_acks_.load(std::memory_order_relaxed);
  stats.replication_failures =
      replication_failures_.load(std::memory_order_relaxed);
  stats.stale_marks = stale_marks_.load(std::memory_order_relaxed);
  stats.full_syncs_shipped =
      full_syncs_shipped_.load(std::memory_order_relaxed);
  stats.full_sync_acks = full_sync_acks_.load(std::memory_order_relaxed);
  stats.joins_started = joins_started_.load(std::memory_order_relaxed);
  stats.joins_completed = joins_completed_.load(std::memory_order_relaxed);
  stats.leaves_started = leaves_started_.load(std::memory_order_relaxed);
  stats.leaves_completed = leaves_completed_.load(std::memory_order_relaxed);
  stats.checkpoints_taken = checkpoints_taken_.load(std::memory_order_relaxed);
  stats.checkpoint_acks = checkpoint_acks_.load(std::memory_order_relaxed);
  stats.checkpoint_failures =
      checkpoint_failures_.load(std::memory_order_relaxed);
  stats.resumes_shipped = resumes_shipped_.load(std::memory_order_relaxed);
  stats.resumes_completed =
      resumes_completed_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mdsm::cluster
