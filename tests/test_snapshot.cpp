// Platform::export_session_state / import_session_state and their disk
// twins snapshot()/restore() (PR 10): the full controller/broker runtime
// state — synthesis runtime model, interpreter LTS states, engine
// memory, context store, broker variables — round-trips through the
// text-format codec, and a restored platform RESUMES sequenced work
// instead of restarting it.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/platform.hpp"
#include "model/text_format.hpp"
#include "soak_fixtures.hpp"

namespace mdsm {
namespace {

using soak::make_soak_platform;

soak::SoakPlatform fresh_platform() {
  return make_soak_platform(broker::ChaosConfig{});  // no faults
}

TEST(Snapshot, RoundTripsByteEqual) {
  soak::SoakPlatform source = fresh_platform();
  ASSERT_TRUE(source.ok()) << source.status.to_string();

  // Real session work plus one value in each scalar store, so every
  // checkpoint section is non-trivial.
  ASSERT_TRUE(
      source.platform->submit_model_text(soak::open_session_text("s1")).ok());
  source.platform->controller().engine().set_memory("mem.k",
                                                    model::Value("mv"));
  source.platform->context().set("ctx.k", model::Value(std::int64_t{7}));
  source.platform->broker().state().set("bk.k", model::Value(true));

  Result<std::string> snapshot = source.platform->snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().to_string();

  soak::SoakPlatform target = fresh_platform();
  ASSERT_TRUE(target.ok()) << target.status.to_string();
  ASSERT_TRUE(target.platform->restore(snapshot.value()).ok());

  // Byte-equal round-trip: same runtime model text, and re-snapshotting
  // the restored platform reproduces the snapshot exactly (deterministic
  // serialization + sorted scalar stores).
  EXPECT_EQ(target.platform->runtime_model_text(),
            source.platform->runtime_model_text());
  Result<std::string> again = target.platform->snapshot();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), snapshot.value());

  // The scalar stores made the trip.
  EXPECT_EQ(target.platform->controller().engine().memory("mem.k").as_string(),
            "mv");
  EXPECT_EQ(target.platform->context().get("ctx.k").as_int(), 7);
  EXPECT_TRUE(target.platform->broker().state().get("bk.k").as_bool());
}

TEST(Snapshot, RestoredPlatformResumesInsteadOfRestarting) {
  soak::SoakPlatform source = fresh_platform();
  ASSERT_TRUE(source.ok()) << source.status.to_string();
  ASSERT_TRUE(
      source.platform->submit_model_text(soak::open_session_text("s1")).ok());
  // Opening fired session.create: svc.create + svc.open.
  EXPECT_EQ(source.inner->executed(), 2u);
  Result<std::string> snapshot = source.platform->snapshot();
  ASSERT_TRUE(snapshot.ok());

  // Cold platform, no restore: the close submission diffs against an
  // EMPTY runtime model, so it re-runs the whole lifecycle — add-object
  // fires session.create (svc.create + svc.open) and the closed
  // attribute then fires session.close on top: 3 executions. That's the
  // restart behavior a checkpoint exists to avoid.
  soak::SoakPlatform cold = fresh_platform();
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(
      cold.platform->submit_model_text(soak::close_session_text("s1")).ok());
  EXPECT_EQ(cold.inner->executed(), 3u);

  // Restored platform: the interpreter holds s1 in "live", so the same
  // close submission is a pure set-attribute → session.close → exactly
  // ONE svc.close execution. Sequenced work resumed, not restarted.
  soak::SoakPlatform resumed = fresh_platform();
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed.platform->restore(snapshot.value()).ok());
  ASSERT_TRUE(
      resumed.platform->submit_model_text(soak::close_session_text("s1"))
          .ok());
  EXPECT_EQ(resumed.inner->executed(), 1u);
}

TEST(Snapshot, ExportIsAValueTreeTheCodecRoundTrips) {
  soak::SoakPlatform source = fresh_platform();
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(
      source.platform->submit_model_text(soak::open_session_text("s1")).ok());

  Result<model::Value> exported =
      source.platform->export_session_state("s1");
  ASSERT_TRUE(exported.ok());
  // parse_value(to_text()) is the identity on the exported tree.
  Result<model::Value> reparsed =
      model::parse_value(exported.value().to_text());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  EXPECT_EQ(reparsed.value().to_text(), exported.value().to_text());
}

TEST(Snapshot, RejectsGarbageAndForeignFormats) {
  soak::SoakPlatform target = fresh_platform();
  ASSERT_TRUE(target.ok());

  EXPECT_FALSE(target.platform->restore("not a value {").ok());

  // A structurally valid pair list with the wrong format tag refuses.
  model::ValueList tagged;
  model::ValueList pair;
  pair.push_back(model::Value(std::string("format")));
  pair.push_back(model::Value(std::string("someone-elses-checkpoint")));
  tagged.push_back(model::Value(std::move(pair)));
  Status imported =
      target.platform->import_session_state(model::Value(std::move(tagged)));
  EXPECT_EQ(imported.code(), ErrorCode::kInvalidArgument);

  // A scalar is not a checkpoint at all.
  EXPECT_FALSE(
      target.platform->import_session_state(model::Value(true)).ok());
}

/// `checkpoint` with the `section` entry's value replaced by `value`.
model::Value with_section(const model::Value& checkpoint,
                          const std::string& section, model::Value value) {
  model::ValueList entries = checkpoint.as_list();
  for (model::Value& entry : entries) {
    if (entry.as_list()[0].as_string() == section) {
      entry = model::Value(model::ValueList{model::Value(section), value});
    }
  }
  return model::Value(std::move(entries));
}

// A checkpoint is decoded and checked whole before any of it is adopted:
// one malformed pair in any section refuses the import and leaves the
// runtime model, LTS states and every scalar store as they were.
TEST(Snapshot, RejectedImportChangesNothing) {
  soak::SoakPlatform source = fresh_platform();
  ASSERT_TRUE(source.ok()) << source.status.to_string();
  ASSERT_TRUE(
      source.platform->submit_model_text(soak::open_session_text("s1")).ok());
  source.platform->context().set("ctx.src", model::Value(1));
  Result<model::Value> exported = source.platform->export_session_state("s");
  ASSERT_TRUE(exported.ok());

  soak::SoakPlatform target = fresh_platform();
  ASSERT_TRUE(target.ok()) << target.status.to_string();
  core::Platform& platform = *target.platform;
  ASSERT_TRUE(platform.submit_model_text(soak::open_session_text("t1")).ok());
  platform.controller().engine().set_memory("mem.k", model::Value("before"));
  platform.context().set("ctx.k", model::Value(std::int64_t{7}));
  platform.broker().state().set("bk.k", model::Value(true));
  const std::string model_before = platform.runtime_model_text();
  const auto memory_before = platform.controller().engine().memory_snapshot();
  const auto context_before = platform.context().snapshot();
  const auto broker_before = platform.broker().state().variables_snapshot();
  Result<std::string> snapshot_before = platform.snapshot();
  ASSERT_TRUE(snapshot_before.ok());

  const model::Value malformed_pair(
      model::ValueList{model::Value(model::ValueList{model::Value(42),
                                                     model::Value("x")})});
  for (const std::string section :
       {"lts_states", "memory", "context", "broker"}) {
    SCOPED_TRACE(section);
    Status imported = platform.import_session_state(
        with_section(exported.value(), section, malformed_pair));
    EXPECT_EQ(imported.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(platform.runtime_model_text(), model_before);
    EXPECT_EQ(platform.controller().engine().memory_snapshot(),
              memory_before);
    EXPECT_EQ(platform.context().snapshot(), context_before);
    EXPECT_EQ(platform.broker().state().variables_snapshot(), broker_before);
    EXPECT_EQ(platform.broker().state().runtime_model(),
              platform.synthesis().runtime_snapshot());
    Result<std::string> snapshot_after = platform.snapshot();
    ASSERT_TRUE(snapshot_after.ok());
    EXPECT_EQ(snapshot_after.value(), snapshot_before.value());
  }
}

/// The value under `key` in a checkpoint's [key, value] list, or none.
model::Value checkpoint_entry(const model::Value& checkpoint,
                              const std::string& key) {
  for (const model::Value& entry : checkpoint.as_list()) {
    if (entry.as_list()[0].as_string() == key) return entry.as_list()[1];
  }
  return {};
}

// Readers take the broker mirror, the runtime-model text and whole
// checkpoints while a writer commits a growing model. Every snapshot a
// reader holds validates and serializes to one of the committed models,
// and a checkpoint's LTS states track exactly its model's objects.
TEST(Snapshot, ConcurrentReadersSeeOnlyCommittedModels) {
  soak::SoakPlatform target = fresh_platform();
  ASSERT_TRUE(target.ok()) << target.status.to_string();
  core::Platform& platform = *target.platform;
  constexpr int kCommits = 40;
  std::vector<std::string> texts;
  std::set<std::string> committed{platform.runtime_model_text()};
  std::string text = "model grow conforms testlang\n";
  for (int i = 0; i < kCommits; ++i) {
    text += "object Session s" + std::to_string(i) + " { state = open }\n";
    texts.push_back(text);
    Result<model::Model> parsed = model::parse_model(text, target.dsml);
    ASSERT_TRUE(parsed.ok());
    committed.insert(model::serialize_model(parsed.value()));
  }
  auto consistent_checkpoint = [&](const model::Value& checkpoint) {
    const model::Value text = checkpoint_entry(checkpoint, "runtime_model");
    if (!text.is_string() || !committed.contains(text.as_string())) {
      return false;
    }
    Result<model::Model> model = model::parse_model(text.as_string(),
                                                    target.dsml);
    if (!model.ok()) return false;
    const model::Value lts = checkpoint_entry(checkpoint, "lts_states");
    std::set<std::string> tracked;
    for (const model::Value& pair : lts.as_list()) {
      tracked.insert(pair.as_list()[0].as_string());
    }
    std::set<std::string> objects;
    for (const model::ModelObject* object : model->objects()) {
      objects.insert(object->id());
    }
    return tracked == objects;
  };

  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      do {
        const model::ModelPtr mirror =
            platform.broker().state().runtime_model();
        if (mirror == nullptr || !mirror->validate().ok() ||
            !committed.contains(model::serialize_model(*mirror))) {
          ++bad;
        }
        if (!committed.contains(platform.runtime_model_text())) ++bad;
        Result<model::Value> exported = platform.export_session_state("r");
        if (!exported.ok() || !consistent_checkpoint(exported.value())) {
          ++bad;
        }
        ++reads;
      } while (!done.load());
    });
  }
  for (const std::string& next : texts) {
    EXPECT_TRUE(platform.submit_model_text(next).ok());
  }
  done = true;
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(reads.load(), 3);
  EXPECT_EQ(platform.broker().state().runtime_model(),
            platform.synthesis().runtime_snapshot());
}

}  // namespace
}  // namespace mdsm
