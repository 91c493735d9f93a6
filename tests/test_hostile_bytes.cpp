// Hostile bytes: seeded mutations of valid exemplars (a model text, a
// change list, a wire request, a wire reply and a session checkpoint)
// fed to every decoder that reads untrusted bytes. Each mutant gets byte
// flips, truncations and splices from a fixed-seed generator, so a
// failure reproduces from its seed and index. Every input must yield a
// value or a typed Status — never a crash — and a refused checkpoint
// import must leave the platform's snapshot() byte-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "ingress/wire.hpp"
#include "model/diff.hpp"
#include "model/text_format.hpp"
#include "model_fixtures.hpp"
#include "soak_fixtures.hpp"

namespace mdsm {
namespace {

constexpr std::uint32_t kSeed = 20171;
constexpr int kMutantsPerExemplar = 4000;

/// One to three edits of `text`: a byte flip, a truncation, or a splice
/// of up to 24 bytes from a donor exemplar over up to 12 bytes of text.
std::string mutate(std::string text, const std::vector<std::string>& donors,
                   std::mt19937& rng) {
  const std::uint32_t edits = 1 + rng() % 3;
  for (std::uint32_t i = 0; i < edits; ++i) {
    const std::size_t at = text.empty() ? 0 : rng() % text.size();
    switch (rng() % 5) {
      case 0:
      case 1:
        if (!text.empty()) text[at] ^= static_cast<char>(1 + rng() % 255);
        break;
      case 2:
        text.resize(at);
        break;
      default: {
        const std::string& donor = donors[rng() % donors.size()];
        const std::size_t from = rng() % (donor.size() + 1);
        text.replace(at, rng() % 13, donor.substr(from, rng() % 25));
        break;
      }
    }
  }
  return text;
}

class HostileBytes : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(platform_.ok()) << platform_.status.to_string();
    core::Platform& platform = *platform_.platform;
    ASSERT_TRUE(
        platform.submit_model_text(soak::open_session_text("s1")).ok());
    platform.controller().engine().set_memory("mem.k", model::Value("mv"));
    platform.context().set("ctx.k", model::Value(std::int64_t{7}));
    platform.broker().state().set("bk.k", model::Value(true));
    Result<std::string> checkpoint = platform.snapshot();
    ASSERT_TRUE(checkpoint.ok());
    baseline_ = checkpoint.value();

    const model::Model before = model::testing::make_test_model(mm_);
    model::Model after = before.clone();
    ASSERT_TRUE(after.remove("bob").ok());
    ASSERT_TRUE(after.set_attribute("s1", "bandwidth", model::Value(9.5)).ok());
    ASSERT_TRUE(
        after.create_child("s1", "media", "Media", "mic").ok() &&
        after.set_attribute("mic", "kind", model::Value("audio")).ok());
    const model::Value changes =
        model::encode_changes(model::diff(before, after));

    ingress::wire::Request request;
    request.request_id = 7;
    request.text = model::serialize_model(before);
    request.auth = "token";
    request.deadline_us = 25'000;
    request.high_priority = true;
    request.body = changes;
    request.forwarded_for = "client#3";
    ingress::wire::Reply reply;
    reply.request_id = 7;
    reply.code = ErrorCode::kUnavailable;
    reply.refusal = "overload";
    reply.message = "queue full";
    reply.commands = 2;

    exemplars_ = {request.text, changes.to_text(),
                  ingress::wire::encode_request(request).to_text(),
                  ingress::wire::encode_reply(reply).to_text(), baseline_};
  }

  /// Feed one mutant to every decoder.
  void feed(const std::string& text) {
    Result<model::Model> parsed = model::parse_model(text, mm_);
    if (parsed.ok()) {
      ++parsed_;
      (void)parsed->validate();
    }
    Result<model::Value> value = model::parse_value(text);
    if (!value.ok()) return;
    ++parsed_;
    if (Result<ingress::wire::Request> request =
            ingress::wire::decode_request(value.value());
        request.ok()) {
      EXPECT_TRUE(ingress::wire::decode_request(
                      ingress::wire::encode_request(request.value()))
                      .ok());
    }
    if (Result<ingress::wire::Reply> reply =
            ingress::wire::decode_reply(value.value());
        reply.ok()) {
      EXPECT_TRUE(ingress::wire::decode_reply(
                      ingress::wire::encode_reply(reply.value()))
                      .ok());
    }
    if (Result<model::ChangeList> changes =
            model::decode_changes(value.value());
        changes.ok()) {
      model::Model target = model::testing::make_test_model(mm_);
      (void)model::apply(changes.value(), target);
    }
    core::Platform& platform = *platform_.platform;
    const Status imported = platform.import_session_state(value.value());
    Result<std::string> now = platform.snapshot();
    ASSERT_TRUE(now.ok());
    if (imported.ok()) {
      baseline_ = now.value();  // a benign mutant is a new, whole state
    } else {
      ASSERT_EQ(now.value(), baseline_) << imported.to_string();
    }
  }

  /// Mutate exemplar `index` kMutantsPerExemplar times and feed each.
  void run(std::size_t index) {
    std::mt19937 rng(kSeed + static_cast<std::uint32_t>(index));
    for (int i = 0; i < kMutantsPerExemplar; ++i) {
      SCOPED_TRACE("mutant " + std::to_string(i));
      feed(mutate(exemplars_[index], exemplars_, rng));
      if (HasFatalFailure()) return;
    }
    // Enough mutants get past the tokenizer to exercise the decoders.
    EXPECT_GT(parsed_, kMutantsPerExemplar / 100);
  }

  model::MetamodelPtr mm_ = model::testing::make_test_metamodel();
  soak::SoakPlatform platform_ =
      soak::make_soak_platform(broker::ChaosConfig{});
  std::string baseline_;
  int parsed_ = 0;  ///< mutants that parse as a model or a value
  std::vector<std::string> exemplars_;
};

TEST_F(HostileBytes, MutatedModelText) { run(0); }
TEST_F(HostileBytes, MutatedChangeList) { run(1); }
TEST_F(HostileBytes, MutatedWireRequest) { run(2); }
TEST_F(HostileBytes, MutatedWireReply) { run(3); }
TEST_F(HostileBytes, MutatedCheckpoint) { run(4); }

// The exemplars themselves are accepted, so the mutants start from
// inputs every decoder takes.
TEST_F(HostileBytes, ExemplarsDecode) {
  ASSERT_TRUE(model::parse_model(exemplars_[0], mm_).ok());
  std::vector<model::Value> values;
  for (std::size_t i = 1; i < exemplars_.size(); ++i) {
    Result<model::Value> value = model::parse_value(exemplars_[i]);
    ASSERT_TRUE(value.ok()) << i;
    values.push_back(value.value());
  }
  EXPECT_TRUE(model::decode_changes(values[0]).ok());
  EXPECT_TRUE(ingress::wire::decode_request(values[1]).ok());
  EXPECT_TRUE(ingress::wire::decode_reply(values[2]).ok());
  EXPECT_TRUE(platform_.platform->import_session_state(values[3]).ok());
}

}  // namespace
}  // namespace mdsm
