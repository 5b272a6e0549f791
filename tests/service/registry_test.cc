/// Registry error-path coverage (ISSUE 4 satellite): unknown keys fail
/// with kInvalidArgument naming both the key and the registered
/// alternatives; duplicate registration is rejected; every advertised
/// builtin key actually constructs.

#include <gtest/gtest.h>

#include <memory>

#include "common/clock.h"
#include "core/registry.h"
#include "core/scripted_provider.h"
#include "crowd/provider_registry.h"
#include "fusion/registry.h"
#include "support/status_printing.h"

namespace crowdfusion {
namespace {

using common::StatusCode;

TEST(SelectorRegistryTest, BuildsEveryBuiltinKey) {
  const core::SelectorRegistry registry = core::BuiltinSelectorRegistry();
  for (const std::string key :
       {"greedy", "opt", "sampled", "random", "query_based"}) {
    core::SelectorSpec spec;
    spec.kind = key;
    spec.foi = {0};  // required by query_based, ignored by the others
    auto selector = registry.Create(key, spec);
    ASSERT_TRUE(selector.ok()) << key << ": " << selector.status();
    EXPECT_NE(*selector, nullptr) << key;
  }
}

TEST(SelectorRegistryTest, UnknownKeyNamesKeyAndAlternatives) {
  const core::SelectorRegistry registry = core::BuiltinSelectorRegistry();
  auto result = registry.Create("gredy", core::SelectorSpec{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The message must carry the offending key and the registered names so
  // a config typo is a one-read fix.
  EXPECT_NE(result.status().message().find("gredy"), std::string::npos)
      << result.status();
  for (const std::string key :
       {"greedy", "opt", "sampled", "random", "query_based"}) {
    EXPECT_NE(result.status().message().find(key), std::string::npos)
        << result.status();
  }
}

TEST(SelectorRegistryTest, DuplicateRegistrationRejected) {
  core::SelectorRegistry registry = core::BuiltinSelectorRegistry();
  const auto status = registry.Register(
      "greedy", [](const core::SelectorSpec&)
                    -> common::Result<std::unique_ptr<core::TaskSelector>> {
        return common::Status::Internal("never called");
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("greedy"), std::string::npos);
  EXPECT_NE(status.message().find("duplicate"), std::string::npos);
}

TEST(SelectorRegistryTest, RejectsEmptyKeyAndNullFactory) {
  core::SelectorRegistry registry("selector");
  EXPECT_EQ(registry.Register("", nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("x", nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(SelectorRegistryTest, FactoryValidationSurfaces) {
  const core::SelectorRegistry registry = core::BuiltinSelectorRegistry();
  core::SelectorSpec spec;
  spec.kind = "query_based";  // requires non-empty foi
  EXPECT_EQ(registry.Create("query_based", spec).status().code(),
            StatusCode::kInvalidArgument);
  spec = core::SelectorSpec{};
  spec.samples = 0;
  EXPECT_EQ(registry.Create("sampled", spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProviderRegistryTest, BuildsEveryBuiltinKey) {
  const core::ProviderRegistry registry = crowd::FullProviderRegistry();
  for (const std::string key : {"simulated_crowd", "scripted"}) {
    core::ProviderSpec spec;
    spec.kind = key;
    spec.truths = {true, false, true};
    auto provider = registry.Create(key, spec);
    ASSERT_TRUE(provider.ok()) << key << ": " << provider.status();
    EXPECT_NE(*provider, nullptr) << key;
  }
}

TEST(ProviderRegistryTest, SimulatedCrowdReportsServedAndCorrect) {
  const core::ProviderRegistry registry = crowd::FullProviderRegistry();
  core::ProviderSpec spec;
  spec.kind = "simulated_crowd";
  spec.truths = {true, false};
  spec.accuracy = 0.999;
  auto provider = registry.Create("simulated_crowd", spec);
  ASSERT_TRUE(provider.ok());
  ASSERT_NE(*provider, nullptr);
  EXPECT_EQ((*provider)->ServedCorrect().first, 0);
  auto answers = core::SubmitAndAwait(**provider, std::vector<int>{0, 1, 0},
                                      common::Clock::Real());
  ASSERT_TRUE(answers.ok());
  const auto [served, correct] = (*provider)->ServedCorrect();
  EXPECT_EQ(served, 3);
  EXPECT_LE(correct, served);
}

TEST(ProviderRegistryTest, ScriptedProviderTracksNoCorrectness) {
  // The interface defaults: a provider with no notion of correctness or
  // failover reports zeros, which the session's sums skip over.
  const core::ProviderRegistry registry = core::BuiltinProviderRegistry();
  core::ProviderSpec spec;
  spec.kind = "scripted";
  spec.truths = {true, false};
  auto provider = registry.Create("scripted", spec);
  ASSERT_TRUE(provider.ok());
  auto answers = core::SubmitAndAwait(**provider, std::vector<int>{0, 1},
                                      common::Clock::Real());
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ((*provider)->ServedCorrect(),
            (std::pair<int64_t, int64_t>{0, 0}));
  EXPECT_EQ((*provider)->TicketsResubmitted(), 0);
}

TEST(ProviderRegistryTest, UnknownKeyNamesAlternatives) {
  const core::ProviderRegistry registry = crowd::FullProviderRegistry();
  auto result = registry.Create("mech_turk", core::ProviderSpec{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("mech_turk"), std::string::npos);
  EXPECT_NE(result.status().message().find("simulated_crowd"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("scripted"), std::string::npos);
}

TEST(ProviderRegistryTest, SimulatedCrowdValidatesSpec) {
  const core::ProviderRegistry registry = crowd::FullProviderRegistry();
  core::ProviderSpec spec;
  spec.kind = "simulated_crowd";
  // Missing truths.
  EXPECT_EQ(registry.Create(spec.kind, spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.truths = {true};
  spec.accuracy = 1.5;
  EXPECT_EQ(registry.Create(spec.kind, spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.accuracy = 0.8;
  spec.categories = {99};
  EXPECT_EQ(registry.Create(spec.kind, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProviderRegistryTest, FailureOnlySpecActivatesTheAsyncModel) {
  // Regression: the factory used to configure the async latency model
  // only when latency_median_seconds > 0, so a zero-latency spec with
  // failure_probability = 1 silently produced a never-failing provider
  // (tests had to fake a 1e-9s median to arm it).
  const core::ProviderRegistry registry = crowd::FullProviderRegistry();
  core::ProviderSpec spec;
  spec.kind = "simulated_crowd";
  spec.truths = {true, false};
  spec.failure_probability = 1.0;
  auto provider = registry.Create(spec.kind, spec);
  ASSERT_TRUE(provider.ok());
  ASSERT_NE(*provider, nullptr);
  core::TicketOptions one_shot;
  one_shot.max_attempts = 1;
  auto ticket = (*provider)->Submit(std::vector<int>{0}, one_shot);
  ASSERT_TRUE(ticket.ok());
  auto answers = (*provider)->Take(*ticket);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kUnavailable);
}

TEST(ProviderRegistryTest, AdversarySpecReachesTheProvider) {
  const core::ProviderRegistry registry = crowd::FullProviderRegistry();
  core::ProviderSpec spec;
  spec.kind = "simulated_crowd";
  spec.truths = {true, false, true};
  spec.accuracy = 0.9;
  // Unanimous collusion on every fact: the registry-built provider must
  // answer exactly wrong, proving the adversary block is wired through.
  spec.adversary.enabled = true;
  spec.adversary.colluder_fraction = 1.0;
  spec.adversary.collusion_target_fraction = 1.0;
  auto provider = registry.Create(spec.kind, spec);
  ASSERT_TRUE(provider.ok());
  ASSERT_NE(*provider, nullptr);
  auto answers =
      core::SubmitAndAwait(**provider, std::vector<int>{0, 1, 2},
                           common::Clock::Real());
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, (std::vector<bool>{false, true, false}));

  // An invalid adversary block fails construction loudly.
  spec.adversary.colluder_fraction = 2.0;
  EXPECT_EQ(registry.Create(spec.kind, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProviderRegistryTest, ScriptedProviderAnswersScriptThenTruths) {
  const core::ProviderRegistry registry = core::BuiltinProviderRegistry();
  core::ProviderSpec spec;
  spec.kind = "scripted";
  spec.truths = {true, true, false};
  auto provider = registry.Create("scripted", spec);
  ASSERT_TRUE(provider.ok());
  const std::vector<int> tasks = {0, 2};
  auto answers = core::SubmitAndAwait(**provider, tasks, common::Clock::Real());
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, (std::vector<bool>{true, false}));

  // An explicit script wins over the bound truths.
  spec.script = {false, false, true};
  provider = registry.Create("scripted", spec);
  ASSERT_TRUE(provider.ok());
  answers = core::SubmitAndAwait(**provider, tasks, common::Clock::Real());
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, (std::vector<bool>{false, true}));
}

TEST(FuserRegistryTest, BuildsEveryBuiltinKey) {
  const fusion::FuserRegistry registry = fusion::BuiltinFuserRegistry();
  for (const std::string key :
       {"crh", "majority_vote", "accu", "truthfinder", "sums", "averagelog",
        "investment"}) {
    fusion::FuserSpec spec;
    spec.kind = key;
    auto fuser = registry.Create(key, spec);
    ASSERT_TRUE(fuser.ok()) << key << ": " << fuser.status();
    EXPECT_NE(*fuser, nullptr) << key;
    EXPECT_FALSE((*fuser)->name().empty()) << key;
  }
}

TEST(FuserRegistryTest, UnknownKeyAndBadSpecFail) {
  const fusion::FuserRegistry registry = fusion::BuiltinFuserRegistry();
  auto unknown = registry.Create("votr", fusion::FuserSpec{});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("votr"), std::string::npos);
  EXPECT_NE(unknown.status().message().find("majority_vote"),
            std::string::npos);

  fusion::FuserSpec spec;
  spec.max_iterations = -3;
  EXPECT_EQ(registry.Create("crh", spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RegistryTest, KeysAreSortedAndComplete) {
  EXPECT_EQ(core::BuiltinSelectorRegistry().Keys(),
            (std::vector<std::string>{"greedy", "opt", "query_based",
                                      "random", "sampled"}));
  EXPECT_EQ(crowd::FullProviderRegistry().Keys(),
            (std::vector<std::string>{"scripted", "simulated_crowd"}));
  EXPECT_EQ(fusion::BuiltinFuserRegistry().Keys(),
            (std::vector<std::string>{"accu", "averagelog", "crh",
                                      "investment", "majority_vote", "sums",
                                      "truthfinder"}));
}

}  // namespace
}  // namespace crowdfusion
