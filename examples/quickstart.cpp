/// Quickstart: the paper's running example end to end, served through the
/// FusionService facade.
///
/// Builds the four Hong Kong facts and their 16-output joint distribution
/// (Tables I/II), then issues ONE typed FusionRequest: greedy selection of
/// the best two crowd tasks (Algorithm 1), a simulated crowd answering
/// them, and the Bayesian merge (Equation 3) — the whole Figure-1 loop
/// behind a single request/response API. The same request, with only
/// `mode` changed, runs on the global-budget scheduler instead.
///
///   ./quickstart

#include <cstdio>
#include <iostream>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/running_example.h"
#include "core/utility.h"
#include "service/fusion_service.h"
#include "service/request_json.h"

using namespace crowdfusion;

int main() {
  const core::FactSet facts = core::RunningExample::Facts();
  const core::JointDistribution joint = core::RunningExample::Joint();
  const core::CrowdModel crowd = core::RunningExample::Crowd();

  std::printf("CrowdFusion quickstart — the paper's running example\n\n");
  common::TablePrinter table({"Fid", "Fact", "P(f)"});
  for (int i = 0; i < facts.size(); ++i) {
    table.AddRow({"f" + std::to_string(i + 1), facts.at(i).ToString(),
                  common::StrFormat("%.2f", joint.Marginal(i))});
  }
  table.Print(std::cout);
  std::printf("\nInitial quality Q(F) = -H(F) = %.4f bits\n",
              core::QualityBits(joint));

  // One typed request: the running-example joint, the full-featured
  // greedy, a simulated crowd (ground truth: f1,f2,f3 true, f4 false).
  service::FusionRequest request;
  request.mode = service::RunMode::kEngine;
  request.label = "quickstart";
  service::InstanceSpec instance;
  instance.name = "hong-kong";
  instance.joint = joint;
  instance.truths = {true, true, true, false};
  request.instances.push_back(std::move(instance));
  request.selector.kind = "greedy";
  request.selector.use_pruning = true;
  request.selector.use_preprocessing = true;
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = crowd.pc();
  request.provider.seed = 2024;
  request.assumed_pc = crowd.pc();
  request.budget.budget_per_instance = 2;  // one round of k = 2 tasks
  request.budget.tasks_per_step = 2;

  service::FusionService fusion_service;
  auto response = fusion_service.Run(request);
  if (!response.ok()) {
    std::fprintf(stderr, "service run failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }

  const service::StepOutcome& round = response->steps.front();
  std::printf("\nSelected tasks (k=2, Pc=%.1f):\n", crowd.pc());
  for (int t : round.tasks) {
    std::printf("  ask the crowd: \"Is it true that %s?\"\n",
                facts.at(t).ToString().c_str());
  }
  std::printf("H(T) = %.4f bits, expected quality gain %.4f bits\n",
              round.selected_entropy_bits, round.expected_gain_bits);

  std::printf("\nCrowd answered:");
  for (size_t i = 0; i < round.answers.size(); ++i) {
    std::printf(" f%d=%s", round.tasks[i] + 1,
                round.answers[i] ? "true" : "false");
  }
  std::printf("\n");

  const service::InstanceReport& report = response->instances.front();
  std::printf("\nAfter the Bayesian merge (Equation 3):\n");
  common::TablePrinter after({"Fid", "P(f) before", "P(f) after"});
  for (int i = 0; i < facts.size(); ++i) {
    after.AddRow({"f" + std::to_string(i + 1),
                  common::StrFormat("%.3f", joint.Marginal(i)),
                  common::StrFormat("%.3f",
                                    report.final_marginals[
                                        static_cast<size_t>(i)])});
  }
  after.Print(std::cout);
  std::printf("\nQuality: %.4f -> %.4f bits\n", core::QualityBits(joint),
              report.utility_bits);

  // The request is a plain value: here is the exact JSON a remote client
  // would POST to run the same thing.
  std::printf("\nThis run as a serialized FusionRequest:\n%s\n",
              service::SerializeFusionRequest(request).c_str());
  return 0;
}
