#ifndef CROWDFUSION_CROWD_PROVIDER_REGISTRY_H_
#define CROWDFUSION_CROWD_PROVIDER_REGISTRY_H_

#include "common/status.h"
#include "core/registry.h"

namespace crowdfusion::crowd {

/// Registers this layer's providers into a core::ProviderRegistry:
///
///   "simulated_crowd" — a crowd::SimulatedCrowd judging the spec's
///   `truths`/`categories` with the spec's accuracy (uniform, or the
///   Section V-D biased pool when spec.biased), seeded by spec.seed.
///   When any latency or failure knob is set the crowd's latency model is
///   configured too, so its tickets simulate real answer delays and
///   outages in every run mode, engine included.
///
/// `clock` is borrowed by every provider the registered factory creates
/// (latency simulation); nullptr means Clock::Real().
common::Status RegisterCrowdProviders(core::ProviderRegistry& registry,
                                      common::Clock* clock = nullptr);

/// BuiltinProviderRegistry() from core, plus this layer's providers — the
/// registry the service facade serves from.
core::ProviderRegistry FullProviderRegistry(common::Clock* clock = nullptr);

}  // namespace crowdfusion::crowd

#endif  // CROWDFUSION_CROWD_PROVIDER_REGISTRY_H_
