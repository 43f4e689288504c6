// Test-only bridge from an ad-hoc closure to a StepSpec, for in-process
// clusters only: a worker pool that forked earlier would not know the name.
#pragma once

#include <string>

#include "mpc/step.hpp"

namespace mpte {

/// Registers `step` under a fresh "test/closure/<n>" name; returns its spec.
inline mpc::StepSpec closure_step(mpc::Step step) {
  static std::uint64_t next = 0;  // registration runs on the test thread
  std::string name = "test/closure/" + std::to_string(next++);
  mpc::StepRegistry::global().add(
      name, [step = std::move(step)](mpc::StepParams) { return step; });
  return mpc::StepSpec(std::move(name));
}

}  // namespace mpte
