#include "mpc/step.hpp"

#include <map>
#include <mutex>
#include <utility>

#include "common/status.hpp"
#include "mpc/cluster.hpp"
#include "simd/arena.hpp"

namespace mpte::mpc {

struct StepRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, Factory> factories;
};

StepRegistry& StepRegistry::global() {
  static StepRegistry registry;
  return registry;
}

StepRegistry::Impl& StepRegistry::impl() const {
  static Impl instance;
  return instance;
}

void StepRegistry::add(std::string name, Factory factory) {
  if (name.empty()) throw MpteError("StepRegistry: empty step name");
  if (!factory) throw MpteError("StepRegistry: null factory for " + name);
  auto& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  const auto [it, inserted] =
      state.factories.emplace(std::move(name), std::move(factory));
  if (!inserted) {
    throw MpteError("StepRegistry: duplicate step name " + it->first);
  }
}

bool StepRegistry::contains(std::string_view name) const {
  auto& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  return state.factories.find(std::string(name)) != state.factories.end();
}

Step StepRegistry::instantiate(const std::string& name,
                               StepParams params) const {
  Factory factory;
  {
    auto& state = impl();
    const std::lock_guard<std::mutex> lock(state.mutex);
    const auto it = state.factories.find(name);
    if (it == state.factories.end()) {
      throw MpteError("StepRegistry: unknown step name " + name);
    }
    factory = it->second;
  }
  return factory(params);
}

std::vector<std::string> StepRegistry::names() const {
  auto& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<std::string> out;
  out.reserve(state.factories.size());
  for (const auto& [name, factory] : state.factories) out.push_back(name);
  return out;
}

RegisterStep::RegisterStep(const char* name, StepRegistry::Factory factory) {
  StepRegistry::global().add(name, std::move(factory));
}

Step resolve_step(const StepSpec& spec) {
  return StepRegistry::global().instantiate(spec.name, spec.params);
}

void execute_rank_step(MachineId rank, std::size_t num_machines,
                       Machine& machine, Outbox& outbox, const Step& step) {
  // ScratchScope reclaims kernel temporaries the step bumped off the
  // executing thread's arena before the next rank's step reuses it.
  simd::ScratchScope scratch_scope;
  MachineContext ctx(rank, num_machines, machine, outbox);
  step(ctx);
}

}  // namespace mpte::mpc
