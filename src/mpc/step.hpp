// The named-step program layer.
//
// A round's computation is a `StepSpec`: a stable step name plus an
// explicitly serialized parameter Buffer, resolved through a process-wide
// `StepRegistry` of factories into the executable `Step`. The coordinator
// can therefore send the spec down a socket, and a persistent worker —
// which inherited the registry when it forked — rebuilds the identical
// step on its side. Registration happens in the driver TU that issues the
// round (static-init `RegisterStep` objects), so linking the driver
// guarantees its steps resolve, in this process and in every worker
// forked from it.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/serialize.hpp"
#include "mpc/machine.hpp"

namespace mpte::mpc {

class MachineContext;
struct Outbox;

/// Step function executed by every machine in a round.
using Step = std::function<void(MachineContext&)>;

/// View of a spec's serialized parameters, as handed to a factory. Plain
/// bytes (not a Buffer): spec construction is control-plane and must not
/// materialize slabs — the zero-copy accounting tracks data-plane only.
using StepParams = std::span<const std::uint8_t>;

/// One round's program: a registered name + serialized parameters, so it
/// executes identically on every backend.
struct StepSpec {
  /// Registered step name, e.g. "shuffle/route".
  std::string name;
  /// Serialized parameters handed to the registered factory. The factory
  /// contract is that (name, params) fully determines the step — nothing
  /// data-dependent may be captured host-side.
  std::vector<std::uint8_t> params;

  StepSpec() = default;
  StepSpec(std::string step_name, std::vector<std::uint8_t> step_params)
      : name(std::move(step_name)), params(std::move(step_params)) {}
  /// Convenience: serialize parameters in place.
  StepSpec(std::string step_name, Serializer step_params)
      : name(std::move(step_name)), params(step_params.take()) {}
  explicit StepSpec(std::string step_name) : name(std::move(step_name)) {}
};

/// Process-wide map from step names to factories. Populated at static
/// initialization by `RegisterStep` objects in driver TUs; read-only
/// afterwards. Workers fork after static init, so the registry's contents
/// are identical on both ends of a socket by construction.
class StepRegistry {
 public:
  using Factory = std::function<Step(StepParams params)>;

  static StepRegistry& global();

  /// Registers `factory` under `name`; throws MpteError on a duplicate
  /// (two TUs claiming one name is a program bug, not a race to win).
  void add(std::string name, Factory factory);

  bool contains(std::string_view name) const;

  /// Builds the step for (name, params); throws MpteError on an unknown
  /// name — the caller's binary does not link the driver that defines it.
  Step instantiate(const std::string& name, StepParams params) const;

  /// Registered names, sorted (diagnostics).
  std::vector<std::string> names() const;

 private:
  StepRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Static-init registrar: `static const RegisterStep reg{"name", factory};`
/// in the TU that issues the round.
struct RegisterStep {
  RegisterStep(const char* name, StepRegistry::Factory factory);
};

/// The executable for `spec`: the registry instantiation. Throws
/// MpteError on an unknown name.
Step resolve_step(const StepSpec& spec);

/// Runs one rank's step and captures its sends: scratch-arena scope,
/// MachineContext construction, step call. The single definition shared
/// by the in-process round path and the ipc workers, so the two backends
/// cannot drift in how a step observes its machine.
void execute_rank_step(MachineId rank, std::size_t num_machines,
                       Machine& machine, Outbox& outbox, const Step& step);

}  // namespace mpte::mpc
