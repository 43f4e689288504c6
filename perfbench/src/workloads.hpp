// The four workloads. Each runs set-up, a timed phase of args.seconds, and
// its output checks, and fills either the end-to-end metrics (untraced) or
// the per-layer metrics (traced). Why each workload exists is in README.md.
#pragma once

#include "common.hpp"

namespace perfbench {

Report run_embed_highdim(const Args& args);
Report run_mpc_embed_proc(const Args& args);
Report run_serve_read(const Args& args);
Report run_serve_update(const Args& args);

}  // namespace perfbench
