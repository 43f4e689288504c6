// perfbench — end-to-end and per-layer benchmark of the mpte library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: embed_highdim, mpc_embed_proc, serve_read, serve_update (see
// README.md). The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics; --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exit status is 0 when
// the run completed (check results are in `correct`), 2 on bad arguments
// or an exception.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "embed_highdim|mpc_embed_proc|serve_read|serve_update "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(args.seconds > 0.0)) return usage();

  try {
    perfbench::Report report;
    if (args.workload == "embed_highdim") {
      report = perfbench::run_embed_highdim(args);
    } else if (args.workload == "mpc_embed_proc") {
      report = perfbench::run_mpc_embed_proc(args);
    } else if (args.workload == "serve_read") {
      report = perfbench::run_serve_read(args);
    } else if (args.workload == "serve_update") {
      report = perfbench::run_serve_update(args);
    } else {
      return usage();
    }
    perfbench::emit(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
