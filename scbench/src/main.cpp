/// \file main.cpp
/// The benchmark binary.  scbench/run.py builds it and calls it; it can
/// also be run by hand:
///
///   scbench run   --workload W --seed N --seconds S   end-to-end metrics
///   scbench setup --workload W --seed N               cold set-up only
///   scbench trace --workload W --seed N --seconds S --trace-out PATH
///                                                      per-layer metrics
///
/// The last stdout line is one JSON object (see common.cpp print_outcome);
/// `setup` prints {"setup_s": ...}.  Exit status: 0 ok, 1 failed check,
/// 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s run|setup|trace --workload "
               "graph-op16|design-sweep|long-stream|image-tiles --seed N "
               "[--seconds S] [--trace-out PATH]\n",
               program);
  return 2;
}

bool known_workload(const std::string& name) {
  for (const char* workload : scbench::kWorkloads) {
    if (name == workload) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const scbench::Clock::time_point process_start = scbench::Clock::now();
  if (argc < 2) return usage(argv[0]);
  const std::string mode = argv[1];
  scbench::Options options;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!known_workload(options.workload) || !(options.seconds > 0.0)) {
    return usage(argv[0]);
  }

  try {
    if (mode == "setup") {
      const double setup_s = scbench::run_setup(options, process_start);
      std::printf("{\"setup_s\": %.17g}\n", setup_s);
      return 0;
    }
    scbench::Outcome outcome;
    if (mode == "run") {
      outcome = scbench::run_workload(options, process_start);
    } else if (mode == "trace") {
      if (options.trace_out.empty()) return usage(argv[0]);
      outcome = scbench::run_trace(options);
    } else {
      return usage(argv[0]);
    }
    scbench::print_outcome(outcome);
    return outcome.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "scbench: %s\n", error.what());
    return 1;
  }
}
