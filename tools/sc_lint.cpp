/// \file sc_lint.cpp
/// Static-analysis CLI over stochastic-computing programs.
///
/// Plans each input program (graph::plan_program) and runs the full
/// src/analysis/ pass — seed provenance + collisions, correlation
/// dataflow, redundancy, fragility — printing human-readable diagnostics
/// or the machine JSON schema checked by tools/validate_lint.py.
///
/// Inputs are .sct files (analysis::parse_program; see
/// src/analysis/text_format.hpp for the grammar) and/or built-in builder
/// examples (--example, --list-examples).
///
/// Exit status: 0 clean or warnings only, 1 when any source has
/// error-class findings (requirement-violation, exact seed-collision),
/// 2 on usage errors, 3 when any source fails to parse (in --json mode
/// the failure is reported as a machine-readable parse_error object and
/// the remaining sources are still linted).

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/text_format.hpp"
#include "common/json.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph/registry.hpp"
#include "opt/optimize.hpp"

namespace {

using sc::analysis::AnalyzerConfig;
using sc::graph::GraphBuilder;
using sc::graph::Program;
using sc::graph::Strategy;
using sc::graph::Value;

struct Options {
  std::vector<std::string> files;
  std::vector<std::string> examples;
  bool json = false;
  bool optimize = false;
  Strategy strategy = Strategy::kManipulation;
  AnalyzerConfig analyzer;
};

constexpr const char* kUsage = R"(usage: sc_lint [options] [program.sct ...]

Statically verifies stochastic-computing programs: correlation
requirements at every gate, RNG/seed provenance and collisions,
redundant correction circuits, decorrelator-chain fragility.

options:
  --example <name>       lint a built-in example program (repeatable)
  --list-examples        list built-in example names and exit
  --json                 machine-readable output (schema: validate_lint.py)
  --strategy <s>         planner strategy: manipulation (default),
                         regeneration, none
  --optimize             run the opt:: pipeline first and lint the result
  --seed <n>             base seed of the derivation scheme (default 3)
  --width <n>            SNG comparator width, 3..32 (default 8)
  --length <n>           stream length in bits (default 256)
  --sync-depth <n>       inserted (de)synchronizer depth, >= 1 (default 2)
  --shuffle-depth <n>    inserted decorrelator depth, >= 1 (default 8)
  --target-rmse <x>      requested per-output RMSE: emits
                         insufficient-stream-length when the predicted
                         error bound at --length exceeds it (default off)
  -h, --help             this text

exit status: 0 clean / warnings only, 1 error-class findings, 2 usage
errors, 3 parse failure (reported as a parse_error object in --json).
)";

// ------------------------------------------------------ builder examples

Program example_fig2_multiply() {
  GraphBuilder builder;
  const Value x = builder.input("x", 0.8, 0);
  const Value y = builder.input("y", 0.6, 0);
  builder.output(builder.op("multiply", {x, y}), "prod");
  return builder.build();
}

Program example_bernstein_shared() {
  GraphBuilder builder;
  const Value x = builder.input("x", 0.7, 0);
  builder.output(builder.op("bernstein-x2-3", {x, x, x}), "poly");
  return builder.build();
}

Program example_roberts_cross() {
  GraphBuilder builder;
  const Value p00 = builder.input("p00", 0.9, 0);
  const Value p01 = builder.input("p01", 0.7, 0);
  const Value p10 = builder.input("p10", 0.4, 0);
  const Value p11 = builder.input("p11", 0.2, 0);
  builder.output(builder.op("roberts-cross", {p00, p01, p10, p11}), "edge");
  return builder.build();
}

Program example_scaled_add() {
  GraphBuilder builder;
  const Value a = builder.input("a", 0.3, 0);
  const Value b = builder.input("b", 0.5, 1);
  builder.output(builder.op("scaled-add", {a, b}), "sum");
  return builder.build();
}

const std::map<std::string, Program (*)()>& examples() {
  static const std::map<std::string, Program (*)()> table = {
      {"fig2-multiply", &example_fig2_multiply},
      {"bernstein-shared", &example_bernstein_shared},
      {"roberts-cross", &example_roberts_cross},
      {"scaled-add", &example_scaled_add},
  };
  return table;
}

// --------------------------------------------------------------- options

bool parse_unsigned(const std::string& text, std::uint64_t& out) {
  try {
    std::size_t consumed = 0;
    out = std::stoull(text, &consumed);
    return consumed == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_double(const std::string& text, double& out) {
  try {
    std::size_t consumed = 0;
    out = std::stod(text, &consumed);
    return consumed == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

int parse_options(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](std::string& out) {
      if (i + 1 >= argc) {
        std::cerr << "sc_lint: " << arg << " needs an argument\n";
        return false;
      }
      out = argv[++i];
      return true;
    };
    const auto next_unsigned = [&](std::uint64_t& out) {
      std::string text;
      if (!next(text)) return false;
      if (!parse_unsigned(text, out)) {
        std::cerr << "sc_lint: malformed number '" << text << "'\n";
        return false;
      }
      return true;
    };
    // Values every backend rejects are usage errors here too.
    const auto next_in_range = [&](std::uint64_t& out, std::uint64_t lo,
                                   std::uint64_t hi) {
      if (!next_unsigned(out)) return false;
      if (out < lo || out > hi) {
        std::cerr << "sc_lint: " << arg << " must be in " << lo << ".." << hi
                  << " (got " << out << ")\n";
        return false;
      }
      return true;
    };
    std::uint64_t number = 0;
    if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--list-examples") {
      for (const auto& [name, make] : examples()) {
        (void)make;
        std::cout << name << "\n";
      }
      return 0;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--optimize") {
      options.optimize = true;
    } else if (arg == "--example") {
      std::string name;
      if (!next(name)) return 2;
      if (examples().count(name) == 0) {
        std::cerr << "sc_lint: unknown example '" << name
                  << "' (see --list-examples)\n";
        return 2;
      }
      options.examples.push_back(name);
    } else if (arg == "--strategy") {
      std::string name;
      if (!next(name)) return 2;
      if (name == "manipulation") {
        options.strategy = Strategy::kManipulation;
      } else if (name == "regeneration") {
        options.strategy = Strategy::kRegeneration;
      } else if (name == "none") {
        options.strategy = Strategy::kNone;
      } else {
        std::cerr << "sc_lint: unknown strategy '" << name << "'\n";
        return 2;
      }
    } else if (arg == "--seed") {
      if (!next_unsigned(number)) return 2;
      options.analyzer.seed = static_cast<std::uint32_t>(number);
    } else if (arg == "--width") {
      if (!next_in_range(number, 3, 32)) return 2;
      options.analyzer.width = static_cast<unsigned>(number);
    } else if (arg == "--length") {
      if (!next_unsigned(number)) return 2;
      options.analyzer.stream_length = static_cast<std::size_t>(number);
    } else if (arg == "--sync-depth") {
      if (!next_in_range(number, 1, std::numeric_limits<unsigned>::max())) {
        return 2;
      }
      options.analyzer.sync_depth = static_cast<unsigned>(number);
    } else if (arg == "--shuffle-depth") {
      if (!next_in_range(number, 1, std::numeric_limits<std::size_t>::max())) {
        return 2;
      }
      options.analyzer.shuffle_depth = static_cast<std::size_t>(number);
    } else if (arg == "--target-rmse") {
      std::string text;
      if (!next(text)) return 2;
      double rmse = 0.0;
      if (!parse_double(text, rmse) || rmse < 0.0) {
        std::cerr << "sc_lint: malformed RMSE '" << text << "'\n";
        return 2;
      }
      options.analyzer.target_rmse = rmse;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "sc_lint: unknown option '" << arg << "'\n"
                << kUsage;
      return 2;
    } else {
      options.files.push_back(arg);
    }
  }
  if (options.files.empty() && options.examples.empty()) {
    std::cerr << "sc_lint: no inputs (give .sct files or --example)\n"
              << kUsage;
    return 2;
  }
  return -1;  // keep going
}

// ------------------------------------------------------------------ lint

/// Lints one named program; returns its report.
sc::analysis::AnalysisReport lint(const Program& program,
                                  const Options& options) {
  sc::graph::PlannerConfig planner_config;
  planner_config.sync_depth = options.analyzer.sync_depth;
  planner_config.shuffle_depth = options.analyzer.shuffle_depth;
  planner_config.width = options.analyzer.width;
  sc::graph::ProgramPlan plan =
      sc::graph::plan_program(program, options.strategy, planner_config);
  if (!options.optimize) {
    return sc::analysis::analyze(program, plan, options.analyzer);
  }
  sc::opt::OptConfig opt_config;
  opt_config.planner = planner_config;
  opt_config.width = options.analyzer.width;
  opt_config.dead_fix_elimination = true;
  const sc::opt::OptResult optimized =
      sc::opt::optimize(program, plan, opt_config);
  return sc::analysis::analyze(optimized.program, optimized.plan,
                               options.analyzer);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const int early = parse_options(argc, argv, options);
  if (early >= 0) return early;

  std::vector<std::pair<std::string, Program>> sources;
  // path -> parse failure message; reported in-band (--json) or on
  // stderr, with a distinct exit status so CI can tell "correct program
  // with findings" (1) apart from "not a program at all" (3).
  std::vector<std::pair<std::string, std::string>> parse_failures;
  for (const std::string& name : options.examples) {
    sources.emplace_back("example:" + name, examples().at(name)());
  }
  for (const std::string& path : options.files) {
    std::ifstream file(path);
    if (!file) {
      std::cerr << "sc_lint: cannot open '" << path << "'\n";
      return 2;
    }
    std::ostringstream text;
    text << file.rdbuf();
    try {
      sources.emplace_back(path, sc::analysis::parse_program(text.str()));
    } catch (const std::invalid_argument& error) {
      parse_failures.emplace_back(path, error.what());
      if (!options.json) {
        std::cerr << "sc_lint: " << path << ": " << error.what() << "\n";
      }
    }
  }

  bool errors = false;
  std::ostringstream json;
  json << "[";
  bool first = true;
  for (const auto& [path, message] : parse_failures) {
    if (!options.json) continue;
    if (!first) json << ",";
    first = false;
    json << "\n{\n  \"source\": \"" << sc::json_escape(path)
         << "\",\n  \"parse_error\": {\n    \"message\": \""
         << sc::json_escape(message) << "\"\n  }\n}";
  }
  for (const auto& [name, program] : sources) {
    const sc::analysis::AnalysisReport report = lint(program, options);
    errors = errors || report.has_errors();
    if (options.json) {
      if (!first) json << ",";
      first = false;
      json << "\n" << report.to_json(name);
    } else {
      std::cout << "== " << name << " ==\n" << report.to_text() << "\n";
    }
  }
  if (options.json) {
    json << "\n]";
    std::cout << json.str() << "\n";
  }
  if (!parse_failures.empty()) return 3;
  return errors ? 1 : 0;
}
