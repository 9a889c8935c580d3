// fnr_perfbench: runs one pass of one benchmark workload and prints its
// measurements as one JSON line. perfbench/run.py is the user-facing
// command; it builds this binary, runs passes, and reports medians.
//
//   fnr_perfbench --workload=large-n|paper-theorems|fnrd-swarm --seed=N
//                 --workdir=DIR [--traced] [--reference] [--smoke]
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/parse.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    fnr::Cli cli(argc, argv);
    PassOptions options;
    options.workload = cli.get_string("workload", "");
    options.seed = fnr::parse_uint64(cli.get_string("seed", "1"), "--seed");
    options.workdir = cli.get_string("workdir", "");
    options.traced = cli.get_flag("traced");
    options.reference = cli.get_flag("reference");
    options.smoke = cli.get_flag("smoke");
    cli.reject_unknown();
    FNR_CHECK_MSG(!options.workdir.empty(), "--workdir is required");

    PassResult result;
    if (options.workload == "large-n") {
      result = run_large_n(options);
    } else if (options.workload == "paper-theorems") {
      result = run_paper_theorems(options);
    } else if (options.workload == "fnrd-swarm") {
      result = run_fnrd_swarm(options);
    } else {
      FNR_CHECK_MSG(false, "unknown --workload '" << options.workload << "'");
    }
    std::cout << result.to_json() << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "fnr_perfbench: " << error.what() << "\n";
    return 1;
  }
}
