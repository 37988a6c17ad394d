// charisma_perfbench — runs one benchmark workload of the CHARISMA
// simulator and prints one JSON result object as its last line.
//
//   charisma_perfbench --workload <name> --seed <n> --seconds <n>
//                      --trace <0|1> [--spans <path>]
//   charisma_perfbench --canary --seed <n>
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
// untraced and traced and reports the per-layer metrics. --canary runs the
// known-defect probe (lazy channel x partial pilot band) instead. The exit
// code is 0 when every output check passed, 1 when one failed, 2 on a
// usage error. perfbench/run.py builds this program and wraps it.
#include <sched.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "support.hpp"
#include "workloads.hpp"

namespace {

using perfbench::JsonObject;

unsigned cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1U;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "charisma_perfbench: " << why << "\n"
            << "usage: charisma_perfbench --workload <name> --seed <n> "
               "--seconds <n> --trace <0|1> [--spans <path>]\n"
            << "       charisma_perfbench --canary --seed <n>\n";
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& value,
                    long long lo, long long hi) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(value, &pos);
    if (pos == value.size() && v >= lo && v <= hi) return v;
  } catch (const std::exception&) {
  }
  usage(flag + " expects an integer in [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "], got '" + value + "'");
}

JsonObject build_record(const perfbench::RunOptions& options) {
  JsonObject record;
  record.integer("seed", static_cast<long long>(options.seed))
      .integer("nproc", cpus_available())
      .integer("hardware_concurrency", std::thread::hardware_concurrency())
      .integer("threads", options.threads)
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("flags", PERFBENCH_FLAGS);
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.threads = std::min(4U, cpus_available());
  std::string workload;
  std::string spans_path;
  bool canary = false;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--canary") {
      canary = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(
          parse_int(flag, value, 0, (1LL << 62)));
      seed_given = true;
    } else if (flag == "--seconds") {
      options.seconds = static_cast<int>(parse_int(flag, value, 1, 60));
    } else if (flag == "--trace") {
      options.trace = parse_int(flag, value, 0, 1) == 1;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!seed_given) usage("--seed is required");

  if (canary) {
    JsonObject out;
    out.obj("known_defect", perfbench::probe_lazy_partial_band(options.seed));
    std::cout << out.dump() << std::endl;
    return 0;
  }

  bool known = false;
  for (const auto& name : perfbench::workload_names()) known = known || name == workload;
  if (!known) usage("--workload must name a workload, got '" + workload + "'");

  JsonObject result;
  result.str("workload", workload).boolean("trace", options.trace);
  try {
    auto run = perfbench::run_workload(workload, options);
    std::vector<JsonObject> checks;
    for (const auto& c : run.checks) {
      JsonObject o;
      o.str("name", c.name).boolean("ok", c.ok).str("detail", c.detail);
      checks.push_back(std::move(o));
    }
    const bool correct = run.correct();
    if (!options.trace) {
      run.metrics.num("peak_rss_mb",
                      static_cast<double>(charisma::bench::peak_rss_bytes()) /
                          (1024.0 * 1024.0));
    }
    if (!spans_path.empty() && !run.spans.write(spans_path)) {
      std::cerr << "charisma_perfbench: cannot write spans to " << spans_path
                << "\n";
    }
    auto record = build_record(options);
    record.obj("workload", run.record).integer("spans", static_cast<long long>(run.spans.size()));
    result.boolean("correct", correct)
        .integer("attempted", run.attempted)
        .integer("failed", correct ? 0 : run.attempted)
        .arr("checks", checks)
        .obj("metrics", run.metrics)
        .obj("model", run.model)
        .obj("record", record);
    std::cout << result.dump() << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    result.boolean("correct", false)
        .integer("attempted", 1)
        .integer("failed", 1)
        .str("error", e.what())
        .obj("record", build_record(options));
    std::cout << result.dump() << std::endl;
    return 1;
  }
}
