// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir DIR] [--work-dir DIR] [--commit SHA]
//             [--corrupt ID]
//
// --corrupt plants a wrong expected answer for every spelling of the pool
// entry ID's request, so the run must report failures.
//   perfbench --generate <workload> [--data-dir DIR] [--commit SHA]
//
// Prints notes and a provenance line, then, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// perfbench/run.py builds this program and is the usual way to run it.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig4-cold|chain-parallel|served-mixed --seed N --seconds S "
               "--trace 0|1\n",
               msg);
  return 2;
}

std::string JsonNumber(double v) {
  if (v != v || v == 1.0 / 0.0 || v == -1.0 / 0.0) return "0";
  return perfbench::Num(v);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string generate, corrupt, commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value().c_str());
      have_seconds = true;
    } else if (flag == "--trace") {
      args.trace = value() == "1";
      have_trace = true;
    } else if (flag == "--data-dir") {
      args.data_dir = value();
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--commit") {
      commit = value();
    } else if (flag == "--corrupt") {
      corrupt = value();
    } else if (flag == "--generate") {
      generate = value();
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to measure an assert-enabled build "
               "(build type %s); rebuild with NDEBUG\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif

  if (!generate.empty()) {
    return perfbench::GeneratePool(generate, args.data_dir, commit);
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      args.seconds <= 0) {
    return Usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }

  perfbench::Pool pool;
  std::string error;
  if (!perfbench::LoadPool(args.data_dir + "/" + args.workload + ".jsonl",
                           &pool, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  if (!corrupt.empty()) {
    int base = -1;
    for (const perfbench::PoolEntry& e : pool.entries) {
      if (e.id == corrupt) base = e.base;
    }
    if (base < 0) return Usage(("no pool entry " + corrupt).c_str());
    for (perfbench::PoolEntry& e : pool.entries) {
      if (e.base != base) continue;
      for (auto& [tag, x] : e.expected) {
        x = perfbench::MakeExpected(
            x.outcome == "found"
                ? "job 0: no equivalent rewriting (planted)\n"
                : "job 0: equivalent rewriting (0 disjuncts)\n",
            x.oracle);
      }
    }
  }

  perfbench::Provenance prov;
  perfbench::RunReport report;
  if (args.workload == "fig4-cold") {
    report = perfbench::RunFig4Cold(args, pool, &prov);
  } else if (args.workload == "chain-parallel") {
    report = perfbench::RunChainParallel(args, pool, &prov);
  } else if (args.workload == "served-mixed") {
    report = perfbench::RunServedMixed(args, pool, &prov);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (report.attempted < 1) report.Fail("no request was attempted");

  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  std::printf(
      "# provenance: {\"commit\": \"%s\", \"build_type\": \"%s\", "
      "\"nproc\": %d, \"jobs\": %d, \"workload\": \"%s\", "
      "\"seed\": %llu, \"request_list_hash\": \"%s\", "
      "\"distinct_requests\": %lld, \"req_tail_percentile\": %g, "
      "\"trace\": %d, \"pool_generated_at\": \"%s\"}\n",
      commit.c_str(), PERFBENCH_BUILD_TYPE,
      perfbench::CpuCount(), prov.jobs, args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), prov.list_hash.c_str(),
      static_cast<long long>(prov.distinct_requests), prov.tail_percentile,
      args.trace ? 1 : 0, pool.generated_at.c_str());
  const double fail_frac =
      report.attempted > 0
          ? static_cast<double>(report.failed) / report.attempted
          : 1.0;
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("# %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!args.trace) {
    std::printf("# %-36s %14.6g %s (%lld of %lld)\n", "fail_frac", fail_frac,
                "ratio", static_cast<long long>(report.failed),
                static_cast<long long>(report.attempted));
  }

  std::string json = "{\"correct\": ";
  json += report.correct && report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
