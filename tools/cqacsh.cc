// cqacsh: interactive shell over the cqac library.
//
//   $ ./build/tools/cqacsh
//   cqac> view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z.
//   cqac> query q(A) :- r(A), s(A,A), A <= 8.
//   cqac> rewrite verify coalesce
//
// Also scriptable:  ./build/tools/cqacsh < session.cqac
//
// Batch service mode: `cqacsh --serve-batch [--jobs N]` reads a stream of
// jobs (blocks of `view`/`query` lines separated by `run`, `---`, or a
// blank line) and executes them concurrently over a work-stealing thread
// pool, printing results in input order.  See src/runtime/batch_driver.h
// for the format.
//
// Observability: `--trace out.json` records phase-level spans for the
// whole session and writes a Chrome trace-event file on exit (open it in
// chrome://tracing or Perfetto); `--metrics` collects runtime counters
// and dumps the registry on exit.  See docs/OBSERVABILITY.md.

#include <fstream>
#include <iostream>
#include <string>

#include <unistd.h>

#include "cli/shell.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/batch_driver.h"
#include "runtime/thread_pool.h"

namespace {

void PrintUsage(std::ostream& out) {
  out << "usage: cqacsh [--jobs N] [--force-tier N] [--serve-batch]\n"
         "              [--catalog] [--stats] [--json] [--trace FILE]\n"
         "              [--metrics] [--help]\n"
         "  --jobs N       worker threads for rewriting (0 = all cores;\n"
         "                 default: all cores; 1 = one thread; max 4096)\n"
         "  --force-tier N pin the structural execution tier for every\n"
         "                 rewrite (0 = general, 1 = semi-interval; -1 =\n"
         "                 auto, the default).  A forced tier applies only\n"
         "                 when the input is eligible, else the run falls\n"
         "                 back to the general path; results are identical\n"
         "                 across tiers (testing hook)\n"
         "  --serve-batch  read rewriting jobs from stdin and execute them\n"
         "                 concurrently; otherwise run the interactive shell\n"
         "  --catalog      with --serve-batch, compile each distinct view\n"
         "                 set once into a shared ViewCatalog whose plans,\n"
         "                 Phase-1 memos, and semantic result cache persist\n"
         "                 across the batch's jobs; results are\n"
         "                 byte-identical (the interactive shell always\n"
         "                 uses a session catalog)\n"
         "  --stats        print the Phase-1 breakdown (databases visited /\n"
         "                 pruned / deduped) and the per-phase wall times\n"
         "                 after each rewrite; with --serve-batch,\n"
         "                 aggregated once per batch\n"
         "  --json         emit a one-line JSON record of outcome and all\n"
         "                 counters (including the Phase-1 memo hit/miss\n"
         "                 split) after each rewrite or batch\n"
         "  --trace FILE   record phase-level spans for the whole session\n"
         "                 and write a Chrome trace-event JSON file on exit\n"
         "                 (view in chrome://tracing or Perfetto)\n"
         "  --metrics      collect runtime metrics (memo hit rates, queue\n"
         "                 depths, wall-time histograms) and dump the\n"
         "                 registry on exit; the shell's `metrics` command\n"
         "                 dumps it on demand\n"
         "  --help         this message\n";
}

/// Writes the session's collected spans as Chrome trace-event JSON.
/// Returns false (after printing an error) when the file cannot be
/// written.
bool WriteTraceFile(const std::string& path) {
  const cqac::obs::CollectedTrace trace = cqac::obs::StopTracing();
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write trace file '" << path << "'\n";
    return false;
  }
  cqac::obs::WriteChromeTrace(out, trace);
  if (!cqac::obs::TracingCompiledIn()) {
    std::cerr << "warning: this build has CQAC_TRACING=OFF; the trace is "
                 "empty\n";
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;        // 0 = hardware concurrency.
  int force_tier = -1;  // -1 = auto tier routing.
  bool serve_batch = false;
  bool use_catalog = false;
  bool print_stats = false;
  bool json_stats = false;
  bool metrics = false;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve-batch") {
      serve_batch = true;
    } else if (arg == "--catalog") {
      use_catalog = true;
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--json") {
      json_stats = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--trace") {
      if (i + 1 >= argc) {
        std::cerr << "error: --trace needs a file path\n";
        return 1;
      }
      trace_path = argv[++i];
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
      if (trace_path.empty()) {
        std::cerr << "error: --trace needs a file path\n";
        return 1;
      }
    } else if (arg == "--jobs") {
      if (i + 1 >= argc) {
        std::cerr << "error: --jobs needs a value\n";
        return 1;
      }
      std::string error;
      if (!cqac::ThreadPool::ParseJobsFlag(argv[++i], &jobs, &error)) {
        std::cerr << "error: --jobs " << error << "\n";
        return 1;
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      std::string error;
      if (!cqac::ThreadPool::ParseJobsFlag(arg.substr(7), &jobs, &error)) {
        std::cerr << "error: --jobs " << error << "\n";
        return 1;
      }
    } else if (arg == "--force-tier" || arg.rfind("--force-tier=", 0) == 0) {
      std::string value;
      if (arg == "--force-tier") {
        if (i + 1 >= argc) {
          std::cerr << "error: --force-tier needs a value\n";
          return 1;
        }
        value = argv[++i];
      } else {
        value = arg.substr(13);
      }
      if (value != "0" && value != "1" && value != "-1") {
        std::cerr << "error: --force-tier expects 0, 1 or -1\n";
        return 1;
      }
      force_tier = std::stoi(value);
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else {
      std::cerr << "error: unknown argument '" << arg << "'\n";
      PrintUsage(std::cerr);
      return 1;
    }
  }

  if (!trace_path.empty()) cqac::obs::StartTracing();
  if (metrics) cqac::obs::EnableMetrics(true);

  int status = 0;
  if (serve_batch) {
    cqac::BatchOptions options;
    options.jobs = jobs;
    options.rewrite.force_tier = force_tier;
    options.use_catalog = use_catalog;
    options.print_stats = print_stats;
    options.json_summary = json_stats;
    options.print_metrics = metrics;
    const cqac::BatchSummary summary =
        cqac::RunBatch(std::cin, std::cout, options);
    status = summary.errors > 0 ? 1 : 0;
  } else {
    cqac::Shell shell(std::cout);
    shell.set_default_jobs(jobs);
    shell.set_default_force_tier(force_tier);
    shell.set_print_stats(print_stats);
    shell.set_json_stats(json_stats);
    shell.ProcessStream(std::cin, /*interactive=*/isatty(STDIN_FILENO) != 0);
    if (metrics) cqac::obs::MetricsRegistry::Global().DumpText(std::cout);
  }

  if (!trace_path.empty() && !WriteTraceFile(trace_path) && status == 0) {
    status = 1;
  }
  return status;
}
