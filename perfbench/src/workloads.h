// The three workloads and the pool generator.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "data.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string data_dir = "perfbench/data";
  std::string work_dir = ".";  // sockets and span files go here
};

/// What a workload tells main() besides its metrics.
struct Provenance {
  int jobs = 1;               // worker threads the rewrites ran on
  std::string list_hash;      // Fnv64 over the request list, in order
  double tail_percentile = 0; // the percentile req_tail_ms reports
  int64_t distinct_requests = 0;
};

RunReport RunFig4Cold(const Args& args, const Pool& pool, Provenance* prov);
RunReport RunChainParallel(const Args& args, const Pool& pool,
                           Provenance* prov);
RunReport RunServedMixed(const Args& args, const Pool& pool,
                         Provenance* prov);

/// Draws a workload's pool, renders and oracle-checks every answer, and
/// writes perfbench/data/<workload>.jsonl.  Run once, when the benchmark
/// is defined; the files are then part of the benchmark.
int GeneratePool(const std::string& workload, const std::string& data_dir,
                 const std::string& generated_at);

/// Per-layer metrics of a traced run, by name; EmitLayerMetrics writes
/// every name of the fixed list, 0 where the workload does not exercise
/// that layer.
using LayerValues = std::map<std::string, double>;
void EmitLayerMetrics(const LayerValues& values, RunReport* report);

/// Fills the parser/prepare/orders/phase1/phase2/finalize/render metrics
/// from a re-drive's spans and counts.  `parse_render` false leaves the
/// parser and render metrics to the caller.
void FillUnitLayers(const SpanStore& spans, const LayerCounts& counts,
                    bool parse_render, LayerValues* values);

/// Checks that layer self-times account for the traced wall time: the
/// unattributed share (root spans' self time / root time) must stay
/// within kMaxUnattributed.  Records trace.unattributed_ratio.
inline constexpr double kMaxUnattributed = 0.05;
void CheckAttribution(const SpanStore& spans, const std::string& what,
                      LayerValues* values, RunReport* report);

/// End-to-end metrics shared by every workload.
struct EndToEnd {
  std::vector<double> latencies_ms;
  double timed_wall_s = 0;
  // When set (> 0), reported as throughput_rps instead of requests /
  // timed_wall_s: served-mixed reports the median of its per-second
  // completion counts, which a momentary stall of the shared host moves
  // less than the mean.
  double throughput_rps = 0;
  double cpu_s = 0;
  double setup_s = 0;
  double tail_percentile = 0;
};
void EmitEndToEnd(const EndToEnd& e, RunReport* report);

/// The paper's running example, as a job block.
extern const char kPaperJob[];

/// Feeds CheckAnswer deliberately wrong answers for the paper's example
/// (outcome flipped either way, one disjunct dropped) and a "none" answer
/// with another reason, and fails the run unless the checker flags exactly
/// the wrong ones.
void SelfTestChecker(RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
