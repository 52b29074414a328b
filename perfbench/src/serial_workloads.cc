// fig4-cold and chain-parallel: one client thread issuing cold one-shot
// requests back to back.  fig4-cold goes through EquivalentRewriter with
// jobs=1, the library path the examples use; chain-parallel through
// ParallelRewrite on a shared ThreadPool of `nproc` workers, cqacsh's
// default driver.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>

#include "rewriting/equiv_rewriter.h"
#include "runtime/batch_driver.h"
#include "runtime/parallel_rewriter.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

// req_tail_ms percentiles: the highest percentile with at least ten
// samples beyond it at a 30 s run's request count: three fig4-cold passes
// of 27 requests, 30 chain-parallel passes of 4.
constexpr double kFig4TailPct = 87;
constexpr double kChainTailPct = 90;

// A run is a fixed amount of work, sized to take about --seconds at the
// commit the benchmark was defined at: one fig4-cold pass takes 8-10 s,
// one chain-parallel pass ~1 s.  A time-boxed run made two to four fig4
// passes on a shared 4-CPU host, and the first, colder pass then weighed
// differently from run to run.
constexpr int kFig4PassSeconds = 10;
constexpr int kChainPassSeconds = 1;

// ThreadPool builds timed for chain-parallel's setup_s.
constexpr int kChainSetupBuilds = 1001;

// Salts keep the workloads' seed streams apart.
constexpr uint64_t kFig4Salt = 0xf164c01dULL;
constexpr uint64_t kChainSalt = 0xc4a1e9a2ULL;

using Request = std::function<std::string(const PoolEntry&)>;

std::string OneShot(const std::string& text) {
  const cqac::BatchJob job = cqac::ParseJobBlock(text);
  if (!job.error.empty()) return cqac::RenderJobError(0, job.error);
  cqac::RewriteOptions options;
  options.jobs = 1;
  const cqac::RewriteResult result =
      cqac::EquivalentRewriter(*job.query, job.views, options).Run();
  return cqac::RenderJobResult(0, job, result, /*echo=*/false);
}

std::string ListHash(const std::vector<const PoolEntry*>& list) {
  uint64_t h = kFnvOffset;
  for (const PoolEntry* e : list) {
    h = Fnv64(e->job, h);
    h = Fnv64(std::string_view("\0", 1), h);
  }
  return Hex64(h);
}

/// Answers that differed from their expected text, re-checked after the
/// timed loop.
struct Deferred {
  const PoolEntry* entry;
  std::string rendered;
};

/// Settles deferred answers (CheckAnswer's equivalence fallback runs here,
/// outside every timed region) and returns how many were wrong.  Each
/// distinct (request, answer) pair is checked and noted once.
int64_t Settle(const std::vector<Deferred>& deferred, RunReport* report) {
  AnswerChecker checker;
  int64_t wrong = 0;
  for (const Deferred& d : deferred) {
    bool first = false;
    const Verdict v = checker.Check(d.entry->id, d.entry->expected.at("self"),
                                    d.rendered, d.entry->job, nullptr, &first);
    if (v == Verdict::kWrong) ++wrong;
    if (!first) continue;
    if (v == Verdict::kWrong) {
      report->Note("wrong answer for " + d.entry->id + ": " +
                   d.rendered.substr(0, 200));
    } else if (v == Verdict::kOtherReason) {
      report->Note("answer for " + d.entry->id +
                   " finds no rewriting, for another reason");
    } else {
      report->Note("answer for " + d.entry->id +
                   " differs in text but is equivalent");
    }
  }
  return wrong;
}

/// Runs `passes` whole passes over `list`.  Latencies cover parse ->
/// rewrite -> render; answer comparison happens between requests, outside
/// them.
void RunPasses(const std::vector<const PoolEntry*>& list, int passes,
               const Request& request, EndToEnd* e2e, RunReport* report) {
  std::vector<Deferred> deferred;
  const int64_t cpu0 = ProcessCpuNs();
  int64_t timed_ns = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (const PoolEntry* e : list) {
      const int64_t t0 = NowNs();
      std::string rendered = request(*e);
      const int64_t dt = NowNs() - t0;
      timed_ns += dt;
      e2e->latencies_ms.push_back(static_cast<double>(dt) / 1e6);
      ++report->attempted;
      if (!Same(e->expected.at("self"), rendered)) {
        deferred.push_back({e, std::move(rendered)});
      }
    }
  }
  e2e->cpu_s = static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
  e2e->timed_wall_s = static_cast<double>(timed_ns) / 1e9;
  report->failed += Settle(deferred, report);
}

/// One pass: every base request once, in pool order, each as a
/// seed-chosen spelling.  Every seed sends the same work as a different
/// list.  The order is fixed because a small request's latency depends on
/// the request before it (allocator and cache state after a multi-second
/// rewrite): with seeded order, fig4-cold's median request moved by ~15%
/// between seeds.
std::vector<const PoolEntry*> SeededSpellings(const Pool& pool,
                                              uint64_t seed) {
  std::map<int, std::vector<const PoolEntry*>> bases;
  for (const PoolEntry& e : pool.entries) bases[e.base].push_back(&e);
  SplitMix rng(seed);
  std::vector<const PoolEntry*> list;
  for (const auto& [base, spellings] : bases) {
    list.push_back(spellings[rng.Below(spellings.size())]);
  }
  return list;
}

template <typename F>
double MedianSeconds(int reps, F&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn();
    samples.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return Median(samples);
}

}  // namespace

RunReport RunFig4Cold(const Args& args, const Pool& pool, Provenance* prov) {
  RunReport report;
  SelfTestChecker(&report);

  const std::vector<const PoolEntry*> list =
      SeededSpellings(pool, args.seed ^ kFig4Salt);
  prov->jobs = 1;
  prov->list_hash = ListHash(list);
  prov->tail_percentile = kFig4TailPct;
  prov->distinct_requests = static_cast<int64_t>(list.size());

  // The one-shot path has no set-up call of its own; setup_s times the
  // nearest thing, a cold rewrite of the paper's running example, which
  // also warms the process before the first timed request.
  EndToEnd e2e;
  e2e.tail_percentile = kFig4TailPct;
  e2e.setup_s = MedianSeconds(31, [] { OneShot(kPaperJob); });

  if (!args.trace) {
    RunPasses(list, std::max(1, args.seconds / kFig4PassSeconds),
              [](const PoolEntry& e) { return OneShot(e.job); }, &e2e,
              &report);
    EmitEndToEnd(e2e, &report);
    return report;
  }

  // Traced run: one pass, each request untraced then re-driven.
  SpanStore spans;
  LayerCounts counts;
  int64_t untraced_ns = 0;
  int64_t traced_ns = 0;
  std::vector<Deferred> deferred;
  for (size_t i = 0; i < list.size(); ++i) {
    const PoolEntry& e = *list[i];
    int64_t t0 = NowNs();
    std::string plain = OneShot(e.job);
    untraced_ns += NowNs() - t0;
    t0 = NowNs();
    const std::string traced = TracedRewrite(
        e.job, nullptr, nullptr, static_cast<int64_t>(i), &spans, &counts);
    traced_ns += NowNs() - t0;
    ++report.attempted;
    if (traced != plain) {
      ++report.failed;
      report.Fail("traced output differs from untraced for " + e.id);
    }
    if (!Same(e.expected.at("self"), plain)) {
      deferred.push_back({&e, std::move(plain)});
    }
  }
  report.failed += Settle(deferred, &report);
  LayerValues values;
  FillUnitLayers(spans, counts, /*parse_render=*/true, &values);
  CheckAttribution(spans, "fig4-cold", &values, &report);
  values["trace.overhead_ratio"] =
      static_cast<double>(traced_ns) / static_cast<double>(untraced_ns);
  EmitLayerMetrics(values, &report);
  if (!spans.Write(args.work_dir + "/perfbench-fig4-cold.spans.tsv")) {
    report.Note("could not write the span file");
  }
  return report;
}

RunReport RunChainParallel(const Args& args, const Pool& pool,
                           Provenance* prov) {
  RunReport report;
  SelfTestChecker(&report);

  const std::vector<const PoolEntry*> list =
      SeededSpellings(pool, args.seed ^ kChainSalt);

  const int jobs = CpuCount();  // explicit positive count, never 0
  prov->jobs = jobs;
  prov->list_hash = ListHash(list);
  prov->tail_percentile = kChainTailPct;
  prov->distinct_requests = static_cast<int64_t>(list.size());

  EndToEnd e2e;
  e2e.tail_percentile = kChainTailPct;
  // Set-up is the ThreadPool build; the previous pool's teardown is not.
  // A build takes ~60 us, mostly thread spawns, whose cost varies with
  // the host's load, so setup_s is the median of many builds.
  std::unique_ptr<cqac::ThreadPool> workers;
  std::vector<double> builds;
  for (int i = 0; i < kChainSetupBuilds; ++i) {
    workers.reset();
    const int64_t t0 = NowNs();
    workers = std::make_unique<cqac::ThreadPool>(jobs);
    builds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  e2e.setup_s = Median(builds);

  const auto parallel = [&](const PoolEntry& e,
                            cqac::ParallelRewriteReport* rep,
                            cqac::RewriteStats* stats) {
    const cqac::BatchJob job = cqac::ParseJobBlock(e.job);
    if (!job.error.empty()) return cqac::RenderJobError(0, job.error);
    cqac::RewriteOptions options;
    options.jobs = jobs;
    const cqac::RewriteResult result = cqac::ParallelRewrite(
        *job.query, job.views, options, nullptr, workers.get(), rep);
    if (stats != nullptr) *stats = result.stats;
    return cqac::RenderJobResult(0, job, result, /*echo=*/false);
  };

  if (!args.trace) {
    RunPasses(list, std::max(1, args.seconds / kChainPassSeconds),
              [&](const PoolEntry& e) { return parallel(e, nullptr, nullptr); },
              &e2e, &report);
    EmitEndToEnd(e2e, &report);
    return report;
  }

  // Traced run: per request, the parallel production call, the serial
  // one-shot and the traced serial re-drive, until the time is up.
  SpanStore spans;
  LayerCounts counts;
  int64_t parallel_ns = 0, serial_ns = 0, traced_ns = 0;
  int64_t busy_ns = 0, db_tasks = 0, db_cancelled = 0, stolen = 0;
  int64_t requests = 0;
  std::vector<Deferred> deferred;
  const int64_t start = NowNs();
  do {
    for (const PoolEntry* e : list) {
      cqac::ParallelRewriteReport rep;
      cqac::RewriteStats stats;
      int64_t t0 = NowNs();
      std::string plain = parallel(*e, &rep, &stats);
      const int64_t wall = NowNs() - t0;
      parallel_ns += wall;
      busy_ns += stats.phase1_ns + stats.phase2_ns;
      db_tasks += rep.db_tasks_total;
      db_cancelled += rep.db_tasks_cancelled;
      stolen += rep.tasks_stolen;
      t0 = NowNs();
      const std::string serial = OneShot(e->job);
      serial_ns += NowNs() - t0;
      t0 = NowNs();
      const std::string traced =
          TracedRewrite(e->job, nullptr, nullptr, requests, &spans, &counts);
      traced_ns += NowNs() - t0;
      ++requests;
      ++report.attempted;
      if (traced != plain || serial != plain) {
        ++report.failed;
        report.Fail("traced or serial output differs from parallel for " +
                    e->id);
      }
      if (!Same(e->expected.at("self"), plain)) {
        deferred.push_back({e, std::move(plain)});
      }
    }
  } while (NowNs() - start < static_cast<int64_t>(args.seconds) * 1000000000);
  report.failed += Settle(deferred, &report);

  LayerValues values;
  FillUnitLayers(spans, counts, /*parse_render=*/true, &values);
  CheckAttribution(spans, "chain-parallel", &values, &report);
  values["trace.overhead_ratio"] =
      static_cast<double>(traced_ns) / static_cast<double>(serial_ns);
  values["parallel.busy_ratio"] =
      static_cast<double>(busy_ns) / (static_cast<double>(parallel_ns) * jobs);
  values["parallel.speedup"] =
      static_cast<double>(traced_ns) / static_cast<double>(parallel_ns);
  values["parallel.db_tasks_cancelled_ratio"] =
      db_tasks > 0 ? static_cast<double>(db_cancelled) / db_tasks : 0;
  values["parallel.tasks_stolen_per_req"] =
      static_cast<double>(stolen) / static_cast<double>(requests);
  EmitLayerMetrics(values, &report);
  if (!spans.Write(args.work_dir + "/perfbench-chain-parallel.spans.tsv")) {
    report.Note("could not write the span file");
  }
  return report;
}

}  // namespace perfbench
