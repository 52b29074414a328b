// Metric emission shared by the workloads, and the answer-checker
// self-test.

#include <cstdio>

#include "rewriting/equiv_rewriter.h"
#include "runtime/batch_driver.h"
#include "workloads.h"

namespace perfbench {

const char kPaperJob[] =
    "view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z\n"
    "query q(A) :- r(A), s(A,A), A <= 8\n";

namespace {

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order the traced run prints them.
constexpr LayerMetricDef kLayerMetrics[] = {
    {"parser.self_us_per_req", "us"},
    {"render.self_us_per_req", "us"},
    {"render.bytes_per_req", "bytes"},
    {"prepare.self_us_per_req", "us"},
    {"prepare.mcds_per_req", "count"},
    {"orders.self_ms_per_req", "ms"},
    {"orders.visited_per_req", "count"},
    {"phase1.self_ms_per_req", "ms"},
    {"phase1.kept_ratio", "ratio"},
    {"phase1.skipped_ratio", "ratio"},
    {"phase1.memo_hit_ratio", "ratio"},
    {"phase1.hit_us", "us"},
    {"phase1.miss_us", "us"},
    {"phase2.self_ms_per_req", "ms"},
    {"phase2.checks_per_req", "count"},
    {"phase2.orders_per_check", "count"},
    {"phase2.distinct_body_ratio", "ratio"},
    {"finalize.self_us_per_req", "us"},
    {"finalize.disjuncts_per_req", "count"},
    {"parallel.busy_ratio", "ratio"},
    {"parallel.speedup", "ratio"},
    {"parallel.db_tasks_cancelled_ratio", "ratio"},
    {"parallel.tasks_stolen_per_req", "count"},
    {"catalog.semantic_hit_ratio", "ratio"},
    {"catalog.plan_hit_ratio", "ratio"},
    {"catalog.containment_hit_ratio", "ratio"},
    {"catalog.rewrite_us_hit", "us"},
    {"catalog.rewrite_ms_miss", "ms"},
    {"catalog.build_ms", "ms"},
    {"server.overhead_us", "us"},
    {"server.swap_ms", "ms"},
    {"server.rejected", "count"},
    {"server.deadline_exceeded", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.unattributed_ratio", "ratio"},
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void EmitLayerMetrics(const LayerValues& values, RunReport* report) {
  for (const LayerMetricDef& def : kLayerMetrics) {
    auto it = values.find(def.name);
    report->Add(def.name, it == values.end() ? 0 : it->second, def.unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerMetricDef& def : kLayerMetrics) known |= name == def.name;
    if (!known) report->Fail("unlisted layer metric " + name);
  }
}

void FillUnitLayers(const SpanStore& spans, const LayerCounts& c,
                    bool parse_render, LayerValues* v) {
  const std::array<int64_t, kNumLayers> self = spans.SelfNs();
  const double n = static_cast<double>(c.requests);
  const auto per_req = [&](Layer l, double scale) {
    return Ratio(static_cast<double>(self[l]) / scale, n);
  };
  if (parse_render) {
    (*v)["parser.self_us_per_req"] = per_req(kParse, 1e3);
    (*v)["render.self_us_per_req"] = per_req(kRender, 1e3);
    (*v)["render.bytes_per_req"] = Ratio(c.render_bytes, n);
  }
  (*v)["prepare.self_us_per_req"] = per_req(kPrepare, 1e3);
  (*v)["prepare.mcds_per_req"] = Ratio(c.mcds, n);
  (*v)["orders.self_ms_per_req"] = per_req(kOrders, 1e6);
  (*v)["orders.visited_per_req"] = Ratio(c.orders_visited, n);
  (*v)["phase1.self_ms_per_req"] = per_req(kPhase1, 1e6);
  (*v)["phase1.kept_ratio"] = Ratio(c.phase1_kept, c.phase1_calls);
  (*v)["phase1.skipped_ratio"] = Ratio(c.phase1_skipped, c.phase1_calls);
  (*v)["phase1.memo_hit_ratio"] = Ratio(c.phase1_memo_hits, c.phase1_calls);
  (*v)["phase1.hit_us"] =
      Ratio(c.phase1_hit_ns / 1e3, static_cast<double>(c.phase1_memo_hits));
  (*v)["phase1.miss_us"] =
      Ratio(c.phase1_miss_ns / 1e3,
            static_cast<double>(c.phase1_calls - c.phase1_memo_hits));
  (*v)["phase2.self_ms_per_req"] = per_req(kPhase2, 1e6);
  (*v)["phase2.checks_per_req"] = Ratio(c.phase2_checks, n);
  (*v)["phase2.orders_per_check"] = Ratio(c.phase2_orders, c.phase2_checks);
  (*v)["phase2.distinct_body_ratio"] =
      Ratio(c.phase2_distinct_bodies, c.phase2_checks);
  (*v)["finalize.self_us_per_req"] = per_req(kFinalize, 1e3);
  (*v)["finalize.disjuncts_per_req"] = Ratio(c.disjuncts, n);
}

void CheckAttribution(const SpanStore& spans, const std::string& what,
                      LayerValues* values, RunReport* report) {
  const double root = static_cast<double>(spans.RootNs());
  const double unattributed =
      Ratio(static_cast<double>(spans.SelfNs()[kRequest]), root);
  (*values)["trace.unattributed_ratio"] = unattributed;
  if (unattributed > kMaxUnattributed) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: layer self-times cover only %.1f%% of traced wall "
                  "(tolerance %.0f%%)",
                  what.c_str(), 100 * (1 - unattributed),
                  100 * kMaxUnattributed);
    report->Fail(buf);
  }
}

void EmitEndToEnd(const EndToEnd& e, RunReport* report) {
  const double n = static_cast<double>(e.latencies_ms.size());
  report->Add("req_p50_ms", Median(e.latencies_ms), "ms");
  report->Add("req_tail_ms", Percentile(e.latencies_ms, e.tail_percentile),
              "ms");
  report->Add("throughput_rps",
              e.throughput_rps > 0 ? e.throughput_rps : Ratio(n, e.timed_wall_s),
              "1/s");
  report->Add("cpu_ms_per_req", Ratio(e.cpu_s * 1e3, n), "ms");
  report->Add("setup_s", e.setup_s, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void SelfTestChecker(RunReport* report) {
  const cqac::BatchJob job = cqac::ParseJobBlock(kPaperJob);
  cqac::RewriteOptions options;
  options.jobs = 1;
  const cqac::RewriteResult result =
      cqac::EquivalentRewriter(*job.query, job.views, options).Run();
  const std::string rendered = cqac::RenderJobResult(0, job, result, false);

  const Expected right = MakeExpected(rendered, "n/a");
  // A wrong expectation: the outcome flipped.
  const Expected wrong =
      MakeExpected("job 0: no equivalent rewriting (planted)\n", "n/a");
  // A wrong answer: the last disjunct dropped, so the union no longer
  // covers the query; only the equivalence fallback can tell.
  std::string dropped = rendered;
  dropped.erase(dropped.rfind("  q("));
  // A "none" answer that gives another reason is still right.
  const std::string other_reason =
      "job 0: no equivalent rewriting (another reason)\n";
  const bool ok =
      result.rewriting.size() == 2 &&
      CheckAnswer(right, rendered, kPaperJob, nullptr) == Verdict::kSame &&
      CheckAnswer(wrong, rendered, kPaperJob, nullptr) == Verdict::kWrong &&
      CheckAnswer(right, dropped, kPaperJob, nullptr) == Verdict::kWrong &&
      CheckAnswer(right, other_reason, kPaperJob, nullptr) ==
          Verdict::kWrong &&
      CheckAnswer(wrong, other_reason, kPaperJob, nullptr) ==
          Verdict::kOtherReason;
  if (!ok) report->Fail("answer-checker self-test did not flag a planted error");
}

}  // namespace perfbench
