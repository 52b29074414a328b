#include "trace.h"

#include <fstream>
#include <optional>
#include <set>
#include <utility>

#include "common.h"
#include "constraints/ac_solver.h"
#include "constraints/orders.h"
#include "runtime/batch_driver.h"
#include "runtime/memo_cache.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case kRequest: return "request";
    case kParse: return "parser";
    case kPrepare: return "prepare";
    case kOrders: return "orders";
    case kPhase1: return "phase1";
    case kPhase2: return "phase2";
    case kFinalize: return "finalize";
    case kRender: return "render";
    case kCatalog: return "catalog";
    case kNumLayers: break;
  }
  return "?";
}

int SpanStore::Begin(Layer layer, int parent, int64_t request) {
  Span s;
  s.layer = layer;
  s.parent = parent;
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void SpanStore::End(int index) { spans_[static_cast<size_t>(index)].end_ns = NowNs(); }

std::array<int64_t, kNumLayers> SpanStore::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::array<int64_t, kNumLayers> by_layer{};
  for (size_t i = 0; i < spans_.size(); ++i) by_layer[spans_[i].layer] += self[i];
  return by_layer;
}

int64_t SpanStore::RootNs() const {
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end_ns - s.start_ns;
  }
  return total;
}

bool SpanStore::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "request\tspan\tparent\tlayer\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << s.request << '\t' << i << '\t' << s.parent << '\t'
        << LayerName(s.layer) << '\t' << s.start_ns << '\t' << s.end_ns
        << '\n';
  }
  return static_cast<bool>(out);
}

namespace {

/// RAII span.
class Scope {
 public:
  Scope(SpanStore* store, Layer layer, int parent, int64_t request)
      : store_(store), index_(store->Begin(layer, parent, request)) {}
  ~Scope() { store_->End(index_); }
  int index() const { return index_; }

 private:
  SpanStore* store_;
  int index_;
};

std::string StripComparisons(const cqac::ConjunctiveQuery& q) {
  return cqac::ConjunctiveQuery(q.head(), q.body()).ToString();
}

// Phases 1-2 and finalization, step for step as RunPreparedRewriteSerial
// runs them for a one-shot request (run-local Phase-1 memo, no Phase-2
// memo, no cancellation, no database budget, no explain).
cqac::RewriteResult RunUnits(const cqac::RewriteWork& work, int root,
                             int64_t request, SpanStore* spans,
                             LayerCounts* counts) {
  using cqac::DatabaseOutcome;
  cqac::RewriteResult result;
  result.stats.v0_variants = static_cast<int64_t>(work.v0_variants.size());
  result.stats.mcds_formed = static_cast<int64_t>(work.mcds.size());
  result.tier = static_cast<int>(work.tier.tier);
  result.tier_reason = work.tier.reason;

  std::vector<cqac::ConjunctiveQuery> pre_rewritings;
  std::set<std::string> pre_rewriting_keys;
  bool failed = false;
  std::optional<cqac::Phase1Memo> memo;
  if (work.options.phase1_dedup) memo.emplace();
  {
    Scope orders(spans, kOrders, root, request);
    cqac::ForEachTotalOrder(
        work.query.AllVariables(), work.constants,
        [&](const cqac::TotalOrder& order) {
          ++result.stats.canonical_databases;
          ++counts->orders_visited;
          const int64_t t0 = NowNs();
          DatabaseOutcome out;
          {
            Scope p1(spans, kPhase1, orders.index(), request);
            out = cqac::ProcessCanonicalDatabase(work, order,
                                                 memo ? &*memo : nullptr);
          }
          const int64_t dt = NowNs() - t0;
          ++counts->phase1_calls;
          if (out.stats.phase1_memo_hits > 0) {
            ++counts->phase1_memo_hits;
            counts->phase1_hit_ns += dt;
          } else {
            counts->phase1_miss_ns += dt;
          }
          result.stats.Merge(out.stats);
          if (out.status == DatabaseOutcome::Status::kFailed) {
            ++counts->phase1_failed;
            failed = true;
            result.failure_reason = std::move(out.failure_reason);
            return false;
          }
          if (out.status == DatabaseOutcome::Status::kSkipped) {
            ++counts->phase1_skipped;
            return true;
          }
          ++counts->phase1_kept;
          if (pre_rewriting_keys.insert(out.pre_rewriting->ToString())
                  .second) {
            pre_rewritings.push_back(*std::move(out.pre_rewriting));
          }
          return true;
        });
  }
  if (failed) {
    result.outcome = cqac::RewriteOutcome::kNoRewriting;
    return result;
  }
  if (pre_rewritings.empty()) {
    result.outcome = cqac::RewriteOutcome::kNoRewriting;
    result.failure_reason = "query computes its head on no canonical database";
    return result;
  }

  std::set<std::string> bodies;
  for (const cqac::ConjunctiveQuery& pre : pre_rewritings) {
    ++result.stats.phase2_checks;
    ++counts->phase2_checks;
    cqac::Phase2Outcome check;
    {
      Scope p2(spans, kPhase2, root, request);
      check = cqac::CheckExpansionContained(work, pre, nullptr);
    }
    counts->phase2_orders += check.orders_enumerated;
    bodies.insert(StripComparisons(pre));
    if (!check.contained) {
      result.outcome = cqac::RewriteOutcome::kNoRewriting;
      result.failure_reason =
          "expansion not contained in the query: " + pre.ToString();
      counts->phase2_distinct_bodies += static_cast<int64_t>(bodies.size());
      return result;
    }
  }
  counts->phase2_distinct_bodies += static_cast<int64_t>(bodies.size());
  {
    Scope fin(spans, kFinalize, root, request);
    cqac::FinalizeFoundRewriting(work, std::move(pre_rewritings), &result);
  }
  return result;
}

}  // namespace

std::string TracedRewrite(const std::string& job_text,
                          const cqac::ViewSet* views,
                          const Precompiled* precompiled, int64_t request,
                          SpanStore* spans, LayerCounts* counts) {
  Scope root(spans, kRequest, -1, request);
  ++counts->requests;
  cqac::BatchJob job;
  {
    Scope parse(spans, kParse, root.index(), request);
    job = cqac::ParseJobBlock(job_text);
  }
  std::string rendered;
  if (!job.error.empty()) {
    Scope render(spans, kRender, root.index(), request);
    rendered = cqac::RenderJobError(0, job.error);
    counts->render_bytes += static_cast<int64_t>(rendered.size());
    return rendered;
  }
  const cqac::ViewSet& run_views = views != nullptr ? *views : job.views;
  cqac::RewriteOptions options;
  options.jobs = 1;
  cqac::RewriteResult result;
  if (!cqac::AcSolver::IsSatisfiable(job.query->comparisons())) {
    // The drivers' shortcut: the empty union rewrites a contradictory query.
    result.outcome = cqac::RewriteOutcome::kRewritingFound;
  } else {
    std::optional<cqac::RewriteWork> work;
    {
      Scope prep(spans, kPrepare, root.index(), request);
      work.emplace(precompiled != nullptr
                       ? cqac::PrepareRewriteWork(*job.query, run_views,
                                                  options, precompiled->v0,
                                                  precompiled->constants)
                       : cqac::PrepareRewriteWork(*job.query, run_views,
                                                  options));
    }
    counts->mcds += static_cast<int64_t>(work->mcds.size());
    result = RunUnits(*work, root.index(), request, spans, counts);
  }
  counts->disjuncts += static_cast<int64_t>(result.rewriting.size());
  {
    Scope render(spans, kRender, root.index(), request);
    rendered = cqac::RenderJobResult(0, job, result, /*echo=*/false);
  }
  counts->render_bytes += static_cast<int64_t>(rendered.size());
  return rendered;
}

}  // namespace perfbench
