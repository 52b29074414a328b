#include "rewriting/equiv_rewriter.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <set>

#include "constraints/ac_solver.h"
#include "constraints/orders.h"
#include "containment/cqac_containment.h"
#include "engine/canonical.h"
#include "engine/coded_eval.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewriting/coalesce.h"
#include "rewriting/expansion.h"
#include "rewriting/exportable.h"
#include "rewriting/minicon.h"
#include "rewriting/view_tuples.h"
#include "runtime/memo_cache.h"
#include "runtime/parallel_rewriter.h"

namespace cqac {

namespace {

/// Steady-clock nanoseconds for the RewriteStats wall-time fields.  Never
/// fed back into the algorithm: timing can shift scheduling but not
/// results.
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The expansion of `disjunct`, simplified when requested.  Unsatisfiable
/// expansions stay as-is (they compute nothing and pass containment
/// trivially).
ConjunctiveQuery ExpandForCheck(const ConjunctiveQuery& disjunct,
                                const ViewSet& views, bool simplify) {
  ConjunctiveQuery expansion = Expand(disjunct, views);
  if (simplify) {
    std::optional<ConjunctiveQuery> simplified = SimplifyQuery(expansion);
    if (simplified.has_value()) return *std::move(simplified);
  }
  return expansion;
}

/// True when `tuple`'s MCD-fresh variables (prefix "_f"; unique to one
/// tuple by construction) can be renamed to make it equal to `other`.
/// Such a tuple adds nothing to the Pre-Rewriting: the fold is a
/// containment mapping in one direction and the identity works in the
/// other, so dropping it preserves equivalence — while genuinely
/// redundant-but-distinct subgoals (the paper's Example 3) are kept.
bool FoldsOntoTuple(const Atom& tuple, const Atom& other) {
  if (&tuple == &other) return false;
  if (tuple.predicate() != other.predicate() ||
      tuple.arity() != other.arity() || tuple == other) {
    return false;
  }
  Substitution binding;
  for (int i = 0; i < tuple.arity(); ++i) {
    const Term& t = tuple.args()[i];
    const Term& o = other.args()[i];
    if (t.IsVariable() && t.name().rfind("_f", 0) == 0) {
      if (binding.IsBound(t.name())) {
        if (binding.Lookup(t.name()) != o) return false;
      } else {
        binding.Bind(t.name(), o);
      }
    } else if (t != o) {
      return false;
    }
  }
  return true;
}

/// The structural key of the current canonical database for Phase-1
/// deduplication: every view's ground tuples rendered unfrozen (block
/// representatives), plus the variable -> block-representative map.  The
/// kept MCD set under every pruning mode, the combination verdict, and the
/// Pre-Rewriting body are pure functions of this key — only the projected
/// order comparisons are not, and those are rebuilt per database.
std::string BuildPhase1Key(const CanonicalFreezer& freezer,
                           const ViewTupleEvaluator& ev) {
  std::string key;
  key.reserve(256);
  for (int v = 0; v < ev.view_count(); ++v) {
    key += '#';
    key += std::to_string(v);
    for (const Tuple& ground : ev.ground(v).tuples()) {
      key += '(';
      for (const Rational& value : ground) {
        key += freezer.UnfreezeValue(value).ToString();
        key += ',';
      }
      key += ')';
    }
  }
  key += '|';
  const std::vector<std::string>& names = freezer.slot_names();
  const std::vector<uint32_t>& blocks = freezer.var_blocks();
  const std::vector<Term>& reps = freezer.block_reps();
  for (size_t s = 0; s < names.size(); ++s) {
    key += names[s];
    key += '=';
    key += reps[blocks[s]].ToString();
    key += ';';
  }
  return key;
}

}  // namespace

void RewriteStats::Merge(const RewriteStats& other) {
  canonical_databases += other.canonical_databases;
  kept_canonical_databases += other.kept_canonical_databases;
  v0_variants += other.v0_variants;
  mcds_formed += other.mcds_formed;
  mcds_kept_total += other.mcds_kept_total;
  view_tuples_total += other.view_tuples_total;
  phase2_checks += other.phase2_checks;
  phase2_orders += other.phase2_orders;
  phase1_memo_hits += other.phase1_memo_hits;
  phase1_memo_misses += other.phase1_memo_misses;
  tier1_grid_hits += other.tier1_grid_hits;
  tier1_grid_misses += other.tier1_grid_misses;
  enumeration_ns += other.enumeration_ns;
  freeze_ns += other.freeze_ns;
  phase1_ns += other.phase1_ns;
  phase2_ns += other.phase2_ns;
}

void RecordRewriteMetrics(const RewriteStats& stats) {
  if (!obs::MetricsActive()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.counter("rewrite.runs").Add(1);
  registry.counter("rewrite.canonical_databases")
      .Add(stats.canonical_databases);
  registry.counter("rewrite.kept_canonical_databases")
      .Add(stats.kept_canonical_databases);
  registry.counter("rewrite.phase2_checks").Add(stats.phase2_checks);
  registry.counter("rewrite.phase2_orders").Add(stats.phase2_orders);
  registry.counter("phase1_memo.hits").Add(stats.phase1_memo_hits);
  registry.counter("phase1_memo.misses").Add(stats.phase1_memo_misses);
  registry.counter("tier1_grid.hits").Add(stats.tier1_grid_hits);
  registry.counter("tier1_grid.misses").Add(stats.tier1_grid_misses);
}

RewriteWork PrepareRewriteWork(const ConjunctiveQuery& query,
                               const ViewSet& views,
                               const RewriteOptions& options) {
  return PrepareRewriteWork(query, views, options, nullptr, nullptr);
}

RewriteWork PrepareRewriteWork(
    const ConjunctiveQuery& query, const ViewSet& views,
    const RewriteOptions& options,
    const std::vector<ConjunctiveQuery>* precompiled_v0,
    const std::vector<Rational>* view_constants) {
  CQAC_TRACE_SPAN("prepare.work");
  RewriteWork work(query, views, options);

  // Q0 and the exported variants V0 (Section 3.2 / Examples 5 and 6).
  work.q0 = query.WithoutComparisons();
  if (precompiled_v0 != nullptr) {
    work.v0_variants = *precompiled_v0;
  } else {
    for (const ConjunctiveQuery& view : views.views()) {
      for (ConjunctiveQuery& variant : BuildV0Variants(view)) {
        work.v0_variants.push_back(std::move(variant));
      }
    }
  }

  // MiniCon phase 1 over Q0/V0 (the buckets; formed once).
  {
    CQAC_TRACE_SPAN("prepare.mcd_formation");
    work.mcds = FormMcds(work.q0, work.v0_variants);
  }

  // All constants of the query and the views participate in the orders.
  work.constants = query.Constants();
  {
    std::vector<Rational> derived;
    const std::vector<Rational>& vc =
        view_constants != nullptr ? *view_constants
                                  : (derived = views.Constants());
    for (const Rational& c : vc) {
      if (std::find(work.constants.begin(), work.constants.end(), c) ==
          work.constants.end()) {
        work.constants.push_back(c);
      }
    }
  }

  // Route the run to an execution tier before Phase 1.  The classifier is
  // purely structural (no data); forcing (options.force_tier) applies
  // only when the forced tier's eligibility holds.
  {
    CQAC_TRACE_SPAN("structure.tier");
    work.tier = ResolveTier(ClassifyStructure(query, views), options.force_tier);
    if (work.tier.tier != ExecutionTier::kGeneral) {
      work.grid_cache =
          std::make_shared<GridVerdictCache>(query.AllVariables());
    }
    if (obs::MetricsActive()) {
      obs::MetricsRegistry::Global()
          .counter(std::string("rewrite.tier.") + TierName(work.tier.tier))
          .Add(1);
    }
  }

  static std::atomic<uint64_t> next_work_id{1};
  work.work_id = next_work_id.fetch_add(1, std::memory_order_relaxed);

  work.num_subgoals = static_cast<int>(query.body().size());

  // Precompute the atom relations the per-database assembly needs.
  const size_t m = work.mcds.size();
  work.mcd_dup_of.resize(m);
  work.mcd_rank.resize(m);
  work.mcd_folds.assign(m * m, 0);
  std::vector<int> distinct;
  for (size_t i = 0; i < m; ++i) {
    work.mcd_dup_of[i] = static_cast<int>(i);
    for (size_t j = 0; j < i; ++j) {
      if (work.mcds[j].view_tuple == work.mcds[i].view_tuple) {
        work.mcd_dup_of[i] = work.mcd_dup_of[j];
        break;
      }
    }
    if (work.mcd_dup_of[i] == static_cast<int>(i)) {
      distinct.push_back(static_cast<int>(i));
    }
    for (size_t j = 0; j < m; ++j) {
      work.mcd_folds[i * m + j] =
          FoldsOntoTuple(work.mcds[i].view_tuple, work.mcds[j].view_tuple);
    }
  }
  std::sort(distinct.begin(), distinct.end(), [&work](int a, int b) {
    return work.mcds[a].view_tuple < work.mcds[b].view_tuple;
  });
  for (size_t r = 0; r < distinct.size(); ++r) {
    work.mcd_rank[distinct[r]] = static_cast<int>(r);
  }
  for (size_t i = 0; i < m; ++i) {
    work.mcd_rank[i] = work.mcd_rank[work.mcd_dup_of[i]];
  }
  return work;
}

/// Phase-1 steps 2-3.7 proper; the public ProcessCanonicalDatabase wraps
/// it with the per-database span and wall-time accounting (kept outside so
/// the duration lands in the returned stats after the body finishes).
static DatabaseOutcome ProcessCanonicalDatabaseImpl(const RewriteWork& work,
                                                    const TotalOrder& order,
                                                    Phase1Memo* memo) {
  const RewriteOptions& options = work.options;
  DatabaseOutcome out;
  if (options.explain) out.trace.order = order.ToString();

  // Keep only databases on which the query computes its frozen head
  // (general evaluation: the identity freezing need not be the witnessing
  // embedding).  The keep-test runs on a delta freeze with the shared
  // compiled plan — consecutive orders differ in few blocks, so the
  // freezer patches only the moved rows, and the view evaluator re-derives
  // only views whose relations changed.  The caches are per-thread
  // (ProcessCanonicalDatabase runs on worker threads) and are recompiled
  // when a different run's work arrives.
  struct Phase1Cache {
    uint64_t work_id = 0;
    std::optional<CanonicalFreezer> freezer;
    std::optional<ViewTupleEvaluator> evaluator;
    std::optional<FrozenTupleMatcher> matcher;
    // Coded keep-test over work.query_plan; only valid while work_id
    // matches (the plan pointer dies with the RewriteWork).
    std::optional<CodedEvaluator> coded;
    std::string grid_key;
  };
  static thread_local Phase1Cache cache;
  if (cache.work_id != work.work_id) {
    cache.freezer.emplace(work.query);
    cache.evaluator.emplace(work.views);
    std::vector<Atom> mcd_tuples;
    mcd_tuples.reserve(work.mcds.size());
    for (const Mcd& mcd : work.mcds) mcd_tuples.push_back(mcd.view_tuple);
    cache.matcher.emplace(std::move(mcd_tuples), *cache.freezer);
    // Prime with the run's merged constants (the same set the order
    // enumerator uses): no order can then surface an unseen value, so
    // steady-state keep-tests allocate nothing.
    cache.freezer->PrimeDictionary(work.constants,
                                   work.query.AllVariables().size());
    cache.coded.emplace(&work.query_plan);
    cache.coded->BindTo(&*cache.freezer);
    cache.work_id = work.work_id;
  }
  bool computes_head;
  bool grid_miss = false;
  {
    CQAC_TRACE_SPAN("phase1.freeze");
    const int64_t freeze_t0 = NowNs();
    // T1 grid cache: the keep verdict is a pure function of the
    // order's grid class (soundness argument at GridVerdictCache), so a
    // cached skip needs neither the freeze nor the evaluation, and a
    // cached keep still freezes (downstream steps read the instance) but
    // skips the evaluation.  Explain runs bypass the cache, like the
    // Phase-1 memo, so every database's trace stays complete.
    std::optional<bool> cached;
    const bool use_grid = work.grid_cache != nullptr && !options.explain;
    if (use_grid) {
      work.grid_cache->BuildKey(order, &cache.grid_key);
      cached = work.grid_cache->Get(cache.grid_key);
      if (cached.has_value()) {
        ++out.stats.tier1_grid_hits;
      } else {
        grid_miss = true;
        ++out.stats.tier1_grid_misses;
      }
      if (cached.has_value() && !*cached) {
        out.stats.freeze_ns += NowNs() - freeze_t0;
        out.status = DatabaseOutcome::Status::kSkipped;
        return out;
      }
    }
    cache.freezer->Freeze(order);
    if (cached.has_value()) {
      computes_head = true;  // A cached keep verdict; skip the evaluation.
    } else {
      computes_head = cache.coded->Run(*cache.freezer,
                                       /*match_frozen_head=*/true, nullptr);
    }
    if (grid_miss) work.grid_cache->Put(cache.grid_key, computes_head);
    out.stats.freeze_ns += NowNs() - freeze_t0;
  }
  if (!computes_head) {
    out.status = DatabaseOutcome::Status::kSkipped;
    if (options.explain) out.trace.status = "skipped";
    return out;
  }
  out.trace.computes_head = true;
  ++out.stats.kept_canonical_databases;

  // Step 3.1-3.2: view tuples T_i(V), from the epoch-gated evaluator.
  {
    CQAC_TRACE_SPAN("phase1.view_tuples");
    cache.evaluator->Refresh(*cache.freezer);
  }
  out.stats.view_tuples_total += cache.evaluator->total();
  if (options.explain) out.trace.view_tuples = cache.evaluator->total();
  if (cache.evaluator->total() == 0) {
    out.status = DatabaseOutcome::Status::kFailed;
    out.failure_reason =
        "no view produces any tuple on canonical database [" +
        order.ToString() + "]";
    if (options.explain) out.trace.status = "no-view-tuples";
    return out;
  }

  // Databases with equal structural keys share one Phase-1 conclusion:
  // on a (verified) fingerprint hit the kept count, combination verdict,
  // and Pre-Rewriting body are replayed, and only the order-dependent
  // projected comparisons are rebuilt.  Explain runs bypass the memo so
  // every database's trace stays complete.
  if (options.explain) memo = nullptr;
  std::string memo_key;
  Phase1Fingerprint memo_fp;
  if (memo != nullptr) {
    Phase1Entry entry;
    bool hit;
    {
      CQAC_TRACE_SPAN("phase1.memo_probe");
      memo_key = BuildPhase1Key(*cache.freezer, *cache.evaluator);
      memo_fp = FingerprintPhase1Key(memo_key);
      hit = memo->Get(memo_fp, memo_key, &entry);
    }
    if (hit) {
      ++out.stats.phase1_memo_hits;
      out.stats.mcds_kept_total += entry.mcds_kept;
      if (!entry.combination_exists) {
        out.status = DatabaseOutcome::Status::kFailed;
        out.failure_reason =
            "no MiniCon combination covers the query on canonical "
            "database [" +
            order.ToString() + "]";
        return out;
      }
      std::vector<Atom> body;
      body.reserve(entry.body_mcds.size());
      for (const int i : entry.body_mcds) {
        body.push_back(work.mcds[i].view_tuple);
      }
      out.pre_rewriting =
          ConjunctiveQuery(work.query.head(), std::move(body),
                           order.ProjectedComparisons(entry.body_vars));
      out.status = DatabaseOutcome::Status::kKept;
      return out;
    }
    ++out.stats.phase1_memo_misses;
  }

  // Step 3.4: prune bucket entries against the database's tuples.  Kept
  // MCDs are tracked by index into work.mcds; nothing is copied until the
  // surviving tuples enter the Pre-Rewriting body.
  const size_t num_mcds = work.mcds.size();
  std::vector<int> kept;
  {
    CQAC_TRACE_SPAN("phase1.bucket_prune");
    switch (options.pruning) {
      case RewriteOptions::Pruning::kNone:
        kept.resize(num_mcds);
        for (size_t m = 0; m < num_mcds; ++m) kept[m] = static_cast<int>(m);
        break;
      case RewriteOptions::Pruning::kRelaxedForm: {
        // Definition 2 works on unfrozen tuples; build them for this
        // database (the frozen-match default never needs them).
        std::map<std::string, std::vector<Atom>> unfrozen;
        for (int v = 0; v < cache.evaluator->view_count(); ++v) {
          std::vector<Atom>& atoms = unfrozen[cache.evaluator->view_name(v)];
          for (const Tuple& ground : cache.evaluator->ground(v).tuples()) {
            std::vector<Term> args;
            args.reserve(ground.size());
            for (const Rational& value : ground) {
              args.push_back(cache.freezer->UnfreezeValue(value));
            }
            atoms.push_back(Atom(cache.evaluator->view_name(v),
                                 std::move(args)));
          }
        }
        for (size_t m = 0; m < num_mcds; ++m) {
          const auto it = unfrozen.find(work.mcds[m].view_tuple.predicate());
          if (it == unfrozen.end()) continue;
          for (const Atom& t : it->second) {
            if (IsMoreRelaxedForm(work.mcds[m].view_tuple, t)) {
              kept.push_back(static_cast<int>(m));
              break;
            }
          }
        }
        break;
      }
      case RewriteOptions::Pruning::kFrozenMatch: {
        cache.matcher->BindDatabase(*cache.evaluator);
        for (size_t m = 0; m < num_mcds; ++m) {
          if (cache.matcher->Matches(m)) kept.push_back(static_cast<int>(m));
        }
        break;
      }
    }
  }
  out.stats.mcds_kept_total += static_cast<int64_t>(kept.size());
  if (options.explain) {
    out.trace.kept_mcds = static_cast<int64_t>(kept.size());
  }

  // Step 3.5: MiniCon phase 2 as an existence check.
  if (!McdCombinationExists(work.mcds, kept, work.num_subgoals)) {
    if (memo != nullptr) {
      memo->Put(memo_fp,
                Phase1Entry{std::move(memo_key), false,
                            static_cast<int64_t>(kept.size()),
                            {},
                            {}});
    }
    out.status = DatabaseOutcome::Status::kFailed;
    out.failure_reason =
        "no MiniCon combination covers the query on canonical "
        "database [" +
        order.ToString() + "]";
    if (options.explain) out.trace.status = "no-mcr";
    return out;
  }
  if (options.explain) out.trace.combination_exists = true;

  // Steps 3.6-3.7 and Phase 2 task (a): the Pre-Rewriting holds all
  // surviving view tuples plus the database's order constraints projected
  // onto the variables it uses.  Dedup, fold-drop, and sort run on the
  // precomputed per-run relations (work.mcd_dup_of / mcd_folds /
  // mcd_rank); the result is identical to deduplicating with std::find,
  // dropping with FoldsOntoTuple, and sorting atoms directly.
  std::vector<int> body_idx;
  {
    std::vector<char> seen_rep(num_mcds, 0);
    for (const int k : kept) {
      const int rep = work.mcd_dup_of[k];
      if (!seen_rep[rep]) {
        seen_rep[rep] = 1;
        body_idx.push_back(rep);
      }
    }
  }
  // Drop tuples whose fresh variables fold onto another kept tuple.
  {
    std::vector<char> dropped(body_idx.size(), 0);
    for (size_t i = 0; i < body_idx.size(); ++i) {
      for (size_t j = 0; j < body_idx.size(); ++j) {
        if (i == j || dropped[j]) continue;
        if (work.mcd_folds[body_idx[i] * num_mcds + body_idx[j]]) {
          dropped[i] = 1;
          break;
        }
      }
    }
    std::vector<int> reduced;
    for (size_t i = 0; i < body_idx.size(); ++i) {
      if (!dropped[i]) reduced.push_back(body_idx[i]);
    }
    body_idx = std::move(reduced);
  }
  std::sort(body_idx.begin(), body_idx.end(), [&work](int a, int b) {
    return work.mcd_rank[a] < work.mcd_rank[b];
  });
  std::vector<Atom> body;
  body.reserve(body_idx.size());
  for (const int i : body_idx) body.push_back(work.mcds[i].view_tuple);
  std::vector<std::string> body_vars;
  {
    std::set<std::string> seen;
    for (const Atom& a : body) {
      for (const Term& t : a.args()) {
        if (t.IsVariable() && seen.insert(t.name()).second) {
          body_vars.push_back(t.name());
        }
      }
    }
  }
  if (memo != nullptr) {
    memo->Put(memo_fp,
              Phase1Entry{std::move(memo_key), true,
                          static_cast<int64_t>(kept.size()), body_idx,
                          body_vars});
  }
  ConjunctiveQuery pre(work.query.head(), std::move(body),
                       order.ProjectedComparisons(body_vars));
  if (options.explain) {
    out.trace.pre_rewriting = pre.ToString();
    out.trace.status = "ok";
  }
  out.pre_rewriting = std::move(pre);
  out.status = DatabaseOutcome::Status::kKept;
  return out;
}

DatabaseOutcome ProcessCanonicalDatabase(const RewriteWork& work,
                                         const TotalOrder& order,
                                         Phase1Memo* memo) {
  CQAC_TRACE_SPAN("phase1.database");
  const int64_t t0 = NowNs();
  DatabaseOutcome out = ProcessCanonicalDatabaseImpl(work, order, memo);
  const int64_t dur = NowNs() - t0;
  out.stats.phase1_ns += dur;
  if (obs::MetricsActive()) {
    // The registry never invalidates references, so the lookup happens
    // once per process, not once per canonical database.
    static obs::Histogram& wall =
        obs::MetricsRegistry::Global().histogram("phase1.db_wall_ns");
    wall.Observe(dur);
  }
  return out;
}

/// The order-pinned part E_S of `collapsed`, the expansion of `pre` with
/// its forced equalities `forced` applied: the atoms all of whose
/// variables are images of variables pinned by `pre`'s projected total
/// order (its comparisons and head), and the comparisons over those
/// atoms' variables.  nullopt when the part does not cover the head.  The
/// identity maps E_S into `collapsed`, so a "contained" verdict on E_S
/// carries over to the expansion (docs/ALGORITHM.md §3).
static std::optional<ConjunctiveQuery> OrderPinnedPart(
    const ConjunctiveQuery& collapsed, const ConjunctiveQuery& pre,
    const Substitution& forced) {
  std::set<std::string> pinned;
  const auto pin = [&](const Term& t) {
    if (!t.IsVariable()) return;
    const Term image = forced.Apply(t);
    if (image.IsVariable()) pinned.insert(image.name());
  };
  for (const Comparison& c : pre.comparisons()) {
    pin(c.lhs());
    pin(c.rhs());
  }
  for (const Term& t : pre.head().args()) pin(t);

  std::vector<Atom> part;
  std::set<std::string> part_vars;
  for (const Atom& atom : collapsed.body()) {
    const bool all_pinned = std::all_of(
        atom.args().begin(), atom.args().end(), [&pinned](const Term& t) {
          return t.IsConstant() || pinned.count(t.name()) > 0;
        });
    if (!all_pinned) continue;
    part.push_back(atom);
    for (const Term& t : atom.args()) {
      if (t.IsVariable()) part_vars.insert(t.name());
    }
  }
  const auto in_part = [&part_vars](const Term& t) {
    return t.IsConstant() || part_vars.count(t.name()) > 0;
  };
  const std::vector<Term>& head = collapsed.head().args();
  if (part.empty() || !std::all_of(head.begin(), head.end(), in_part)) {
    return std::nullopt;
  }
  std::vector<Comparison> comparisons;
  for (const Comparison& c : collapsed.comparisons()) {
    if (in_part(c.lhs()) && in_part(c.rhs())) comparisons.push_back(c);
  }
  return ConjunctiveQuery(collapsed.head(), std::move(part),
                          std::move(comparisons))
      .Deduplicated();
}

/// Phase 2 for one Pre-Rewriting: a cheap sound test on the order-pinned
/// part of the expansion first, the full simplify + memo + canonical test
/// only when that test does not settle the check.
static Phase2Outcome CheckExpansionContainedImpl(const RewriteWork& work,
                                                 const ConjunctiveQuery& pre,
                                                 MemoCache* memo) {
  ConjunctiveQuery expansion;
  {
    CQAC_TRACE_SPAN("phase2.expand");
    expansion = Expand(pre, work.views);
  }
  Phase2Outcome out;
  {
    CQAC_TRACE_SPAN("phase2.pinned_check");
    const std::optional<Substitution> forced =
        AcSolver::ForcedEqualities(expansion.comparisons());
    if (!forced.has_value()) {
      // Unsatisfiable: the expansion computes nothing.
      out.contained = true;
      return out;
    }
    const std::optional<ConjunctiveQuery> part = OrderPinnedPart(
        expansion.ApplySubstitution(*forced), pre, *forced);
    if (part.has_value()) {
      ContainmentStats cstats;
      out.contained = CqacContainedCanonical(*part, work.query, &cstats);
      out.orders_enumerated = cstats.orders_enumerated;
      if (out.contained) return out;
    }
  }
  out.full_check = true;
  CQAC_TRACE_SPAN("phase2.full_check");
  if (work.options.simplify_expansions) {
    std::optional<ConjunctiveQuery> simplified = SimplifyQuery(expansion);
    if (simplified.has_value()) expansion = *std::move(simplified);
  }
  std::string key;
  if (memo != nullptr) {
    CQAC_TRACE_SPAN("phase2.memo_probe");
    key = ContainmentMemoKey(expansion, work.query);
    if (std::optional<bool> cached = memo->Get(key); cached.has_value()) {
      out.contained = *cached;
      out.cache_hit = true;
      return out;
    }
  }
  ContainmentStats cstats;
  out.contained = CqacContainedCanonical(expansion, work.query, &cstats);
  out.orders_enumerated += cstats.orders_enumerated;
  if (memo != nullptr) memo->Put(key, out.contained);
  return out;
}

Phase2Outcome CheckExpansionContained(const RewriteWork& work,
                                      const ConjunctiveQuery& pre,
                                      MemoCache* memo) {
  CQAC_TRACE_SPAN("phase2.check");
  const int64_t t0 = NowNs();
  Phase2Outcome out = CheckExpansionContainedImpl(work, pre, memo);
  out.wall_ns = NowNs() - t0;
  if (obs::MetricsActive()) {
    static obs::Histogram& wall =
        obs::MetricsRegistry::Global().histogram("phase2.check_wall_ns");
    // Registered with the first check, so a run the order-pinned test
    // settles entirely still exports an explicit zero.
    static obs::Counter& full_checks =
        obs::MetricsRegistry::Global().counter("phase2.full_checks");
    wall.Observe(out.wall_ns);
    if (out.full_check) full_checks.Add(1);
  }
  return out;
}

void FinalizeFoundRewriting(const RewriteWork& work,
                            std::vector<ConjunctiveQuery> pre_rewritings,
                            RewriteResult* result) {
  CQAC_TRACE_SPAN("finalize");
  const RewriteOptions& options = work.options;
  // Polled between minimize steps and before verify, the passes whose
  // cost grows with the union.
  const auto aborted_by_cancel = [&options, result] {
    if (options.cancel == nullptr || !options.cancel->cancelled()) {
      return false;
    }
    result->outcome = RewriteOutcome::kAborted;
    result->failure_reason = kCancelledReason;
    return true;
  };

  UnionQuery rewriting(std::move(pre_rewritings));
  if (options.coalesce_output) rewriting = CoalesceUnion(rewriting);

  // The default frozen-match pruning guarantees Lemma 2 (every
  // Pre-Rewriting computes the query's head on its canonical database, so
  // the union contains the query).  The ablation modes do not: without
  // step 3.4 the Pre-Rewritings can conjoin mutually exclusive view
  // tuples (e.g. the paper's Example 2 with no pruning joins v1 and v2,
  // whose expansion demands both X = 0 and X > 0 witnesses).  Check the
  // missing direction explicitly for those modes.
  if (options.pruning != RewriteOptions::Pruning::kFrozenMatch) {
    UnionQuery expanded;
    for (const ConjunctiveQuery& d : rewriting.disjuncts()) {
      expanded.Add(
          ExpandForCheck(d, work.views, options.simplify_expansions));
    }
    if (!CqacContainedInUnion(work.query, expanded)) {
      result->outcome = RewriteOutcome::kNoRewriting;
      result->failure_reason =
          "union of Pre-Rewritings does not contain the query (weakened "
          "pruning mode lost Lemma 2)";
      return;
    }
  }

  // Optional output minimization: drop disjuncts covered by the others.
  if (options.minimize_output && rewriting.size() > 1) {
    std::vector<ConjunctiveQuery> disjuncts = rewriting.disjuncts();
    for (size_t i = 0; i < disjuncts.size() && disjuncts.size() > 1;) {
      if (aborted_by_cancel()) return;
      UnionQuery others_expanded;
      for (size_t j = 0; j < disjuncts.size(); ++j) {
        if (j != i) {
          others_expanded.Add(ExpandForCheck(disjuncts[j], work.views,
                                             options.simplify_expansions));
        }
      }
      const ConjunctiveQuery expansion_i = ExpandForCheck(
          disjuncts[i], work.views, options.simplify_expansions);
      if (CqacContainedInUnion(expansion_i, others_expanded)) {
        disjuncts.erase(disjuncts.begin() + i);
      } else {
        ++i;
      }
    }
    rewriting = UnionQuery(std::move(disjuncts));
  }

  if (aborted_by_cancel()) return;
  result->rewriting = std::move(rewriting);
  result->outcome = RewriteOutcome::kRewritingFound;

  if (options.verify) {
    result->verified =
        RewritingIsEquivalent(work.query, result->rewriting, work.views);
  }
}

std::optional<RewriteResult> RewriteUnsatisfiableQuery(
    const ConjunctiveQuery& query, const ViewSet& views,
    const RewriteOptions& options) {
  if (AcSolver::IsSatisfiable(query.comparisons())) return std::nullopt;
  RewriteResult result;
  result.outcome = RewriteOutcome::kRewritingFound;
  result.tier_reason =
      "query comparisons unsatisfiable; the rewriting is the empty union";
  if (options.verify) {
    result.verified = RewritingIsEquivalent(query, result.rewriting, views);
  }
  return result;
}

RewriteResult EquivalentRewriter::Run() {
  return ParallelRewrite(query_, views_, options_, memo_);
}

RewriteResult FindEquivalentRewriting(const ConjunctiveQuery& query,
                                      const ViewSet& views) {
  return EquivalentRewriter(query, views).Run();
}

bool RewritingIsEquivalent(const ConjunctiveQuery& query,
                           const UnionQuery& rewriting, const ViewSet& views) {
  UnionQuery expanded;
  for (const ConjunctiveQuery& disjunct : rewriting.disjuncts()) {
    expanded.Add(ExpandForCheck(disjunct, views, /*simplify=*/true));
  }
  return CqacContainedInUnion(query, expanded) &&
         UnionCqacContained(expanded, UnionQuery({query}));
}

}  // namespace cqac
