// The traced run's span store and the serial re-drive of one request.
//
// Spans are taken from outside the program: the benchmark times its own
// calls into each layer's public functions (ParseJobBlock,
// PrepareRewriteWork, ForEachTotalOrder, ProcessCanonicalDatabase,
// CheckExpansionContained, FinalizeFoundRewriting, RenderJobResult,
// ViewCatalog::Rewrite).  A layer's self time is its span minus the time
// its child spans cover.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "rewriting/equiv_rewriter.h"
#include "rewriting/view_set.h"

namespace perfbench {

enum Layer : uint8_t {
  kRequest,   // root span of one request
  kParse,     // ParseJobBlock
  kPrepare,   // PrepareRewriteWork
  kOrders,    // ForEachTotalOrder (self: enumeration + driver glue)
  kPhase1,    // ProcessCanonicalDatabase
  kPhase2,    // CheckExpansionContained
  kFinalize,  // FinalizeFoundRewriting
  kRender,    // RenderJobResult
  kCatalog,   // ViewCatalog::Rewrite
  kNumLayers,
};
const char* LayerName(Layer layer);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t request = 0;
  int32_t parent = -1;  // index into SpanStore::spans, -1 for a root
  Layer layer = kRequest;
};

/// In-memory span store; written out once, when the run ends.
class SpanStore {
 public:
  int Begin(Layer layer, int parent, int64_t request);
  void End(int index);

  /// Self time per layer (ns) over all stored spans.
  std::array<int64_t, kNumLayers> SelfNs() const;
  /// Total duration of root spans (ns).
  int64_t RootNs() const;

  /// Tab-separated: request, span, parent, layer, start_ns, end_ns.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Counts the re-drive observes at the layer boundaries.
struct LayerCounts {
  int64_t requests = 0;
  int64_t mcds = 0;
  int64_t orders_visited = 0;
  int64_t phase1_calls = 0;
  int64_t phase1_kept = 0;
  int64_t phase1_skipped = 0;
  int64_t phase1_failed = 0;
  int64_t phase1_memo_hits = 0;
  int64_t phase1_hit_ns = 0;
  int64_t phase1_miss_ns = 0;
  int64_t phase2_checks = 0;
  int64_t phase2_orders = 0;
  int64_t phase2_distinct_bodies = 0;  // per request, summed
  int64_t disjuncts = 0;
  int64_t render_bytes = 0;
};

/// Views compiled ahead of time by a ViewCatalog, for re-driving a
/// catalog request through the same PrepareRewriteWork overload.
struct Precompiled {
  const std::vector<cqac::ConjunctiveQuery>* v0 = nullptr;
  const std::vector<cqac::Rational>* constants = nullptr;
};

/// Parse -> rewrite -> render of one request through the serial work
/// units, the same steps EquivalentRewriter(jobs=1).Run() takes, with a
/// span around every call.  `views` overrides the job's own views (a
/// query-only catalog request).  Returns the rendered answer, which must
/// equal the untraced call's byte for byte.
std::string TracedRewrite(const std::string& job_text,
                          const cqac::ViewSet* views,
                          const Precompiled* precompiled, int64_t request,
                          SpanStore* spans, LayerCounts* counts);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
