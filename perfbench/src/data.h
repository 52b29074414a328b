// Request pools and their expected answers.
//
// Every request a workload can send is stored, with its expected answer,
// in perfbench/data/<workload>.jsonl.  The pools were drawn once with the
// library's WorkloadGenerator and frozen, so the benchmark's inputs do not
// change when the generator does; --seed only selects and orders requests
// from a pool.  Answers were rendered by the cold one-shot path when the
// pool was generated and, where the oracle's budget allowed, cross-checked
// with the brute-force oracle (testing::CheckRewritingWithOracle).

#ifndef PERFBENCH_DATA_H_
#define PERFBENCH_DATA_H_

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "ast/query.h"
#include "rewriting/view_set.h"

namespace perfbench {

/// The answer a request must get, as RenderJobResult prints it for job
/// index 0, plus how far the oracle confirmed it.  Answers longer than
/// kInlineTextBytes are stored as their first line, Fnv64 digest and
/// length only, which keeps the pools small.
struct Expected {
  std::string outcome;  // found | none
  std::string oracle;   // checked | unchecked (over budget) | n/a (none)
  std::string text;     // empty when stored as a digest
  uint64_t digest = 0;  // Fnv64 of the full text
  size_t bytes = 0;     // length of the full text
  // Other accepted renderings (digest, length): a catalog's semantic-cache
  // replays of another alpha-renamed variant's answer.
  std::set<std::pair<uint64_t, size_t>> alternatives;
};
inline constexpr size_t kInlineTextBytes = 1024;

/// Builds an Expected for a full rendered answer.
Expected MakeExpected(const std::string& rendered, const std::string& oracle);

/// True when `rendered` is byte-identical to the expected answer or one of
/// its alternatives (for digests: same length and Fnv64 digest).
bool Same(const Expected& expected, const std::string& rendered);

struct PoolEntry {
  std::string id;
  std::string job;    // exact request text
  std::string group;  // grid cell or base-request name
  int base = -1;      // the request this is a spelling of
  int variant = 0;    // alpha-renaming variant of the base request
  double cost_ms = 0; // one-shot wall time when the pool was generated
  // Keyed by the views the request runs against: "self" when the job
  // carries its views, else the catalog tag ("A" or "B").
  std::map<std::string, Expected> expected;
};

struct Pool {
  std::string workload;
  std::string generated_at;  // provenance of the answers
  std::map<std::string, std::string> catalogs;  // tag -> `view ...` lines
  std::vector<PoolEntry> entries;
};

bool LoadPool(const std::string& path, Pool* pool, std::string* error);
bool SavePool(const std::string& path, const Pool& pool, std::string* error);

/// Parses `view <rule>` lines into a ViewSet; false on a malformed line.
bool ParseViews(const std::string& text, cqac::ViewSet* views,
                std::string* error);

/// How a rendered answer compares with its expectation.
enum class Verdict {
  kSame,        // byte-identical
  kEquivalent,  // different text, but both found rewritings and
                // RewritingIsEquivalent proves the rendered one correct
  kOtherReason, // both say there is no equivalent rewriting; the
                // diagnostic (e.g. which canonical database failed) differs
  kWrong,
};

/// Checks `rendered` against `expected`.  Call outside timed regions: on a
/// text mismatch between two found rewritings it re-parses the answer and
/// runs the equivalence check against `job` (whose views are used unless
/// `catalog_views` is non-null).  Two "none" answers agree whatever reason
/// they give.
Verdict CheckAnswer(const Expected& expected, const std::string& rendered,
                    const std::string& job,
                    const cqac::ViewSet* catalog_views);

/// CheckAnswer with a memo: each distinct (key, answer) pair is checked
/// once per run, however often it recurs, so a change that only respells
/// a large rewriting does not rerun the equivalence check per request.
class AnswerChecker {
 public:
  /// `key` names the request and the views it runs against.  Sets *first
  /// when the pair had not been checked before.
  Verdict Check(const std::string& key, const Expected& expected,
                const std::string& rendered, const std::string& job,
                const cqac::ViewSet* catalog_views, bool* first = nullptr);

 private:
  std::map<std::tuple<std::string, uint64_t, size_t>, Verdict> verdicts_;
};

/// The outcome word of a rendered answer: found, none, aborted or error.
std::string RenderedOutcome(const std::string& rendered);

}  // namespace perfbench

#endif  // PERFBENCH_DATA_H_
