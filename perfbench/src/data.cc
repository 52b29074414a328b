#include "data.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "runtime/batch_driver.h"
#include "server/json.h"

namespace perfbench {

using cqac::server::AppendJsonString;
using cqac::server::JsonValue;

namespace {

void AppendField(std::string* out, const char* key, const std::string& value) {
  AppendJsonString(out, key);
  *out += ": ";
  AppendJsonString(out, value);
}

/// Rewritings may carry MiniCon-fresh variables spelled `_f<i>_<j>`,
/// which the parser does not accept as variables; respell them `Fresh_f...`
/// (no query variable starts that way) so the text parses back.
std::string SpellFreshVariables(const std::string& rule) {
  std::string out;
  for (size_t i = 0; i < rule.size(); ++i) {
    const bool starts_token =
        i == 0 || !(std::isalnum(static_cast<unsigned char>(rule[i - 1])) ||
                    rule[i - 1] == '_');
    if (rule[i] == '_' && starts_token) out += "Fresh";
    out += rule[i];
  }
  return out;
}

}  // namespace

bool LoadPool(const std::string& path, Pool* pool, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  *pool = Pool();
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue v;
    std::string perr;
    if (!cqac::server::ParseJson(line, &v, &perr) ||
        v.type() != JsonValue::Type::kObject) {
      *error = path + ":" + std::to_string(lineno) + ": " + perr;
      return false;
    }
    if (lineno == 1) {
      pool->workload = v.FindString("workload", "");
      pool->generated_at = v.FindString("generated_at", "");
      if (const JsonValue* cats = v.Find("catalogs")) {
        for (const auto& [tag, text] : cats->AsObject()) {
          pool->catalogs[tag] = text.AsString();
        }
      }
      continue;
    }
    PoolEntry e;
    e.id = v.FindString("id", "");
    e.job = v.FindString("job", "");
    e.group = v.FindString("group", "");
    e.base = static_cast<int>(v.FindInt("base", -1));
    e.variant = static_cast<int>(v.FindInt("variant", 0));
    if (const JsonValue* c = v.Find("cost_ms")) e.cost_ms = c->AsDouble();
    if (const JsonValue* exp = v.Find("expected")) {
      for (const auto& [tag, x] : exp->AsObject()) {
        Expected ex;
        ex.outcome = x.FindString("outcome", "");
        ex.oracle = x.FindString("oracle", "");
        ex.text = x.FindString("text", "");
        if (!ex.text.empty()) {
          ex.digest = Fnv64(ex.text);
          ex.bytes = ex.text.size();
        } else {
          ex.digest = std::strtoull(x.FindString("digest", "").c_str(),
                                    nullptr, 16);
          ex.bytes = static_cast<size_t>(x.FindInt("bytes", 0));
        }
        if (const JsonValue* alts = x.Find("alternatives")) {
          for (const JsonValue& alt : alts->AsArray()) {
            const std::string& a = alt.AsString();  // "<digest>:<bytes>"
            ex.alternatives.emplace(
                std::strtoull(a.c_str(), nullptr, 16),
                std::strtoull(a.c_str() + a.find(':') + 1, nullptr, 10));
          }
        }
        e.expected[tag] = std::move(ex);
      }
    }
    if (e.id.empty() || e.job.empty() || e.expected.empty()) {
      *error = path + ":" + std::to_string(lineno) + ": incomplete entry";
      return false;
    }
    pool->entries.push_back(std::move(e));
  }
  if (pool->entries.empty()) {
    *error = path + ": no entries";
    return false;
  }
  return true;
}

bool SavePool(const std::string& path, const Pool& pool, std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  std::string head = "{";
  AppendField(&head, "workload", pool.workload);
  head += ", ";
  AppendField(&head, "generated_at", pool.generated_at);
  head += ", \"catalogs\": {";
  bool first = true;
  for (const auto& [tag, text] : pool.catalogs) {
    if (!first) head += ", ";
    first = false;
    AppendField(&head, tag.c_str(), text);
  }
  head += "}}\n";
  out << head;
  for (const PoolEntry& e : pool.entries) {
    std::string s = "{";
    AppendField(&s, "id", e.id);
    s += ", ";
    AppendField(&s, "group", e.group);
    s += ", \"base\": " + std::to_string(e.base);
    s += ", \"variant\": " + std::to_string(e.variant);
    char cost[32];
    std::snprintf(cost, sizeof(cost), "%.3f", e.cost_ms);
    s += ", \"cost_ms\": ";
    s += cost;
    s += ", ";
    AppendField(&s, "job", e.job);
    s += ", \"expected\": {";
    bool firstx = true;
    for (const auto& [tag, x] : e.expected) {
      if (!firstx) s += ", ";
      firstx = false;
      AppendJsonString(&s, tag);
      s += ": {";
      AppendField(&s, "outcome", x.outcome);
      s += ", ";
      AppendField(&s, "oracle", x.oracle);
      s += ", ";
      if (x.text.size() <= kInlineTextBytes) {
        AppendField(&s, "text", x.text);
      } else {
        AppendField(&s, "head", x.text.substr(0, x.text.find('\n') + 1));
        s += ", ";
        AppendField(&s, "digest", Hex64(x.digest));
        s += ", \"bytes\": " + std::to_string(x.bytes);
      }
      if (!x.alternatives.empty()) {
        s += ", \"alternatives\": [";
        for (auto it = x.alternatives.begin(); it != x.alternatives.end(); ++it) {
          if (it != x.alternatives.begin()) s += ", ";
          s += "\"" + Hex64(it->first) + ":" + std::to_string(it->second) + "\"";
        }
        s += "]";
      }
      s += "}";
    }
    s += "}}\n";
    out << s;
  }
  return static_cast<bool>(out);
}

bool ParseViews(const std::string& text, cqac::ViewSet* views,
                std::string* error) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("view ", 0) != 0) {
      *error = "not a view line: " + line;
      return false;
    }
    std::optional<cqac::ConjunctiveQuery> v =
        cqac::Parser::ParseRule(line.substr(5), error);
    if (!v) return false;
    views->Add(*std::move(v));
  }
  return true;
}

std::string RenderedOutcome(const std::string& rendered) {
  if (rendered.find(": equivalent rewriting (") != std::string::npos) {
    return "found";
  }
  if (rendered.find(": no equivalent rewriting") != std::string::npos) {
    return "none";
  }
  if (rendered.find(": aborted") != std::string::npos) return "aborted";
  return "error";
}

Expected MakeExpected(const std::string& rendered, const std::string& oracle) {
  Expected e;
  e.outcome = RenderedOutcome(rendered);
  e.oracle = oracle;
  e.text = rendered;
  e.digest = Fnv64(rendered);
  e.bytes = rendered.size();
  return e;
}

bool Same(const Expected& expected, const std::string& rendered) {
  if (!expected.text.empty() && rendered == expected.text) return true;
  const uint64_t digest = Fnv64(rendered);
  if (expected.text.empty() && rendered.size() == expected.bytes &&
      digest == expected.digest) {
    return true;
  }
  return expected.alternatives.count({digest, rendered.size()}) > 0;
}

Verdict CheckAnswer(const Expected& expected, const std::string& rendered,
                    const std::string& job,
                    const cqac::ViewSet* catalog_views) {
  if (Same(expected, rendered)) return Verdict::kSame;
  const std::string outcome = RenderedOutcome(rendered);
  if (expected.outcome == "none" && outcome == "none") {
    return Verdict::kOtherReason;
  }
  if (expected.outcome != "found" || outcome != "found") {
    return Verdict::kWrong;
  }
  const cqac::BatchJob parsed = cqac::ParseJobBlock(job);
  if (!parsed.error.empty() || !parsed.query) return Verdict::kWrong;
  cqac::UnionQuery rewriting;
  std::istringstream in(rendered);
  std::string line;
  std::getline(in, line);  // "job 0: equivalent rewriting (n disjuncts)"
  while (std::getline(in, line)) {
    if (line.rfind("  ", 0) != 0) return Verdict::kWrong;
    std::optional<cqac::ConjunctiveQuery> d =
        cqac::Parser::ParseRule(SpellFreshVariables(line.substr(2)));
    if (!d) return Verdict::kWrong;
    rewriting.Add(*std::move(d));
  }
  const cqac::ViewSet& views =
      catalog_views != nullptr ? *catalog_views : parsed.views;
  return cqac::RewritingIsEquivalent(*parsed.query, rewriting, views)
             ? Verdict::kEquivalent
             : Verdict::kWrong;
}

Verdict AnswerChecker::Check(const std::string& key, const Expected& expected,
                             const std::string& rendered,
                             const std::string& job,
                             const cqac::ViewSet* catalog_views, bool* first) {
  const auto memo_key = std::make_tuple(key, Fnv64(rendered), rendered.size());
  auto it = verdicts_.find(memo_key);
  if (first != nullptr) *first = it == verdicts_.end();
  if (it == verdicts_.end()) {
    it = verdicts_
             .emplace(memo_key,
                      CheckAnswer(expected, rendered, job, catalog_views))
             .first;
  }
  return it->second;
}

}  // namespace perfbench
