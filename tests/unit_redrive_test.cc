// The public work units, re-driven one by one (the chain perfbench's
// traced mode times layer by layer), must render the same answer as the
// production driver at jobs=1 and jobs=4 on every corpus case.

#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "testing/corpus.h"
#include "testing/differential.h"

namespace cqac {
namespace {

TEST(UnitRedriveTest, FullCorpusMatchesParallelRewrite) {
  std::string error;
  const std::optional<std::vector<testing::CorpusEntry>> corpus =
      testing::LoadCorpusDir(CQAC_CORPUS_DIR, &error);
  ASSERT_TRUE(corpus.has_value()) << error;
  ASSERT_FALSE(corpus->empty());
  for (const testing::CorpusEntry& entry : *corpus) {
    const testing::RedriveReport report = testing::CheckUnitRedrive(entry.c);
    EXPECT_TRUE(report.ok) << entry.name << ": " << report.failure;
  }
}

}  // namespace
}  // namespace cqac
