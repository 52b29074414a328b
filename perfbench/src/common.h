// Shared helpers of the perfbench harness: clocks, resource usage,
// percentiles, hashing, a counter-based PRNG and the result record every
// workload fills in.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

int64_t NowNs();          // steady clock
int64_t ProcessCpuNs();   // getrusage(RUSAGE_SELF) user + sys
double PeakRssMb();       // getrusage ru_maxrss
int CpuCount();           // CPUs this process may run on (affinity mask)

/// Linear-interpolation percentile (p in [0, 100]); 0 for an empty list.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;
uint64_t Fnv64(std::string_view bytes, uint64_t h = kFnvOffset);
std::string Hex64(uint64_t v);

/// splitmix64: a tiny, portable, seedable generator.  Every input the
/// benchmark derives from --seed goes through it, so a seed names the same
/// request list on every platform and standard library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

/// The value splitmix64 yields for `counter` under `seed`, without state:
/// lets concurrent clients derive request i of a sequence independently.
uint64_t Mix(uint64_t seed, uint64_t counter);

/// In-place Fisher-Yates shuffle driven by `rng`.
template <typename T>
void Shuffle(std::vector<T>* v, SplitMix* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports.  `correct` is false when any answer was
/// wrong, the self-test did not see its planted failure, or a traced
/// output differed from its untraced twin.
struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed before the result line

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("ERROR: " + why);
  }
};

/// Formats a double with all its significant digits (%.17g).
std::string Num(double v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
