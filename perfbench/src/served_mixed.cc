// served-mixed: an in-process cqacd Server with the catalog on, driven
// over a Unix socket by closed-loop clients (each waits for its reply, as
// a mediator or optimizer does).  Requests are query-only rewrites against
// the default catalog, drawn Zipf-style from the pool and arriving as one
// of several alpha-renamed variants; a fixed share are set_catalog swaps
// to a second view set and straight back.

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "catalog/view_catalog.h"
#include "runtime/batch_driver.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqac::server::Frame;
using cqac::server::ServiceResponse;

// A 30 s run makes ~190k requests, of which ~400 are one-off cold misses
// (first sight of a query on a catalog) measured once each.  The
// ten-beyond rule would put the tail at p99.995, and even p99.9 moves by
// +-20% between runs on a shared 4-CPU host; p99 (~1900 samples beyond)
// still covers the cold misses and the queueing behind them.
constexpr double kServedTailPct = 99;

// Server starts timed for setup_s.  A start takes ~0.3 ms, but each
// drain before the next one ~70 ms, so the run's set-up phase takes ~3 s.
constexpr int kServedSetups = 41;
constexpr uint64_t kServedSalt = 0x5e12edULL;
// One sequence position in kSwapEvery is a swap: set_catalog B, then A.
constexpr uint64_t kSwapEvery = 400;
constexpr double kZipfExponent = 1.0;
// Generous: the slowest pool request takes well under a second cold.
constexpr int64_t kDeadlineMs = 60000;

/// The request at each position of a seed's (unbounded) sequence.
/// Position i depends only on (seed, i), so clients sharing an atomic
/// position counter send exactly the seed's list, in some interleaving.
class Sequence {
 public:
  Sequence(const Pool& pool, uint64_t seed) : seed_(seed ^ kServedSalt) {
    for (size_t k = 0; k < pool.entries.size(); ++k) {
      const PoolEntry& e = pool.entries[k];
      if (static_cast<size_t>(e.base) >= variants_.size()) {
        variants_.resize(static_cast<size_t>(e.base) + 1);
      }
      if (e.variant == 0 || e.expected.at("A").outcome == "found") {
        variants_[static_cast<size_t>(e.base)].push_back(static_cast<int>(k));
      }
    }
    double total = 0;
    for (size_t rank = 0; rank < variants_.size(); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  /// Pool entry index, or -1 for a catalog swap.
  int At(uint64_t i) const {
    const uint64_t a = Mix(seed_, 2 * i);
    if (a % kSwapEvery == 0) return -1;
    const double u =
        static_cast<double>(Mix(seed_, 2 * i + 1) >> 11) * 0x1.0p-53;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    const std::vector<int>& vs = variants_[std::min(rank, variants_.size() - 1)];
    // Queries with a rewriting arrive as any of their alpha-renamed
    // variants, which the semantic cache serves from one stored answer.
    // The cache replays a "no rewriting" answer only to the same spelling,
    // so those queries repeat verbatim.
    return vs.size() == 1 ? vs[0] : vs[(a >> 20) % vs.size()];
  }

  /// Fnv64 over the first `n` positions' request texts.
  std::string Hash(const Pool& pool, uint64_t n) const {
    uint64_t h = kFnvOffset;
    for (uint64_t i = 0; i < n; ++i) {
      const int k = At(i);
      h = Fnv64(k < 0 ? std::string_view("set_catalog")
                      : std::string_view(pool.entries[static_cast<size_t>(k)].job),
                h);
      h = Fnv64(std::string_view("\0", 1), h);
    }
    return Hex64(h);
  }

 private:
  uint64_t seed_;
  std::vector<std::vector<int>> variants_;  // base -> entry indices
  std::vector<double> cdf_;                 // Zipf over bases, by rank
};

/// A blocking client over one Unix-socket connection.
class Client {
 public:
  explicit Client(const std::string& path) {
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  /// Sends one pre-encoded frame and reads its reply.
  bool RoundTrip(const std::string& encoded, Frame* reply) {
    size_t sent = 0;
    while (sent < encoded.size()) {
      const ssize_t n = ::send(fd_, encoded.data() + sent,
                               encoded.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    char buf[65536];
    for (;;) {
      std::string error;
      const auto status = decoder_.Next(reply, &error);
      if (status == cqac::server::FrameDecoder::Status::kFrame) return true;
      if (status == cqac::server::FrameDecoder::Status::kError) return false;
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      decoder_.Feed(buf, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  cqac::server::FrameDecoder decoder_;
};

/// Everything the clients need, encoded once before timing starts.
struct Wire {
  std::vector<std::string> rewrite;   // per pool entry: encoded frame
  std::string to_b, to_a;             // set_catalog frames
  std::vector<const Expected*> want_a; // expected answer on catalog A
};

std::string EncodeBody(const std::string& body) {
  Frame f;
  f.id = 1;
  f.body = body;
  return cqac::server::EncodeFrame(f);
}

Wire BuildWire(const Pool& pool) {
  Wire w;
  for (const PoolEntry& e : pool.entries) {
    std::string body = "{\"job\": ";
    cqac::server::AppendJsonString(&body, e.job);
    body += ", \"index\": 0, \"deadline_ms\": " + std::to_string(kDeadlineMs) +
            "}";
    w.rewrite.push_back(EncodeBody(body));
    w.want_a.push_back(&e.expected.at("A"));
  }
  const auto swap = [&](const std::string& tag) {
    std::string body = "{\"type\": \"set_catalog\", \"job\": ";
    cqac::server::AppendJsonString(&body, pool.catalogs.at(tag));
    return EncodeBody(body + "}");
  };
  w.to_b = swap("B");
  w.to_a = swap("A");
  return w;
}

/// A rewrite reply that is not an accepted A answer; settled after
/// the run against whichever catalog's epoch served it.
struct Pending {
  int entry;
  uint64_t epoch;
  std::string body;
};

struct ClientTally {
  std::vector<double> latencies_ms;
  std::vector<uint16_t> done_second;  // second of the run each completed in
  std::vector<double> swap_ms;
  std::vector<Pending> pending;
  int64_t attempted = 0;
  int64_t failed = 0;  // transport errors and non-ok statuses
  std::optional<uint64_t> epoch_b;
};

/// Sends sequence positions until `end_ns`.  With `serial_log`, also
/// records each position's latency (-1 for swaps) in order.
void ClientLoop(const std::string& socket, const Sequence& seq,
                const Wire& wire, std::atomic<uint64_t>* next,
                int64_t start_ns, int64_t end_ns,
                ClientTally* tally,
                std::vector<double>* serial_log) {
  Client client(socket);
  if (!client.ok()) {
    ++tally->attempted;
    ++tally->failed;
    return;
  }
  Frame reply;
  ServiceResponse response;
  std::string error;
  while (NowNs() < end_ns) {
    const uint64_t i = next->fetch_add(1);
    const int k = seq.At(i);
    if (k < 0) {
      for (const std::string* frame : {&wire.to_b, &wire.to_a}) {
        const int64_t t0 = NowNs();
        const bool ok = client.RoundTrip(*frame, &reply);
        const double ms = static_cast<double>(NowNs() - t0) / 1e6;
        tally->latencies_ms.push_back(ms);
        tally->done_second.push_back(
            static_cast<uint16_t>((NowNs() - start_ns) / 1000000000));
        tally->swap_ms.push_back(ms);
        ++tally->attempted;
        if (!ok || !cqac::server::ParseServiceResponse(reply.body, &response,
                                                       &error) ||
            response.status != cqac::server::ResponseStatus::kOk) {
          ++tally->failed;
          if (!ok) return;
          continue;
        }
        if (frame == &wire.to_b) tally->epoch_b = response.catalog_epoch;
      }
      if (serial_log != nullptr) serial_log->push_back(-1);
      continue;
    }
    const int64_t t0 = NowNs();
    const bool ok =
        client.RoundTrip(wire.rewrite[static_cast<size_t>(k)], &reply);
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    tally->latencies_ms.push_back(ms);
    tally->done_second.push_back(
        static_cast<uint16_t>((NowNs() - start_ns) / 1000000000));
    if (serial_log != nullptr) serial_log->push_back(ms);
    ++tally->attempted;
    if (!ok) {
      ++tally->failed;
      return;
    }
    if (!cqac::server::ParseServiceResponse(reply.body, &response, &error) ||
        response.status != cqac::server::ResponseStatus::kOk) {
      ++tally->failed;
      continue;
    }
    if (!Same(*wire.want_a[static_cast<size_t>(k)], response.body)) {
      tally->pending.push_back({k, response.catalog_epoch, response.body});
    }
  }
}

struct Catalogs {
  cqac::ViewSet a, b;
};

/// Settles replies that did not match the A answer and returns how many
/// were wrong.  Each distinct (request, catalog, reply) is checked and
/// noted once.
int64_t SettlePending(const Pool& pool, const Catalogs& views,
                      const std::vector<Pending>& pending,
                      std::optional<uint64_t> epoch_b, RunReport* report) {
  AnswerChecker checker;
  int64_t wrong = 0;
  for (const Pending& p : pending) {
    const PoolEntry& e = pool.entries[static_cast<size_t>(p.entry)];
    const bool on_b = epoch_b.has_value() && p.epoch == *epoch_b;
    bool first = false;
    const Verdict v = checker.Check(e.id + (on_b ? "@B" : "@A"),
                                    e.expected.at(on_b ? "B" : "A"), p.body,
                                    e.job, on_b ? &views.b : &views.a, &first);
    if (v != Verdict::kWrong) continue;
    ++wrong;
    if (first) {
      report->Note("wrong answer for " + e.id + (on_b ? " on B: " : " on A: ") +
                   p.body.substr(0, 200));
    }
  }
  return wrong;
}

std::unique_ptr<cqac::server::Server> StartServer(const Pool& pool,
                                                  const std::string& socket,
                                                  int workers,
                                                  std::string* error) {
  cqac::server::ServerOptions options;
  options.unix_socket_path = socket;
  options.jobs = workers;  // explicit positive count
  options.use_catalog = true;
  options.catalog_views_text = pool.catalogs.at("A");
  auto server = std::make_unique<cqac::server::Server>(options);
  if (!server->Start(error)) return nullptr;
  return server;
}

/// One in-process pass over positions [0, n): ParseJobBlock ->
/// ViewCatalog::Rewrite -> RenderJobResult against a fresh registry, the
/// same calls the server makes per request.  With `spans`, each call is
/// a span under a per-request root.
struct InProcess {
  std::vector<double> latency_ms;     // per position; -1 for swaps
  std::vector<uint64_t> rendered;     // per position: Fnv64 of the answer
  std::vector<char> hit;              // per position: semantic-cache hit
  std::vector<std::string> text;      // per position: kept when asked
  std::vector<double> hit_us, miss_ms, build_ms;
  cqac::CatalogStats stats_a, stats_b;
  std::shared_ptr<cqac::ViewCatalog> cat_a, cat_b;
};

InProcess RunInProcess(const Pool& pool, const Catalogs& views,
                       const Sequence& seq, uint64_t n, SpanStore* spans,
                       bool keep_text) {
  InProcess r;
  cqac::CatalogRegistry registry;
  const auto get = [&](const cqac::ViewSet& vs) {
    const int64_t before = registry.catalogs_built();
    const int64_t t0 = NowNs();
    std::shared_ptr<cqac::ViewCatalog> c = registry.GetOrBuild(vs);
    if (registry.catalogs_built() != before) {
      r.build_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
    return c;
  };
  r.cat_a = get(views.a);
  cqac::RewriteOptions options;
  options.jobs = 1;
  for (uint64_t i = 0; i < n; ++i) {
    const int k = seq.At(i);
    if (k < 0) {
      // A swap to B and straight back: in-process, nothing runs between.
      r.cat_b = get(views.b);
      get(views.a);
      r.latency_ms.push_back(-1);
      r.rendered.push_back(0);
      r.hit.push_back(0);
      if (keep_text) r.text.emplace_back();
      continue;
    }
    const std::string& job_text = pool.entries[static_cast<size_t>(k)].job;
    const int64_t t0 = NowNs();
    const int root =
        spans ? spans->Begin(kRequest, -1, static_cast<int64_t>(i)) : -1;
    int s = spans ? spans->Begin(kParse, root, static_cast<int64_t>(i)) : -1;
    const cqac::BatchJob job = cqac::ParseJobBlock(job_text);
    if (spans) spans->End(s);
    s = spans ? spans->Begin(kCatalog, root, static_cast<int64_t>(i)) : -1;
    const int64_t r0 = NowNs();
    const cqac::RewriteResult result = r.cat_a->Rewrite(*job.query, options);
    const int64_t rewrite_ns = NowNs() - r0;
    if (spans) spans->End(s);
    s = spans ? spans->Begin(kRender, root, static_cast<int64_t>(i)) : -1;
    std::string rendered = cqac::RenderJobResult(0, job, result, false);
    if (spans) {
      spans->End(s);
      spans->End(root);
    }
    r.latency_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    r.rendered.push_back(Fnv64(rendered));
    r.hit.push_back(result.from_semantic_cache ? 1 : 0);
    if (result.from_semantic_cache) {
      r.hit_us.push_back(static_cast<double>(rewrite_ns) / 1e3);
    } else {
      r.miss_ms.push_back(static_cast<double>(rewrite_ns) / 1e6);
    }
    if (keep_text) r.text.push_back(std::move(rendered));
  }
  r.stats_a = r.cat_a->Stats();
  if (r.cat_b) r.stats_b = r.cat_b->Stats();
  return r;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

RunReport RunServedMixed(const Args& args, const Pool& pool, Provenance* prov) {
  RunReport report;
  SelfTestChecker(&report);

  Catalogs views;
  std::string error;
  if (!ParseViews(pool.catalogs.at("A"), &views.a, &error) ||
      !ParseViews(pool.catalogs.at("B"), &views.b, &error)) {
    report.Fail("bad catalog views: " + error);
    return report;
  }
  const Sequence seq(pool, args.seed);
  const Wire wire = BuildWire(pool);

  // Connections plus server workers stay within nproc: one worker, kept
  // busy by nproc - 1 closed-loop clients, so its queue never drains and
  // the run measures serving work rather than thread wake-ups.
  const int nproc = CpuCount();
  const int workers = 1;
  const int clients = args.trace ? 1 : std::max(1, nproc - workers);
  prov->jobs = workers;
  prov->list_hash = seq.Hash(pool, 1 << 20);
  prov->tail_percentile = kServedTailPct;
  prov->distinct_requests = static_cast<int64_t>(pool.entries.size());

  // Set-up: Server construction + Start, which installs catalog A.
  static std::atomic<int> socket_counter{0};
  const auto socket_path = [&] {
    return args.work_dir + "/perfbench-" + std::to_string(::getpid()) + "-" +
           std::to_string(socket_counter++) + ".sock";
  };
  EndToEnd e2e;
  e2e.tail_percentile = kServedTailPct;
  std::vector<double> setups;
  std::unique_ptr<cqac::server::Server> server;
  std::string socket;
  for (int i = 0; i < kServedSetups; ++i) {
    if (server) {
      server->BeginDrain();
      server->Wait();
      server.reset();
    }
    socket = socket_path();
    const int64_t t0 = NowNs();
    server = StartServer(pool, socket, workers, &error);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!server) {
      report.Fail("server start failed: " + error);
      return report;
    }
  }
  e2e.setup_s = Median(setups);

  // Closed loop: `clients` connections share one position counter.
  std::vector<ClientTally> tallies(static_cast<size_t>(clients));
  std::vector<double> serial_log;
  std::atomic<uint64_t> next{0};
  const double budget_s = args.trace ? args.seconds * 0.3 : args.seconds;
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(budget_s * 1e9);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(ClientLoop, socket, std::cref(seq), std::cref(wire),
                           &next, start, end,
                           &tallies[static_cast<size_t>(c)],
                           args.trace ? &serial_log : nullptr);
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  e2e.cpu_s = static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
  e2e.timed_wall_s = wall_s;
  server->BeginDrain();
  server->Wait();
  const cqac::BatchSummary summary = server->summary();
  server.reset();

  std::optional<uint64_t> epoch_b;
  std::vector<Pending> pending;
  std::vector<double> swap_ms;
  std::vector<double> per_second(static_cast<size_t>(wall_s));
  for (ClientTally& t : tallies) {
    for (const uint16_t second : t.done_second) {
      if (second < per_second.size()) ++per_second[second];
    }
    report.attempted += t.attempted;
    report.failed += t.failed;
    e2e.latencies_ms.insert(e2e.latencies_ms.end(), t.latencies_ms.begin(),
                            t.latencies_ms.end());
    swap_ms.insert(swap_ms.end(), t.swap_ms.begin(), t.swap_ms.end());
    pending.insert(pending.end(), std::make_move_iterator(t.pending.begin()),
                   std::make_move_iterator(t.pending.end()));
    if (t.epoch_b) epoch_b = t.epoch_b;
  }
  report.failed += SettlePending(pool, views, pending, epoch_b, &report);
  report.Note("served: " + std::to_string(report.attempted) + " requests, " +
              std::to_string(summary.deadline_exceeded) +
              " deadline-exceeded, " + std::to_string(summary.rejected) +
              " rejected, " + std::to_string(pending.size()) +
              " replies not matching catalog A's answer; catalog: " +
              std::to_string(summary.catalog_semantic_hits) +
              " semantic hits, " +
              std::to_string(summary.catalog_semantic_misses) + " misses, " +
              std::to_string(summary.catalog_plans_built) + " plans built, " +
              std::to_string(summary.catalog_plan_hits) + " plan hits");

  if (!args.trace) {
    e2e.throughput_rps = Median(per_second);
    EmitEndToEnd(e2e, &report);
    return report;
  }

  // Traced run.  The served pass above ran one client over positions
  // [0, n); the same positions now go through the in-process path,
  // untraced and then traced, each on a fresh registry so the two see the
  // served run's hit/miss pattern.
  const uint64_t n = serial_log.size();
  int64_t t0 = NowNs();
  const InProcess plain =
      RunInProcess(pool, views, seq, n, nullptr, /*keep_text=*/false);
  const int64_t plain_ns = NowNs() - t0;
  SpanStore spans;
  t0 = NowNs();
  const InProcess traced =
      RunInProcess(pool, views, seq, n, &spans, /*keep_text=*/true);
  const int64_t traced_ns = NowNs() - t0;

  std::vector<double> overhead_us;
  AnswerChecker checker;
  for (uint64_t i = 0; i < n; ++i) {
    if (plain.latency_ms[i] < 0) continue;
    ++report.attempted;
    const PoolEntry& e = pool.entries[static_cast<size_t>(seq.At(i))];
    if (plain.rendered[i] != traced.rendered[i]) {
      ++report.failed;
      report.Fail("traced in-process answer differs for " + e.id);
    } else if (checker.Check(e.id, e.expected.at("A"), traced.text[i], e.job,
                             &views.a) == Verdict::kWrong) {
      ++report.failed;
      report.Note("wrong in-process answer for " + e.id);
    }
    overhead_us.push_back((serial_log[i] - plain.latency_ms[i]) * 1e3);
  }

  // Re-drive each first-seen semantic miss through the serial work units
  // on the catalog's precompiled views, for the layers under the catalog.
  SpanStore unit_spans;
  LayerCounts counts;
  std::set<std::string> seen;
  const int64_t redrive_end =
      start + static_cast<int64_t>(args.seconds) * 1000000000;
  for (uint64_t i = 0; i < n && NowNs() < redrive_end; ++i) {
    if (traced.latency_ms[i] < 0 || traced.hit[i]) continue;
    const PoolEntry& e = pool.entries[static_cast<size_t>(seq.At(i))];
    if (!seen.insert(e.id).second) continue;
    const cqac::ViewCatalog& cat = *traced.cat_a;
    const Precompiled pre{&cat.v0_variants(), &cat.view_constants()};
    const std::string again =
        TracedRewrite(e.job, &cat.views(), &pre, static_cast<int64_t>(i),
                      &unit_spans, &counts);
    ++report.attempted;
    if (again != traced.text[i]) {
      ++report.failed;
      report.Fail("re-driven catalog miss differs for " + e.id);
    }
  }

  LayerValues values;
  FillUnitLayers(unit_spans, counts, /*parse_render=*/false, &values);
  const std::array<int64_t, kNumLayers> self = spans.SelfNs();
  const double requests = static_cast<double>(
      std::count_if(traced.latency_ms.begin(), traced.latency_ms.end(),
                    [](double v) { return v >= 0; }));
  values["parser.self_us_per_req"] = Ratio(self[kParse] / 1e3, requests);
  values["render.self_us_per_req"] = Ratio(self[kRender] / 1e3, requests);
  int64_t bytes = 0;
  for (const std::string& t : traced.text) bytes += static_cast<int64_t>(t.size());
  values["render.bytes_per_req"] = Ratio(static_cast<double>(bytes), requests);
  const auto sum = [](const cqac::CatalogStats& a, const cqac::CatalogStats& b,
                      auto field) { return static_cast<double>(field(a) + field(b)); };
  const double sem_hits = sum(traced.stats_a, traced.stats_b,
                              [](const auto& s) { return s.semantic_hits; });
  const double sem_miss = sum(traced.stats_a, traced.stats_b,
                              [](const auto& s) { return s.semantic_misses; });
  const double plan_hits = sum(traced.stats_a, traced.stats_b,
                               [](const auto& s) { return s.plan_hits; });
  const double plans = sum(traced.stats_a, traced.stats_b,
                           [](const auto& s) { return s.plans_built; });
  const double c_hits = sum(traced.stats_a, traced.stats_b,
                            [](const auto& s) { return s.containment.hits; });
  const double c_miss = sum(traced.stats_a, traced.stats_b,
                            [](const auto& s) { return s.containment.misses; });
  values["catalog.semantic_hit_ratio"] = Ratio(sem_hits, sem_hits + sem_miss);
  values["catalog.plan_hit_ratio"] = Ratio(plan_hits, plan_hits + plans);
  values["catalog.containment_hit_ratio"] = Ratio(c_hits, c_hits + c_miss);
  values["catalog.rewrite_us_hit"] = Median(traced.hit_us);
  values["catalog.rewrite_ms_miss"] = Median(traced.miss_ms);
  values["catalog.build_ms"] = Median(traced.build_ms);
  values["server.overhead_us"] = Median(overhead_us);
  values["server.swap_ms"] = Median(swap_ms);
  values["server.rejected"] = static_cast<double>(summary.rejected);
  values["server.deadline_exceeded"] =
      static_cast<double>(summary.deadline_exceeded);
  values["trace.overhead_ratio"] =
      static_cast<double>(traced_ns) / static_cast<double>(plain_ns);
  CheckAttribution(spans, "served-mixed catalog path", &values, &report);
  LayerValues unit_check;
  CheckAttribution(unit_spans, "served-mixed re-driven misses", &unit_check,
                   &report);
  EmitLayerMetrics(values, &report);
  if (!spans.Write(args.work_dir + "/perfbench-served-mixed.spans.tsv") ||
      !unit_spans.Write(args.work_dir +
                        "/perfbench-served-mixed.redrive.spans.tsv")) {
    report.Note("could not write the span files");
  }
  return report;
}

}  // namespace perfbench
