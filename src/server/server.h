#ifndef CQAC_SERVER_SERVER_H_
#define CQAC_SERVER_SERVER_H_

// The long-lived rewrite service behind tools/cqacd (docs/SERVICE.md):
// accepts client connections on a Unix-domain and/or loopback TCP
// socket, speaks the length-prefixed frame protocol of
// server/protocol.h, and multiplexes every connection's requests onto
// one work-stealing ThreadPool, exactly as `cqacsh --serve-batch`
// schedules the jobs of one run.
//
// Lifecycle: Start() binds, listens, and returns; BeginDrain() (wired to
// SIGTERM in cqacd) stops accepting connections and new requests while
// every in-flight job runs to completion and delivers its response;
// Wait() blocks until the drain is complete and every thread is joined.
//
// Deadlines: a request's `deadline_ms` arms a watchdog that fires the
// job's CancellationToken (RewriteOptions::cancel), aborting the
// rewriter at its next work-unit boundary; the time from cancellation to
// job completion lands in the `server.cancel_drain_ns` histogram.
//
// Backpressure: when the number of admitted-but-unfinished jobs reaches
// ServerOptions::max_inflight, new requests are shed immediately with a
// structured `overloaded` response instead of queueing without bound —
// the client owns the retry policy.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/view_catalog.h"
#include "obs/metrics.h"
#include "runtime/batch_driver.h"
#include "runtime/cancellation.h"
#include "runtime/thread_pool.h"
#include "server/protocol.h"

namespace cqac {
namespace server {

struct ServerOptions {
  /// Listen on this Unix-domain socket when non-empty.  Any stale file
  /// at the path is unlinked before binding.
  std::string unix_socket_path;

  /// Listen on 127.0.0.1:<tcp_port> when >= 0; 0 picks an ephemeral
  /// port, readable from Server::tcp_port() after Start().  At least one
  /// of the two listeners must be configured.
  int tcp_port = -1;

  /// Worker threads of the job pool; 0 = hardware concurrency.
  int jobs = 0;

  /// Admission-control limit: requests arriving while this many jobs are
  /// admitted but unfinished receive `overloaded` responses.
  int64_t max_inflight = 256;

  /// Largest frame accepted from a client; longer length prefixes are a
  /// protocol error that closes the connection.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Deadline applied to requests that do not carry their own
  /// `deadline_ms`; 0 = no deadline.
  int64_t default_deadline_ms = 0;

  /// Per-job rewriting options.  `rewrite.jobs` is forced to 1 and
  /// `rewrite.cancel` is owned per job: like the batch driver, the
  /// server parallelizes ACROSS requests.
  RewriteOptions rewrite;

  /// Default for requests that do not carry their own `echo`.
  bool echo = false;

  /// Serve jobs through a CatalogRegistry (catalog/view_catalog.h): each
  /// distinct view set is compiled once into a shared ViewCatalog whose
  /// plans, Phase-1 memo, and semantic result cache
  /// persist across requests and connections.  Also enables the
  /// `set_catalog` request, which installs a default catalog that serves
  /// query-only requests.  Results are byte-identical either way.
  /// Behind `cqacd --catalog`.
  bool use_catalog = false;

  /// Startup default catalog: a job block of `view` directives compiled
  /// at Start() (requires use_catalog).  Behind `cqacd --catalog-views`.
  std::string catalog_views_text;

  /// Slow-request log sink: on a deadline-fired cancellation or request
  /// error the server appends the request's attribution header plus its
  /// flight-recorder excerpt as JSON lines (docs/OBSERVABILITY.md).
  /// Empty = disabled; "-" = stderr.  Behind `cqacd --slow-log`.
  std::string slow_log_path;
};

class Server {
 public:
  explicit Server(ServerOptions options);

  /// Drains and joins if the caller did not.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners and starts the accept, watchdog, and
  /// worker threads.  False + `error` on any socket failure.
  bool Start(std::string* error);

  /// The bound TCP port (meaningful after Start() when tcp_port >= 0).
  int tcp_port() const { return bound_tcp_port_; }

  /// Initiates graceful drain: stop accepting connections, answer new
  /// requests with `shutting_down`, let in-flight jobs finish and
  /// deliver.  Idempotent; safe from any thread (cqacd calls it from its
  /// signal-wait thread).
  void BeginDrain();

  /// Blocks until the drain completes: every connection closed, every
  /// job finished, every thread joined.
  void Wait();

  /// Aggregated job outcomes since Start, in the batch taxonomy.  cqacd
  /// prints this as the standard batch footer on exit.
  BatchSummary summary() const;

 private:
  /// One client connection.  Owned jointly by its reader thread and any
  /// in-flight job tasks via shared_ptr; the reader closes the fd only
  /// after the last job's response is written.
  struct Connection {
    int fd = -1;
    std::mutex write_mu;           // serializes response frames
    std::mutex mu;                 // guards inflight for cv
    std::condition_variable cv;
    int64_t inflight = 0;
  };

  /// Deadline/cancellation state of one admitted job.
  struct JobState {
    CancellationToken token;
    std::atomic<int64_t> cancel_ns{0};  // steady-clock ns of Cancel()
    std::atomic<bool> done{false};
  };

  struct DeadlineEntry {
    std::chrono::steady_clock::time_point deadline;
    std::shared_ptr<JobState> job;
    bool operator>(const DeadlineEntry& other) const {
      return deadline > other.deadline;
    }
  };

  void AcceptLoop();
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  void WatchdogLoop();
  void HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame);
  void HandleSetCatalog(const std::shared_ptr<Connection>& conn, uint64_t id,
                        const ServiceRequest& request);
  void HandleGetMetrics(const std::shared_ptr<Connection>& conn, uint64_t id,
                        const ServiceRequest& request);
  void HandleDumpTelemetry(const std::shared_ptr<Connection>& conn,
                           uint64_t id, const ServiceRequest& request);
  void RunJob(const std::shared_ptr<Connection>& conn, uint64_t id,
              const ServiceRequest& request,
              const std::shared_ptr<JobState>& job_state);
  void WriteResponse(Connection& conn, uint64_t id,
                     const ServiceResponse& response);
  void ArmDeadline(std::chrono::steady_clock::time_point deadline,
                   const std::shared_ptr<JobState>& job);
  void CountOutcome(JobOutcome outcome, const RewriteStats* stats);
  /// The sliding-window SLO latency histogram for `tier` (-1..1); the
  /// references are registry-owned and cached at construction.
  obs::WindowedHistogram& SloForTier(int tier);
  /// Appends one slow-request record (header + flight excerpt) to the
  /// configured slow log; no-op when none is configured.
  void EmitSlowRequest(const ServiceResponse& response, int64_t latency_ns,
                       int64_t deadline_ms);

  ServerOptions options_;
  std::unique_ptr<ThreadPool> pool_;

  /// Catalog mode (options_.use_catalog): the registry of compiled view
  /// sets, plus the default catalog serving query-only requests.  The
  /// default is swapped atomically under catalog_mu_ by `set_catalog`;
  /// in-flight jobs keep their shared_ptr to the catalog they started on.
  std::unique_ptr<CatalogRegistry> registry_;
  mutable std::mutex catalog_mu_;
  std::shared_ptr<ViewCatalog> default_catalog_;

  std::vector<int> listen_fds_;
  int bound_tcp_port_ = -1;
  int drain_pipe_[2] = {-1, -1};

  std::thread accept_thread_;
  std::thread watchdog_thread_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> joined_{false};
  std::atomic<int64_t> inflight_jobs_{0};

  mutable std::mutex conns_mu_;
  std::condition_variable conns_cv_;
  std::set<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> conn_threads_;

  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      std::greater<DeadlineEntry>>
      deadlines_;
  bool watchdog_stop_ = false;

  mutable std::mutex summary_mu_;
  BatchSummary summary_;

  /// Per-tier sliding-window latency histograms (index 0 = tier "none",
  /// then tiers 0..1), registered eagerly so get_metrics lists them
  /// before traffic arrives.
  obs::WindowedHistogram* slo_latency_[3] = {nullptr, nullptr, nullptr};

  /// Slow-request log sink (options_.slow_log_path); lines are whole
  /// JSON objects appended under slow_log_mu_.
  std::mutex slow_log_mu_;
  std::unique_ptr<std::ostream> slow_log_owned_;
  std::ostream* slow_log_ = nullptr;
};

}  // namespace server
}  // namespace cqac

#endif  // CQAC_SERVER_SERVER_H_
