// The fault-tolerant batch scheduler (DESIGN.md §16).
//
// The repository's one batch system: the paper's PBS + Maui pair (Section
// 4.1) and its Section 5 rolling upgrade, "a 'reinstall cluster' job" that
// does not disturb running applications. The CERN and BNL large-farm
// reports (PAPERS.md) both say the hard part of operating 1000+ nodes is
// keeping the batch system correct *through* node churn, so the queue is
// durable and the node lifecycle explicit:
//
//   Durability. Every job and exceptional-node state transition is a SQL
//   statement against the frontend Database, so the queue rides the WAL,
//   group commit, zero-pause snapshots, crash recovery (§11: recovered
//   state byte-identical to shadow replay), and WAL-shipping replication
//   (§12: a promoted follower resumes scheduling from the exact committed
//   prefix) with no scheduler-specific persistence code. Three tables:
//     sched_jobs        live jobs only (queued + running); finished jobs
//                       leave the table, bounding its size by in-flight work
//     sched_accounting  append-only terminal records, PK = job id — the
//                       exactly-once ledger (see accounting.hpp)
//     sched_nodes       nodes in an exceptional lifecycle state (draining /
//                       down / reinstalling / pending-reinstall); healthy
//                       idle-vs-allocated is derivable from sched_jobs
//
//   Node lifecycle. allocate -> drain -> down -> reinstall -> rejoin is an
//   explicit state machine. kNodeDown (from the health tree, via a durable
//   trigger) or a kNodeState off/failed transition requeues the victim's
//   job with a per-job retry budget and support::BackoffPolicy spacing; a
//   reinstall request *drains* a busy node (the job keeps running; the
//   reinstall starts when it ends) instead of preempting — Section 5's "as
//   not to disturb any running applications" — and concurrent reinstalls
//   are capped per wave, gated on the kHealthSummary alive fraction so an
//   upgrade cannot take the cluster below a health floor.
//
//   Policy. EASY backfill: the head-of-queue job gets a shadow reservation
//   (earliest time enough nodes will have freed); later jobs may start now
//   only if they cannot delay that reservation. Two aging valves keep the
//   head from starving behind churn: past `starvation_bound` seconds of
//   head age backfill stops entirely (strict FIFO), and past `shrink_after`
//   a moldable job (min_nodes > 0) starts shrunk on what is idle rather
//   than blocking the queue.
//
// Deployment modes: standalone over a bare Database + Simulator (benches,
// replication tests — the caller drives node_up/node_down), or attach()ed
// to a live cluster::Cluster, which wires launch/release/reinstall hooks to
// real nodes, registers durable triggers, and follows kNodeState.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "batch/accounting.hpp"
#include "batch/job.hpp"
#include "netsim/engine.hpp"
#include "sqldb/engine.hpp"
#include "support/backoff.hpp"
#include "support/rng.hpp"

namespace rocks::cluster {
class Cluster;
}
namespace rocks::events {
class EventBus;
}

namespace rocks::batch {

/// Where a registered node is in the allocate/drain/down/reinstall/rejoin
/// state machine. kIdle/kBusy are derivable (from sched_jobs.assigned) and
/// never persisted; the other four are rows in sched_nodes.
enum class NodeLife {
  kIdle,              // in service, no job
  kBusy,              // in service, owned by one running job
  kDraining,          // reinstall requested, job still running
  kDown,              // declared dead; jobs were requeued
  kReinstalling,      // reinstall in flight, waiting for the node to rejoin
  kPendingReinstall,  // drained but waiting for a wave slot / health gate
};

[[nodiscard]] std::string_view node_life_name(NodeLife life);
[[nodiscard]] bool parse_node_life(std::string_view name, NodeLife& out);

struct SchedulerConfig {
  /// Queue entries examined past the head per backfill pass.
  std::size_t backfill_depth = 64;
  /// Head-of-queue age (seconds) past which backfill stops entirely — the
  /// no-starvation bound: after it, only completions and the head itself
  /// consume freed nodes, so the head's start time is monotone.
  double starvation_bound = 3600.0;
  /// Head age past which a moldable job (min_nodes > 0) starts shrunk on
  /// the idle set instead of waiting for its full width.
  double shrink_after = 600.0;
  /// Spacing between a job's requeue and its next start eligibility.
  support::BackoffPolicy requeue_backoff{5.0, 120.0, 0.25};
  /// Max nodes reinstalling concurrently (one upgrade wave).
  std::size_t reinstall_wave = 4;
  /// New reinstall waves pause while alive/total (from health_report) is
  /// below this fraction. 0 disables the gate.
  double min_healthy_fraction = 0.0;
  std::uint64_t rng_seed = 0x5eedULL;
};

/// How the scheduler acts on the world. Unset hooks are no-ops, which is
/// exactly right for the standalone/bench mode where nodes are synthetic.
struct SchedulerHooks {
  std::function<void(const std::string& host, JobId id)> launch;
  std::function<void(const std::string& host, JobId id)> release;
  std::function<void(const std::string& host)> reinstall;
};

struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t started = 0;     // start events, requeue restarts included
  std::uint64_t backfilled = 0;  // subset of started that jumped the head
  std::uint64_t shrunk = 0;      // subset of started below full width
  std::uint64_t requeued = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t cycles = 0;
  std::uint64_t drains_started = 0;       // busy nodes put into kDraining
  std::uint64_t reinstalls_started = 0;   // reinstall hook invocations
  std::uint64_t reinstalls_finished = 0;  // rejoins after reinstall
  std::uint64_t stale_rows_repaired = 0;  // crash landed between the
                                          // accounting INSERT and the
                                          // sched_jobs DELETE
};

/// One live job as the scheduler sees it (qstat surface).
struct JobView {
  JobId id = 0;
  std::string name;
  JobState state = JobState::kQueued;
  std::size_t want = 0;
  std::size_t min_want = 0;
  int retries = 0;
  double submitted = 0.0;
  double started = -1.0;
  double deadline = -1.0;
  std::vector<std::string> assigned;
};

class Scheduler {
 public:
  /// Binds to a (possibly freshly recovered) database: creates the three
  /// tables when absent, loads every persisted job and exceptional node
  /// state, repairs rows a crash left half-finished, and recovers the job-id
  /// cursor from max(live id, accounting id). Does NOT start anything:
  /// register nodes (register_node / attach), then call resume().
  Scheduler(sqldb::Database& db, netsim::Simulator& sim, SchedulerConfig config = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Wires this scheduler to a live cluster: registers every compute node
  /// (down when not running), installs launch/release/reinstall hooks onto
  /// the real nodes, follows kNodeState transitions on the bus, and
  /// registers durable triggers — kNodeDown -> requeue that node's jobs,
  /// kHealthSummary -> the upgrade-wave health gate. Idempotent against
  /// trigger rows a recovered database already carries. The cluster must
  /// share the Simulator passed at construction and must outlive this.
  void attach(cluster::Cluster& cluster);

  /// Standalone wiring (benches, replication tests): action hooks and an
  /// optional event bus without a full cluster. attach() supersedes both.
  void set_hooks(SchedulerHooks hooks);
  void set_event_bus(events::EventBus* bus);

  /// Completes recovery after nodes are registered: reconciles loaded jobs
  /// against node health (running jobs on healthy nodes re-arm their
  /// completion; jobs that lost a node requeue under the retry budget) and
  /// restarts interrupted reinstalls. Call once, after register_node /
  /// attach; a no-op for a fresh database.
  void resume();

  // --- workload -------------------------------------------------------------
  /// qsub. The job is durably queued when this returns; scheduling happens
  /// on the next cycle (a zero-delay simulator event).
  JobId submit(const JobSpec& spec);
  /// Bulk qsub: one multi-row INSERT per ~512 jobs — the 1M-job drill would
  /// otherwise pay a parse + WAL append per row. Returns the first id;
  /// ids are consecutive.
  JobId submit_batch(const std::vector<JobSpec>& specs);
  /// qdel, queued or running: releases nodes and records kCancelled in the
  /// accounting table. False when the id is unknown or already terminal.
  bool cancel(JobId id);

  // --- node lifecycle --------------------------------------------------------
  /// Introduces a node to the allocator (idle). Re-registering is a no-op.
  void register_node(const std::string& host);
  /// Node left service (health tree, kNodeState off/failed, or the caller's
  /// own knowledge). Requeues the node's job under its retry budget with
  /// backoff. Idempotent.
  void node_down(const std::string& host);
  /// Node (re)joined service. Completes an in-flight reinstall, revives a
  /// down node, or registers an unknown one. Idempotent.
  void node_up(const std::string& host);
  /// Rolling-upgrade request: drains a busy node (no preemption), queues
  /// behind the wave cap + health gate when idle. No-op when the node is
  /// already down/draining/reinstalling.
  void request_reinstall(const std::string& host);
  /// Section 5's "reinstall cluster": request_reinstall on every node.
  void request_reinstall_all();
  /// Health-tree input for the wave gate (alive nodes / total). attach()
  /// feeds this from kHealthSummary; standalone callers may too.
  void health_report(std::size_t alive, std::size_t total);

  // --- driving ---------------------------------------------------------------
  /// Requests a scheduling cycle on the next simulator step (coalesced).
  void kick();
  /// Runs one scheduling cycle synchronously.
  void schedule_now();
  /// Runs the simulator until every submitted job reaches the accounting
  /// table. Jobs that can never start (every node permanently gone, no
  /// event pending that could change that) are cancelled "unschedulable"
  /// instead of hanging. Past `max_seconds` of simulated time, still-queued
  /// jobs are likewise cancelled (an attached cluster's recurring events
  /// would otherwise keep the simulator alive forever).
  void drain(double max_seconds = 30.0 * 86400.0);

  // --- observability ---------------------------------------------------------
  [[nodiscard]] std::size_t queued_count() const { return queue_.size(); }
  [[nodiscard]] std::size_t running_count() const;
  [[nodiscard]] std::size_t live_count() const { return jobs_.size(); }
  [[nodiscard]] std::size_t idle_nodes() const { return idle_.size(); }
  [[nodiscard]] std::size_t registered_nodes() const { return nodes_.size(); }
  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }
  [[nodiscard]] std::optional<JobView> job(JobId id) const;
  [[nodiscard]] std::optional<NodeLife> node_life(const std::string& host) const;
  /// qstat-style table of live jobs (newest `limit`).
  [[nodiscard]] std::string qstat(std::size_t limit = 20) const;
  [[nodiscard]] sqldb::Database& db() { return db_; }

 private:
  struct ActiveJob {
    JobId id = 0;
    std::string name;
    std::size_t want = 1;
    std::size_t min_want = 1;  // normalized: spec.min_nodes or want
    double walltime = 0.0;
    int max_retries = 0;
    JobState state = JobState::kQueued;
    int retries = 0;
    double submitted = 0.0;
    double started = -1.0;
    double deadline = -1.0;
    double not_before = 0.0;  // requeue backoff: ineligible before this
    std::vector<std::string> assigned;
    /// Bumped on every (re)start; the completion event captures it so a
    /// completion armed for a run that was since requeued is ignored.
    std::uint64_t run_epoch = 0;
    netsim::EventId completion = 0;
    std::multimap<double, std::size_t>::iterator shadow_entry;  // valid iff running
  };

  struct NodeInfo {
    NodeLife life = NodeLife::kIdle;
    JobId job = 0;  // owner while kBusy/kDraining
  };

  // Persistence (every transition is one SQL statement; see file comment).
  void persist_submit_rows(const std::vector<const ActiveJob*>& jobs);
  void persist_start(const ActiveJob& job);
  void persist_requeue(const ActiveJob& job);
  void persist_node(const std::string& host, NodeLife life, bool existed);
  void persist_node_delete(const std::string& host);
  void load();

  // Policy.
  void schedule_cycle();
  void start_job(ActiveJob& job, std::size_t width, bool backfill);
  void arm_completion(ActiveJob& job);
  void on_completion(JobId id, std::uint64_t run_epoch);
  /// Terminal path: accounting INSERT, crash point, live-row DELETE.
  void finish(ActiveJob& job, JobState state, const std::string& reason);
  void requeue(ActiveJob& job);
  void release_assigned(ActiveJob& job);

  // Node machinery.
  void set_life(const std::string& host, NodeInfo& info, NodeLife life);
  void begin_reinstall(const std::string& host, NodeInfo& info);
  /// Starts the reinstall if a wave slot is free and the health gate is
  /// open; parks the node in kPendingReinstall otherwise.
  void begin_or_queue_reinstall(const std::string& host, NodeInfo& info);
  void promote_pending_reinstalls();
  [[nodiscard]] bool health_gate_open() const;

  /// Cancels a running job's completion event, removes its shadow entry,
  /// and releases its healthy nodes — shared by requeue, cancel, and the
  /// budget-exhausted path.
  void stop_running(ActiveJob& job);

  void arm_wake(double at);
  void publish_job(const ActiveJob& job, std::string_view detail);
  void publish_node(const std::string& host, std::string_view detail);

  sqldb::Database& db_;
  // Every persistence statement is prepared once and executed with bound
  // values.
  sqldb::Database::PreparedStatement submit_job_, delete_job_, start_job_, requeue_job_,
      update_node_, insert_node_, delete_node_;
  netsim::Simulator& sim_;
  SchedulerConfig config_;
  SchedulerHooks hooks_;
  events::EventBus* bus_ = nullptr;       // attach() / tests
  cluster::Cluster* cluster_ = nullptr;   // attach()
  std::size_t bus_subscription_ = 0;

  // Publishers (bus callbacks, trigger actions) may re-enter the scheduler
  // while it holds the lock and is publishing — hence recursive.
  mutable std::recursive_mutex mutex_;

  std::map<JobId, ActiveJob> jobs_;   // every live (queued or running) job
  std::set<JobId> queue_;             // id order == submit order == FIFO
  std::map<std::string, NodeInfo> nodes_;
  std::set<std::string> idle_;
  std::set<std::string> pending_reinstall_;  // the kPendingReinstall queue
  std::size_t reinstalling_ = 0;             // nodes currently kReinstalling
  /// Exceptional states loaded from sched_nodes, applied as hosts register.
  std::map<std::string, NodeLife> loaded_nodes_;
  /// deadline -> node count of each running job: the EASY shadow-time walk
  /// is an O(k) prefix scan of this instead of an O(R log R) sort per cycle.
  std::multimap<double, std::size_t> running_by_deadline_;

  JobId next_id_ = 1;
  Rng rng_;
  SchedulerStats stats_;
  std::size_t healthy_alive_ = 0, healthy_total_ = 0;  // last health_report

  bool cycle_pending_ = false;  // a zero-delay cycle event is queued
  netsim::EventId wake_event_ = 0;
  double wake_time_ = -1.0;
  /// Shared with every scheduled lambda: failover destroys the scheduler
  /// while its events are still queued; they must become no-ops, not UAFs.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace rocks::batch
