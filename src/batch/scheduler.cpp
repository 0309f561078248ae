#include "batch/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "cluster/cluster.hpp"
#include "events/bus.hpp"
#include "events/trigger.hpp"
#include "support/crashpoint.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace rocks::batch {

using strings::cat;

namespace {

constexpr double kEpsilon = 1e-9;  // shadow-window comparisons

sqldb::Value id_value(JobId id) { return sqldb::Value(static_cast<std::int64_t>(id)); }

}  // namespace

std::string_view node_life_name(NodeLife life) {
  switch (life) {
    case NodeLife::kIdle: return "idle";
    case NodeLife::kBusy: return "busy";
    case NodeLife::kDraining: return "drain";
    case NodeLife::kDown: return "down";
    case NodeLife::kReinstalling: return "reinstall";
    case NodeLife::kPendingReinstall: return "pending";
  }
  return "?";
}

bool parse_node_life(std::string_view name, NodeLife& out) {
  for (NodeLife life : {NodeLife::kIdle, NodeLife::kBusy, NodeLife::kDraining,
                        NodeLife::kDown, NodeLife::kReinstalling,
                        NodeLife::kPendingReinstall}) {
    if (node_life_name(life) == name) {
      out = life;
      return true;
    }
  }
  return false;
}

Scheduler::Scheduler(sqldb::Database& db, netsim::Simulator& sim, SchedulerConfig config)
    : db_(db),
      submit_job_(db.prepare(
          "INSERT INTO sched_jobs (id, name, want, min_want, walltime, max_retries, state, "
          "retries, submitted, started, deadline, not_before, assigned) "
          "VALUES (?, ?, ?, ?, ?, ?, 'Q', ?, ?, -1.0, -1.0, 0.0, '')")),
      delete_job_(db.prepare("DELETE FROM sched_jobs WHERE id = ?")),
      start_job_(db.prepare(
          "UPDATE sched_jobs SET state = 'R', started = ?, deadline = ?, assigned = ? "
          "WHERE id = ?")),
      requeue_job_(db.prepare(
          "UPDATE sched_jobs SET state = 'Q', retries = ?, not_before = ?, started = -1.0, "
          "deadline = -1.0, assigned = '' WHERE id = ?")),
      update_node_(db.prepare("UPDATE sched_nodes SET state = ? WHERE host = ?")),
      insert_node_(db.prepare("INSERT INTO sched_nodes (host, state) VALUES (?, ?)")),
      delete_node_(db.prepare("DELETE FROM sched_nodes WHERE host = ?")),
      sim_(sim),
      config_(std::move(config)),
      rng_(config_.rng_seed) {
  Accounting::ensure_schema(db_);
  if (!db_.has_table("sched_jobs")) {
    db_.execute(
        "CREATE TABLE sched_jobs ("
        "id INT PRIMARY KEY, "
        "name TEXT, want INT, min_want INT, walltime REAL, max_retries INT, "
        "state TEXT, retries INT, submitted REAL, started REAL, "
        "deadline REAL, not_before REAL, assigned TEXT)");
  }
  if (!db_.has_table("sched_nodes")) {
    db_.execute("CREATE TABLE sched_nodes (host TEXT PRIMARY KEY, state TEXT)");
  }
  load();
}

Scheduler::~Scheduler() {
  *alive_ = false;
  if (bus_ != nullptr && bus_subscription_ != 0) bus_->unsubscribe(bus_subscription_);
}

void Scheduler::set_hooks(SchedulerHooks hooks) {
  std::lock_guard lock(mutex_);
  hooks_ = std::move(hooks);
}

void Scheduler::set_event_bus(events::EventBus* bus) {
  std::lock_guard lock(mutex_);
  bus_ = bus;
}

// --- recovery ----------------------------------------------------------------

void Scheduler::load() {
  // The accounting table is the truth about "ended": a live row whose id
  // already has a terminal record is the footprint of a crash between the
  // accounting INSERT and the live-row DELETE — repair by finishing the
  // delete, never by finishing the job twice.
  std::unordered_set<std::uint64_t> ended;
  {
    const sqldb::ResultSet rows = db_.execute("SELECT id FROM sched_accounting");
    ended.reserve(rows.row_count());
    const std::size_t id_col = rows.row_count() ? rows.column_index("id") : 0;
    for (std::size_t i = 0; i < rows.row_count(); ++i) {
      const auto id = static_cast<std::uint64_t>(rows.at(i, id_col).as_int());
      ended.insert(id);
      next_id_ = std::max(next_id_, id + 1);
    }
  }

  const sqldb::ResultSet rows = db_.execute(
      "SELECT id, name, want, min_want, walltime, max_retries, state, retries, "
      "submitted, started, deadline, not_before, assigned FROM sched_jobs");
  const std::size_t n = rows.row_count();
  std::vector<std::size_t> col(13);
  if (n != 0) {
    const char* names[] = {"id",        "name",     "want",      "min_want",
                           "walltime",  "max_retries", "state",  "retries",
                           "submitted", "started",  "deadline",  "not_before",
                           "assigned"};
    for (std::size_t c = 0; c < 13; ++c) col[c] = rows.column_index(names[c]);
  }
  std::vector<JobId> stale;
  for (std::size_t i = 0; i < n; ++i) {
    ActiveJob job;
    job.id = static_cast<JobId>(rows.at(i, col[0]).as_int());
    next_id_ = std::max(next_id_, job.id + 1);
    if (ended.contains(job.id)) {
      stale.push_back(job.id);
      continue;
    }
    job.name = rows.at(i, col[1]).as_text();
    job.want = static_cast<std::size_t>(rows.at(i, col[2]).as_int());
    job.min_want = static_cast<std::size_t>(rows.at(i, col[3]).as_int());
    job.walltime = rows.at(i, col[4]).as_real();
    job.max_retries = static_cast<int>(rows.at(i, col[5]).as_int());
    job.state = rows.at(i, col[6]).as_text() == "R" ? JobState::kRunning : JobState::kQueued;
    job.retries = static_cast<int>(rows.at(i, col[7]).as_int());
    job.submitted = rows.at(i, col[8]).as_real();
    job.started = rows.at(i, col[9]).as_real();
    job.deadline = rows.at(i, col[10]).as_real();
    job.not_before = rows.at(i, col[11]).as_real();
    job.assigned = strings::split_ws(rows.at(i, col[12]).as_text());
    if (job.state == JobState::kQueued) queue_.insert(job.id);
    jobs_.emplace(job.id, std::move(job));
  }
  for (JobId id : stale) {
    db_.execute(*delete_job_, {id_value(id)});
    ++stats_.stale_rows_repaired;
  }

  const sqldb::ResultSet node_rows = db_.execute("SELECT host, state FROM sched_nodes");
  for (std::size_t i = 0; i < node_rows.row_count(); ++i) {
    NodeLife life{};
    if (parse_node_life(node_rows.at(i, "state").as_text(), life))
      loaded_nodes_.emplace(node_rows.at(i, "host").as_text(), life);
  }
}

void Scheduler::resume() {
  std::lock_guard lock(mutex_);
  const double now = sim_.now();

  // Pass 1: reconcile running jobs against the registered node set. A job
  // whose every node is still in service picks up where it left off (its
  // completion re-arms at the original deadline, or immediately if that has
  // passed); a job that lost a node requeues under its retry budget.
  std::vector<JobId> running;
  for (auto& [id, job] : jobs_)
    if (job.state == JobState::kRunning) running.push_back(id);
  for (JobId id : running) {
    ActiveJob& job = jobs_.at(id);
    bool whole = !job.assigned.empty();
    for (const std::string& host : job.assigned) {
      const auto it = nodes_.find(host);
      if (it == nodes_.end() ||
          (it->second.life != NodeLife::kIdle && it->second.life != NodeLife::kDraining)) {
        whole = false;
        break;
      }
      if (it->second.job != 0 && it->second.job != id) whole = false;
    }
    if (whole) {
      for (const std::string& host : job.assigned) {
        NodeInfo& info = nodes_.at(host);
        info.job = id;
        if (info.life == NodeLife::kIdle) {
          info.life = NodeLife::kBusy;
          idle_.erase(host);
        }
      }
      job.shadow_entry = running_by_deadline_.emplace(job.deadline, job.assigned.size());
      arm_completion(job);
    } else if (job.retries >= job.max_retries) {
      finish(job, JobState::kCancelled, "retry budget exhausted");
    } else {
      // Not stop_running(): nothing was claimed, there is no completion
      // event, and the nodes it named may not even exist anymore.
      ++job.retries;
      ++job.run_epoch;
      job.state = JobState::kQueued;
      job.started = -1.0;
      job.deadline = -1.0;
      job.not_before = now + config_.requeue_backoff.delay(job.retries, rng_);
      job.assigned.clear();
      persist_requeue(job);
      queue_.insert(job.id);
      publish_job(job, "requeue");
      ++stats_.requeued;
      arm_wake(job.not_before);
    }
  }

  // Pass 2: restart interrupted node lifecycles. A drained node whose job
  // is gone moves on to its reinstall; a node recorded reinstalling or down
  // that is in fact running again rejoins.
  std::vector<std::string> hosts;
  hosts.reserve(nodes_.size());
  for (const auto& [host, info] : nodes_) hosts.push_back(host);
  for (const std::string& host : hosts) {
    NodeInfo& info = nodes_.at(host);
    switch (info.life) {
      case NodeLife::kDraining:
        if (info.job == 0) begin_or_queue_reinstall(host, info);
        break;
      case NodeLife::kReinstalling:
      case NodeLife::kDown:
        if (cluster_ != nullptr) {
          cluster::Node* node = cluster_->node(host);
          if (node != nullptr && node->is_running()) node_up(host);
        }
        break;
      default:
        break;
    }
  }
  promote_pending_reinstalls();
  kick();
}

// --- workload ----------------------------------------------------------------

JobId Scheduler::submit(const JobSpec& spec) {
  return submit_batch(std::vector<JobSpec>{spec});
}

JobId Scheduler::submit_batch(const std::vector<JobSpec>& specs) {
  require_state(!specs.empty(), "submit_batch: empty batch");
  std::lock_guard lock(mutex_);
  const double now = sim_.now();
  const JobId first = next_id_;
  std::vector<const ActiveJob*> batch;
  batch.reserve(specs.size());
  for (const JobSpec& spec : specs) {
    ActiveJob job;
    job.id = next_id_++;
    job.name = spec.name;
    job.want = std::max<std::size_t>(spec.nodes, 1);
    job.min_want = spec.min_nodes == 0 ? job.want : std::min(spec.min_nodes, job.want);
    job.walltime = spec.walltime_seconds;
    job.max_retries = spec.max_retries;
    job.submitted = now;
    const JobId id = job.id;
    auto [it, inserted] = jobs_.emplace(id, std::move(job));
    queue_.insert(id);
    batch.push_back(&it->second);
    ++stats_.submitted;
  }
  persist_submit_rows(batch);
  if (bus_ != nullptr)
    for (const ActiveJob* job : batch) publish_job(*job, "queued");
  kick();
  return first;
}

bool Scheduler::cancel(JobId id) {
  std::lock_guard lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  ActiveJob& job = it->second;
  if (job.state == JobState::kRunning) stop_running(job);
  finish(job, JobState::kCancelled, "qdel");
  return true;
}

// --- node lifecycle ----------------------------------------------------------

void Scheduler::register_node(const std::string& host) {
  std::lock_guard lock(mutex_);
  if (nodes_.contains(host)) return;
  NodeInfo info;
  const auto loaded = loaded_nodes_.find(host);
  if (loaded != loaded_nodes_.end()) info.life = loaded->second;
  if (info.life == NodeLife::kReinstalling) ++reinstalling_;
  if (info.life == NodeLife::kPendingReinstall) pending_reinstall_.insert(host);
  if (info.life == NodeLife::kIdle) idle_.insert(host);
  nodes_.emplace(host, info);
}

void Scheduler::node_down(const std::string& host) {
  std::lock_guard lock(mutex_);
  const auto it = nodes_.find(host);
  if (it == nodes_.end()) return;
  NodeInfo& info = it->second;
  if (info.life == NodeLife::kDown) return;
  // A reinstalling node going dark IS the reinstall (shoot = power off +
  // on), not a failure; a parked one will be power-cycled by its wave
  // anyway. Both rejoin through node_up, so don't demote them to kDown.
  if (info.life == NodeLife::kReinstalling || info.life == NodeLife::kPendingReinstall)
    return;
  const JobId owner = info.job;
  info.job = 0;
  idle_.erase(host);
  set_life(host, info, NodeLife::kDown);
  publish_node(host, "down");
  if (owner != 0) {
    const auto jit = jobs_.find(owner);
    if (jit != jobs_.end() && jit->second.state == JobState::kRunning) {
      ActiveJob& job = jit->second;
      if (job.retries >= job.max_retries) {
        stop_running(job);
        finish(job, JobState::kCancelled, "retry budget exhausted");
      } else {
        requeue(job);
      }
    }
  }
  kick();
}

void Scheduler::node_up(const std::string& host) {
  std::lock_guard lock(mutex_);
  const auto it = nodes_.find(host);
  if (it == nodes_.end()) {
    // A node we never met joined service: adopt it.
    NodeInfo info;
    nodes_.emplace(host, info);
    idle_.insert(host);
    kick();
    return;
  }
  NodeInfo& info = it->second;
  switch (info.life) {
    case NodeLife::kReinstalling:
      ++stats_.reinstalls_finished;
      [[fallthrough]];
    case NodeLife::kDown:
      set_life(host, info, NodeLife::kIdle);
      idle_.insert(host);
      publish_node(host, "rejoin");
      promote_pending_reinstalls();
      kick();
      break;
    default:
      break;  // busy / idle / draining / pending: nothing to do
  }
}

void Scheduler::request_reinstall(const std::string& host) {
  std::lock_guard lock(mutex_);
  const auto it = nodes_.find(host);
  if (it == nodes_.end()) return;
  NodeInfo& info = it->second;
  switch (info.life) {
    case NodeLife::kBusy:
      // Drain, never preempt: the running job keeps its nodes; the
      // reinstall begins when it finishes (release_assigned advances it).
      set_life(host, info, NodeLife::kDraining);
      publish_node(host, "drain");
      ++stats_.drains_started;
      break;
    case NodeLife::kIdle:
      idle_.erase(host);
      begin_or_queue_reinstall(host, info);
      break;
    default:
      break;  // already draining / down / reinstalling / pending
  }
}

void Scheduler::request_reinstall_all() {
  std::vector<std::string> hosts;
  {
    std::lock_guard lock(mutex_);
    hosts.reserve(nodes_.size());
    for (const auto& [host, info] : nodes_) hosts.push_back(host);
  }
  for (const std::string& host : hosts) request_reinstall(host);
}

void Scheduler::health_report(std::size_t alive, std::size_t total) {
  std::lock_guard lock(mutex_);
  healthy_alive_ = alive;
  healthy_total_ = total;
  if (health_gate_open()) {
    promote_pending_reinstalls();
    kick();
  }
}

bool Scheduler::health_gate_open() const {
  if (config_.min_healthy_fraction <= 0.0 || healthy_total_ == 0) return true;
  return static_cast<double>(healthy_alive_) >=
         config_.min_healthy_fraction * static_cast<double>(healthy_total_);
}

void Scheduler::begin_or_queue_reinstall(const std::string& host, NodeInfo& info) {
  if (reinstalling_ < config_.reinstall_wave && health_gate_open()) {
    begin_reinstall(host, info);
  } else {
    set_life(host, info, NodeLife::kPendingReinstall);
    publish_node(host, "pending");
  }
}

void Scheduler::begin_reinstall(const std::string& host, NodeInfo& info) {
  set_life(host, info, NodeLife::kReinstalling);
  publish_node(host, "reinstall");
  ++stats_.reinstalls_started;
  if (hooks_.reinstall) hooks_.reinstall(host);
}

void Scheduler::promote_pending_reinstalls() {
  while (reinstalling_ < config_.reinstall_wave && health_gate_open() &&
         !pending_reinstall_.empty()) {
    const std::string host = *pending_reinstall_.begin();
    begin_reinstall(host, nodes_.at(host));
  }
}

void Scheduler::set_life(const std::string& host, NodeInfo& info, NodeLife life) {
  if (info.life == life) return;
  const auto persisted = [](NodeLife l) {
    return l != NodeLife::kIdle && l != NodeLife::kBusy;
  };
  if (info.life == NodeLife::kReinstalling) --reinstalling_;
  if (life == NodeLife::kReinstalling) ++reinstalling_;
  if (info.life == NodeLife::kPendingReinstall) pending_reinstall_.erase(host);
  if (life == NodeLife::kPendingReinstall) pending_reinstall_.insert(host);
  const bool was = persisted(info.life);
  const bool is = persisted(life);
  info.life = life;
  if (was && is)
    persist_node(host, life, /*existed=*/true);
  else if (!was && is)
    persist_node(host, life, /*existed=*/false);
  else if (was && !is)
    persist_node_delete(host);
}

// --- policy ------------------------------------------------------------------

void Scheduler::kick() {
  if (cycle_pending_) return;
  cycle_pending_ = true;
  sim_.schedule(0.0, [this, alive = alive_] {
    if (!*alive) return;
    std::lock_guard lock(mutex_);
    cycle_pending_ = false;
    schedule_cycle();
  });
}

void Scheduler::schedule_now() {
  std::lock_guard lock(mutex_);
  schedule_cycle();
}

void Scheduler::arm_wake(double at) {
  const double now = sim_.now();
  if (at <= now) {
    kick();
    return;
  }
  if (wake_event_ != 0 && wake_time_ >= 0.0 && wake_time_ <= at) return;
  if (wake_event_ != 0) sim_.cancel(wake_event_);
  wake_time_ = at;
  wake_event_ = sim_.schedule_at(at, [this, alive = alive_] {
    if (!*alive) return;
    std::lock_guard lock(mutex_);
    wake_event_ = 0;
    wake_time_ = -1.0;
    schedule_cycle();
  });
}

void Scheduler::schedule_cycle() {
  ++stats_.cycles;
  const double now = sim_.now();

  // Phase 1: start heads in FIFO order while they fit; past shrink_after a
  // moldable head starts on what is idle. Jobs inside a requeue-backoff
  // window are not contenders yet (a wake is armed for them).
  JobId head_id = 0;
  for (;;) {
    bool started = false;
    head_id = 0;
    for (JobId id : queue_) {
      ActiveJob& job = jobs_.at(id);
      if (job.not_before > now) {
        arm_wake(job.not_before);
        continue;
      }
      if (idle_.size() >= job.want) {
        start_job(job, job.want, /*backfill=*/false);
        started = true;
        break;  // queue_ changed: rescan from the front
      }
      if (job.min_want < job.want) {
        if (now - job.submitted >= config_.shrink_after && idle_.size() >= job.min_want) {
          start_job(job, std::min(idle_.size(), job.want), /*backfill=*/false);
          started = true;
          break;
        }
        arm_wake(job.submitted + config_.shrink_after);
      }
      head_id = id;  // the blocked head: phase 2 backfills behind it
      break;
    }
    if (!started) break;
  }
  if (head_id == 0 || idle_.empty()) return;

  // Phase 2: EASY backfill. The blocked head holds a shadow reservation at
  // the earliest time enough nodes will have freed; later jobs start now
  // only if they end before the shadow or fit in the nodes the head will
  // leave over ("extra") — either way the head's start time cannot move,
  // which is the no-starvation guarantee. Past starvation_bound the valve
  // closes entirely and freed nodes accumulate for the head alone.
  const ActiveJob& head = jobs_.at(head_id);
  if (now - head.submitted >= config_.starvation_bound) return;
  double shadow = std::numeric_limits<double>::infinity();
  std::size_t extra = 0;
  {
    std::size_t avail = idle_.size();
    for (const auto& [deadline, count] : running_by_deadline_) {
      avail += count;
      if (avail >= head.want) {
        shadow = deadline;
        extra = avail - head.want;
        break;
      }
    }
    // shadow stays infinite when even a fully drained cluster cannot seat
    // the head (it needs nodes that do not exist yet): backfill freely —
    // nothing can delay a start that cannot happen.
  }
  std::size_t idle_left = idle_.size();
  std::size_t examined = 0;
  std::vector<JobId> starts;
  for (auto it = queue_.upper_bound(head_id);
       it != queue_.end() && examined < config_.backfill_depth && idle_left > 0; ++it) {
    ++examined;
    ActiveJob& cand = jobs_.at(*it);
    if (cand.not_before > now) {
      arm_wake(cand.not_before);
      continue;
    }
    if (cand.want > idle_left) continue;
    if (now + cand.walltime > shadow + kEpsilon) {
      if (cand.want > extra) continue;
      extra -= cand.want;
    }
    idle_left -= cand.want;
    starts.push_back(*it);
  }
  for (JobId id : starts) start_job(jobs_.at(id), jobs_.at(id).want, /*backfill=*/true);
}

void Scheduler::start_job(ActiveJob& job, std::size_t width, bool backfill) {
  const double now = sim_.now();
  job.assigned.clear();
  job.assigned.reserve(width);
  auto it = idle_.begin();
  for (std::size_t i = 0; i < width; ++i) {
    job.assigned.push_back(*it);
    it = idle_.erase(it);
  }
  for (const std::string& host : job.assigned) {
    NodeInfo& info = nodes_.at(host);
    info.life = NodeLife::kBusy;  // derivable: never persisted
    info.job = job.id;
  }
  job.state = JobState::kRunning;
  job.started = now;
  job.deadline = now + job.walltime;
  ++job.run_epoch;
  queue_.erase(job.id);
  job.shadow_entry = running_by_deadline_.emplace(job.deadline, width);
  persist_start(job);
  arm_completion(job);
  if (hooks_.launch)
    for (const std::string& host : job.assigned) hooks_.launch(host, job.id);
  publish_job(job, "start");
  ++stats_.started;
  if (backfill) ++stats_.backfilled;
  if (width < job.want) ++stats_.shrunk;
}

void Scheduler::arm_completion(ActiveJob& job) {
  const double delay = std::max(0.0, job.deadline - sim_.now());
  job.completion = sim_.schedule(delay, [this, alive = alive_, id = job.id,
                                         epoch = job.run_epoch] {
    if (!*alive) return;
    on_completion(id, epoch);
  });
}

void Scheduler::on_completion(JobId id, std::uint64_t run_epoch) {
  std::lock_guard lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  ActiveJob& job = it->second;
  if (job.state != JobState::kRunning || job.run_epoch != run_epoch) return;
  job.completion = 0;
  running_by_deadline_.erase(job.shadow_entry);
  release_assigned(job);
  finish(job, JobState::kComplete, "");
}

void Scheduler::stop_running(ActiveJob& job) {
  sim_.cancel(job.completion);
  job.completion = 0;
  ++job.run_epoch;
  running_by_deadline_.erase(job.shadow_entry);
  release_assigned(job);
}

void Scheduler::release_assigned(ActiveJob& job) {
  for (const std::string& host : job.assigned) {
    const auto it = nodes_.find(host);
    if (it == nodes_.end() || it->second.job != job.id) continue;  // lost node
    NodeInfo& info = it->second;
    info.job = 0;
    if (hooks_.release) hooks_.release(host, job.id);
    if (info.life == NodeLife::kBusy) {
      info.life = NodeLife::kIdle;
      idle_.insert(host);
    } else if (info.life == NodeLife::kDraining) {
      begin_or_queue_reinstall(host, info);  // the drain completes
    }
  }
}

void Scheduler::requeue(ActiveJob& job) {
  stop_running(job);
  ++job.retries;
  job.state = JobState::kQueued;
  job.started = -1.0;
  job.deadline = -1.0;
  job.not_before = sim_.now() + config_.requeue_backoff.delay(job.retries, rng_);
  job.assigned.clear();
  persist_requeue(job);
  queue_.insert(job.id);
  publish_job(job, "requeue");
  ++stats_.requeued;
  arm_wake(job.not_before);
}

void Scheduler::finish(ActiveJob& job, JobState state, const std::string& reason) {
  AccountingRecord record;
  record.id = job.id;
  record.name = job.name;
  record.state = state;
  record.reason = reason;
  record.submitted = job.submitted;
  record.started = job.started;
  record.ended = sim_.now();
  record.nodes_used = job.assigned.size();
  record.retries = job.retries;
  Accounting::append(db_, record);
  // A crash here leaves both the accounting row and the live row; recovery
  // repairs by deleting the live row (load()), never by re-finishing.
  support::crash_point("sched.finish.between");
  db_.execute(*delete_job_, {id_value(job.id)});
  publish_job(job, state == JobState::kComplete ? "end" : "cancel");
  if (state == JobState::kComplete)
    ++stats_.completed;
  else
    ++stats_.cancelled;
  queue_.erase(job.id);
  jobs_.erase(job.id);
  kick();
}

// --- persistence -------------------------------------------------------------

void Scheduler::persist_submit_rows(const std::vector<const ActiveJob*>& jobs) {
  // One statement per chunk (insert_rows runs the one-row INSERT per job):
  // the 1M-job drill pays ~2k commits and WAL flushes for its submissions
  // instead of 1M.
  constexpr std::size_t kChunk = 512;
  std::vector<sqldb::Value> params;
  for (std::size_t base = 0; base < jobs.size(); base += kChunk) {
    const std::size_t end = std::min(jobs.size(), base + kChunk);
    params.clear();
    params.reserve(8 * (end - base));
    for (std::size_t i = base; i < end; ++i) {
      const ActiveJob& job = *jobs[i];
      params.insert(params.end(),
                    {id_value(job.id), job.name, static_cast<std::int64_t>(job.want),
                     static_cast<std::int64_t>(job.min_want), job.walltime, job.max_retries,
                     job.retries, job.submitted});
    }
    db_.insert_rows(*submit_job_, params);
  }
}

void Scheduler::persist_start(const ActiveJob& job) {
  db_.execute(*start_job_, {job.started, job.deadline, strings::join(job.assigned, " "),
                            id_value(job.id)});
}

void Scheduler::persist_requeue(const ActiveJob& job) {
  db_.execute(*requeue_job_, {job.retries, job.not_before, id_value(job.id)});
}

void Scheduler::persist_node(const std::string& host, NodeLife life, bool existed) {
  if (existed)
    db_.execute(*update_node_, {node_life_name(life), host});
  else
    db_.execute(*insert_node_, {host, node_life_name(life)});
}

void Scheduler::persist_node_delete(const std::string& host) {
  db_.execute(*delete_node_, {host});
}

// --- driving -----------------------------------------------------------------

void Scheduler::drain(double max_seconds) {
  {
    std::lock_guard lock(mutex_);
    schedule_cycle();
  }
  const double deadline = sim_.now() + max_seconds;
  for (;;) {
    {
      std::lock_guard lock(mutex_);
      if (jobs_.empty()) return;
    }
    if (sim_.now() >= deadline) {
      // Horizon reached: whatever is still queued is not going to start
      // (an attached cluster's recurring events would keep step() true
      // forever). Running jobs keep draining below.
      std::lock_guard lock(mutex_);
      std::vector<JobId> stuck(queue_.begin(), queue_.end());
      for (JobId id : stuck) {
        const auto it = jobs_.find(id);
        if (it != jobs_.end()) finish(it->second, JobState::kCancelled, "unschedulable");
      }
      if (jobs_.empty()) return;
    }
    if (!sim_.step()) {
      std::lock_guard lock(mutex_);
      // Simulator idle: no completion, wake, rejoin, or retry is pending,
      // so every remaining queued job is unschedulable — cancel it into the
      // accounting table instead of throwing.
      std::vector<JobId> stuck(queue_.begin(), queue_.end());
      for (JobId id : stuck) {
        const auto it = jobs_.find(id);
        if (it != jobs_.end()) finish(it->second, JobState::kCancelled, "unschedulable");
      }
      // finish() kicks a zero-delay cycle, so the simulator has an event
      // again; if jobs remain running their completions are pending too.
      if (jobs_.empty()) return;
      bool running_left = false;
      for (const auto& [id, job] : jobs_)
        if (job.state == JobState::kRunning) running_left = true;
      require_state(running_left, "scheduler drain: queued jobs survived cancellation");
    }
  }
}

// --- cluster wiring ----------------------------------------------------------

void Scheduler::attach(cluster::Cluster& cluster) {
  require_state(&cluster.sim() == &sim_,
                "Scheduler::attach: cluster must share the scheduler's simulator");
  {
    std::lock_guard lock(mutex_);
    cluster_ = &cluster;
    bus_ = &cluster.events();
    cluster::Cluster* cl = &cluster;
    hooks_.launch = [cl](const std::string& host, JobId id) {
      cluster::Node* node = cl->node(host);
      if (node != nullptr && node->is_running()) node->launch_process(cat("job:", id));
    };
    hooks_.release = [cl](const std::string& host, JobId id) {
      cluster::Node* node = cl->node(host);
      if (node != nullptr && node->is_running()) node->kill_processes(cat("job:", id));
    };
    hooks_.reinstall = [cl](const std::string& host) { cl->request_reinstall(host); };
  }
  for (cluster::Node* node : cluster.nodes()) {
    if (!strings::starts_with(node->hostname(), "compute-")) continue;
    register_node(node->hostname());
    if (!node->is_running()) node_down(node->hostname());
  }
  // Fast path: follow installer transitions straight off the bus. The
  // callback runs on a publisher's stack (possibly the node's own state
  // observer), so the scheduler reaction is deferred one simulator step.
  bus_subscription_ = bus_->subscribe(
      events::EventType::kNodeState, [this, alive = alive_](const events::Event& event) {
        if (!*alive) return;
        const bool up = event.detail == "running";
        const bool down = event.detail == "off" || event.detail == "failed";
        if (!up && !down) return;
        sim_.schedule(0.0, [this, alive, host = event.subject, up] {
          if (!*alive) return;
          if (up)
            node_up(host);
          else
            node_down(host);
        });
      });
  // Policy path: durable triggers, so the requeue-on-node-down and
  // health-gated upgrade-wave rules survive crashes and replicate like any
  // other row. add() is skipped when a recovered database already carries
  // the rows; the actions re-register every attach (process-local).
  events::TriggerEngine& triggers = cluster.triggers();
  triggers.register_action(
      "sched-node-down", [this, alive = alive_](const events::Event& event, const std::string&) {
        if (!*alive) return;
        sim_.schedule(0.0, [this, alive, host = event.subject] {
          if (!*alive) return;
          node_down(host);
        });
      });
  triggers.register_action(
      "sched-health", [this, alive = alive_](const events::Event& event, const std::string&) {
        if (!*alive) return;
        sim_.schedule(0.0, [this, alive, count = event.value] {
          if (!*alive) return;
          health_report(static_cast<std::size_t>(count), registered_nodes());
        });
      });
  std::set<std::string> existing;
  for (const events::TriggerStatus& status : triggers.list()) existing.insert(status.spec.name);
  if (!existing.contains("sched-node-down")) {
    events::TriggerSpec spec;
    spec.name = "sched-node-down";
    spec.event = events::EventType::kNodeDown;
    spec.action = "sched-node-down";
    triggers.add(spec);
  }
  if (!existing.contains("sched-health-wave")) {
    events::TriggerSpec spec;
    spec.name = "sched-health-wave";
    spec.event = events::EventType::kHealthSummary;
    spec.action = "sched-health";
    triggers.add(spec);
  }
}

// --- observability -----------------------------------------------------------

std::size_t Scheduler::running_count() const {
  std::lock_guard lock(mutex_);
  return jobs_.size() - queue_.size();
}

std::optional<JobView> Scheduler::job(JobId id) const {
  std::lock_guard lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const ActiveJob& job = it->second;
  JobView view;
  view.id = job.id;
  view.name = job.name;
  view.state = job.state;
  view.want = job.want;
  view.min_want = job.min_want;
  view.retries = job.retries;
  view.submitted = job.submitted;
  view.started = job.started;
  view.deadline = job.deadline;
  view.assigned = job.assigned;
  return view;
}

std::optional<NodeLife> Scheduler::node_life(const std::string& host) const {
  std::lock_guard lock(mutex_);
  const auto it = nodes_.find(host);
  if (it == nodes_.end()) return std::nullopt;
  return it->second.life;
}

std::string Scheduler::qstat(std::size_t limit) const {
  std::lock_guard lock(mutex_);
  AsciiTable table({"Job", "Name", "State", "Want", "Retries", "Submitted", "Nodes"});
  std::size_t shown = 0;
  for (auto it = jobs_.rbegin(); it != jobs_.rend() && shown < limit; ++it, ++shown) {
    const ActiveJob& job = it->second;
    table.add_row({std::to_string(job.id), job.name,
                   std::string(job_state_name(job.state)), std::to_string(job.want),
                   std::to_string(job.retries), fixed(job.submitted, 0),
                   job.assigned.empty() ? "-" : strings::join(job.assigned, " ")});
  }
  return table.render();
}

void Scheduler::publish_job(const ActiveJob& job, std::string_view detail) {
  if (bus_ == nullptr) return;
  bus_->publish(events::Event{events::EventType::kJob, job.name, std::string(detail),
                              static_cast<double>(job.id), 0.0, 0});
}

void Scheduler::publish_node(const std::string& host, std::string_view detail) {
  if (bus_ == nullptr) return;
  bus_->publish(events::Event{events::EventType::kNodeAlloc, host, std::string(detail),
                              0.0, 0.0, 0});
}

}  // namespace rocks::batch
