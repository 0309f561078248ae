// job_churn: the durable batch scheduler's write/delete path.
//
// A durable Database and a Scheduler over 1000 nodes, with an EventBus
// attached via set_event_bus as attach() does. Seeded jobs (1-4 nodes wide,
// 20-120 s walltime) stream through a bounded live window in submit_batch
// chunks; the benchmark drives Simulator::step itself until every job is in
// the ledger, takes one Database::snapshot() halfway, and afterwards runs
// open_durable on a fresh Database over a copy of the disk image. One round
// is one such stream from an empty store.
#include "batch/accounting.hpp"
#include "batch/scheduler.hpp"
#include "events/bus.hpp"
#include "layers.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace rocksbench {
namespace {

namespace batch = rocks::batch;
namespace events = rocks::events;
using rocks::strings::cat;


struct Sizes {
  std::size_t nodes;
  std::size_t jobs;    // per round
  std::size_t window;  // live jobs before the next submit_batch chunk
};

std::vector<batch::JobSpec> make_jobs(std::size_t count, std::uint64_t seed) {
  rocks::Rng rng(seed ^ 0xC4A0);
  std::vector<batch::JobSpec> jobs(count);
  for (std::size_t j = 0; j < count; ++j) {
    jobs[j].name = cat("j", j);
    jobs[j].nodes = 1 + rng.next_below(4);
    jobs[j].walltime_seconds = 20.0 + static_cast<double>(rng.next_below(100));
    jobs[j].max_retries = 3;
  }
  return jobs;
}

struct Phase {
  Samples setup_s, recover_s, snapshot_ms, submit_ms;
  Rounds rounds;
  Samples backfill_share, utilization;
  SqlCounters sql;
  double published = 0, notifications = 0;
  std::uint64_t jobs = 0, failed = 0;
  std::size_t replayed = 0, versions_live = 0;
};

/// A durable scheduler with its nodes registered. Not movable: the
/// scheduler holds references to the members before it.
struct Rig {
  explicit Rig(std::size_t nodes) : bus([this] { return sim.now(); }) {
    db.open_durable(disk, kStateDir);
    scheduler = std::make_unique<batch::Scheduler>(db, sim);
    scheduler->set_event_bus(&bus);
    for (std::size_t i = 0; i < nodes; ++i) scheduler->register_node(cat("c", i));
    scheduler->resume();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  vfs::FileSystem disk;
  netsim::Simulator sim;
  sqldb::Database db;
  events::EventBus bus;
  std::unique_ptr<batch::Scheduler> scheduler;
};

void run_round(const Sizes& sizes, const std::vector<batch::JobSpec>& jobs, Lane* lane,
               Phase& phase, Report& report) {
  const Clock::time_point setup_start = Clock::now();
  Rig rig(sizes.nodes);
  phase.setup_s.add(seconds_since(setup_start));
  vfs::FileSystem& disk = rig.disk;
  netsim::Simulator& sim = rig.sim;
  sqldb::Database& db = rig.db;
  events::EventBus& bus = rig.bus;
  batch::Scheduler& scheduler = *rig.scheduler;

  // Submit-to-ledger wall latency: the ledger write publishes kJob "end".
  std::vector<Clock::time_point> submitted_at(jobs.size() + 1);
  Samples latency_ms;
  const auto on_job = [&](const events::Event& e) {
    if (e.detail != "end" && e.detail != "cancel") return;
    const auto id = static_cast<std::size_t>(e.value);
    if (id < submitted_at.size()) latency_ms.add(ms_since(submitted_at[id]));
  };
  const std::size_t subscription = bus.subscribe(events::EventType::kJob, on_job);
  const double published0 = static_cast<double>(bus.published());
  const double notifications0 = static_cast<double>(bus.notifications_sent());
  const SqlCounters sql0 = SqlCounters::of(db);

  const Clock::time_point loop_start = Clock::now();
  std::size_t submitted = 0;
  bool snapshotted = false;
  const auto finished = [&scheduler] {
    return scheduler.stats().completed + scheduler.stats().cancelled;
  };
  for (;;) {
    if (submitted < jobs.size() && scheduler.live_count() < sizes.window) {
      const std::size_t n = std::min(sizes.window, jobs.size() - submitted);
      const auto from = jobs.begin() + static_cast<std::ptrdiff_t>(submitted);
      const std::vector<batch::JobSpec> chunk(from, from + static_cast<std::ptrdiff_t>(n));
      const Clock::time_point start = Clock::now();
      batch::JobId first = 0;
      {
        ScopedSpan span(lane, "batch.submit");
        first = scheduler.submit_batch(chunk);
      }
      phase.submit_ms.add(ms_since(start));
      for (std::size_t k = 0; k < n && first + k < submitted_at.size(); ++k)
        submitted_at[first + k] = start;
      submitted += n;
    }
    if (finished() >= jobs.size()) break;
    if (!snapshotted && finished() >= jobs.size() / 2) {
      snapshotted = true;
      ScopedSpan span(lane, "sqldb.snapshot");
      const Clock::time_point start = Clock::now();
      db.snapshot();
      phase.snapshot_ms.add(ms_since(start));
    }
    bool stepped = false;
    {
      ScopedSpan span(lane, "batch.step");
      stepped = sim.step();
    }
    if (!stepped && submitted >= jobs.size()) {
      report.fail_check("simulator idle with jobs unaccounted");
      break;
    }
  }
  const double rate = static_cast<double>(jobs.size()) / seconds_since(loop_start);
  bus.unsubscribe(subscription);
  phase.rounds.add(rate, latency_ms);
  phase.jobs += jobs.size();
  phase.published += static_cast<double>(bus.published()) - published0;
  phase.notifications += static_cast<double>(bus.notifications_sent()) - notifications0;
  phase.sql += SqlCounters::of(db) - sql0;

  // The exactly-once ledger.
  const batch::AccountingTotals totals = batch::Accounting::totals(db);
  const std::uint64_t want = jobs.size();
  phase.failed += totals.cancelled + (want > totals.completed + totals.cancelled
                                          ? want - totals.completed - totals.cancelled
                                          : 0);
  if (totals.completed != want || totals.duplicate_ids != 0 ||
      batch::Accounting::max_id(db) != want)
    report.fail_check(cat("ledger not exactly-once: completed=", totals.completed,
                          " cancelled=", totals.cancelled, " duplicates=", totals.duplicate_ids,
                          " max_id=", batch::Accounting::max_id(db), ", want ", want));
  phase.backfill_share.add(static_cast<double>(scheduler.stats().backfilled) /
                           static_cast<double>(want));
  phase.utilization.add(totals.node_seconds / (static_cast<double>(sizes.nodes) * sim.now()));
  phase.versions_live = db.mvcc_status().versions_live;

  // Recovery: a fresh Database over a copy of the disk image.
  vfs::FileSystem image;
  image.copy_tree(disk, kStateDir, kStateDir);
  sqldb::Database recovered;
  const Clock::time_point start = Clock::now();
  const sqldb::RecoveryReport recovery = recovered.open_durable(image, kStateDir);
  phase.recover_s.add(seconds_since(start));
  phase.replayed = recovery.wal_records_replayed;
  if (recovered.dump_state() != db.dump_state())
    report.fail_check("recovered dump_state() differs from the live database");
}

Phase run_phase(const Sizes& sizes, const std::vector<batch::JobSpec>& jobs,
                const Options& options, Lane* lane, Report& report) {
  Phase phase;
  const Clock::time_point start = Clock::now();
  do {
    run_round(sizes, jobs, lane, phase, report);
  } while (!options.small && seconds_since(start) < options.seconds);
  report.attempted += phase.jobs;
  report.failed += phase.failed;
  return phase;
}

}  // namespace

void run_job_churn(const Options& options, Report& report) {
  const Sizes sizes = options.small ? Sizes{100, 2000, 500} : Sizes{1000, 10000, 5000};
  const std::vector<batch::JobSpec> jobs = make_jobs(sizes.jobs, options.seed);
  for (const batch::JobSpec& job : jobs)
    report.digest(cat(job.nodes, ":", job.walltime_seconds));

  const Phase plain = run_phase(sizes, jobs, options, nullptr, report);
  const double ops_per_s = plain.rounds.best_rate();
  report.set("setup_s", plain.setup_s.min());
  report.set("recover_s", plain.recover_s.min());
  report.set("ops_per_s", ops_per_s);
  report.set("op_p50_ms", plain.rounds.best_p50());
  report.set("op_p99_ms", plain.rounds.best_p99());
  report.set("peak_rss_mb", peak_rss_mb());
  report.notes.push_back(cat("job_churn: ", sizes.jobs, " jobs x ", plain.rounds.size(),
                             " rounds on ", sizes.nodes,
                             " nodes; best round jobs_per_s=", ops_per_s,
                             " job_p50_ms=", plain.rounds.best_p50(),
                             " setup_s=", plain.setup_s.min(), " (median ", plain.setup_s.median(),
                             ") recover_s=", plain.recover_s.min(), " (median ",
                             plain.recover_s.median(), ")"));
  if (!options.trace) return;

  Tracer tracer(true);
  const Phase traced = run_phase(sizes, jobs, options, tracer.lane(0), report);
  const auto ops = static_cast<double>(traced.jobs);
  report_sql(report, traced.sql, ops);
  report.set("sqldb.snapshot_ms", traced.snapshot_ms.median());
  report.set("sqldb.replay_records", static_cast<double>(traced.replayed));
  report.set("sqldb.replay_us_per_record",
             traced.replayed > 0
                 ? traced.recover_s.min() * 1e6 / static_cast<double>(traced.replayed)
                 : 0.0);
  report.set("sqldb.versions_live", static_cast<double>(traced.versions_live));
  report.set("events.published_per_op", traced.published / ops);
  report.set("events.notifications_per_op", traced.notifications / ops);
  report.set("batch.submit_ms", traced.submit_ms.median());
  const Samples step = tracer.durations("batch.step");
  report.set("batch.step_p50_us", step.quantile(0.50));
  report.set("batch.step_p99_us", step.quantile(0.99));
  report.set("batch.backfill_share", traced.backfill_share.median());
  report.set("batch.utilization", traced.utilization.median());
  report.set("trace.spans_per_op",
             static_cast<double>(step.size() + tracer.durations("batch.submit").size() +
                                 tracer.durations("sqldb.snapshot").size()) / ops);
  const double traced_rate = traced.rounds.best_rate();
  report.set("trace.overhead_pct", (ops_per_s - traced_rate) / ops_per_s * 100.0);
  report.notes.push_back(cat("job_churn traced: jobs_per_s=", traced_rate,
                             " step_p50_us=", step.median(),
                             " replay_records=", traced.replayed));
  if (!options.trace_out.empty()) tracer.write(options.trace_out);
}

}  // namespace rocksbench
