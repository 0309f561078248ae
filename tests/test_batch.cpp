// Tests for the batch substrate: the scheduler attached to a live cluster
// (the paper's PBS + Maui, Section 4.1), the Section 5 "reinstall cluster"
// rolling upgrade, and REXEC remote execution.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "batch/accounting.hpp"
#include "batch/mpirun.hpp"
#include "batch/rexec.hpp"
#include "batch/scheduler.hpp"
#include "support/error.hpp"

namespace rocks::batch {
namespace {

class BatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster::ClusterConfig config;
    config.synth.filler_packages = 50;
    cluster_ = std::make_unique<cluster::Cluster>(std::move(config));
    for (int i = 0; i < 4; ++i) cluster_->add_node();
    cluster_->integrate_all();
  }

  /// The batch system, attached to the cluster on first use.
  Scheduler& sched() {
    if (!sched_) {
      sched_ = std::make_unique<Scheduler>(cluster_->frontend().db(), cluster_->sim());
      sched_->attach(*cluster_);
      sched_->resume();
    }
    return *sched_;
  }

  /// The job's terminal ledger row (throws if it has none).
  AccountingRecord record(JobId id) { return Accounting::lookup(sched().db(), id).value(); }

  /// Runs the scheduling cycle that submit() queued.
  void settle() { cluster_->sim().run_until(cluster_->sim().now() + 1.0); }

  /// Steps the simulator until job `id` leaves the queue.
  void run_until_started(JobId id) {
    netsim::Simulator& sim = cluster_->sim();
    while (sched().job(id) && sched().job(id)->state == JobState::kQueued && sim.step()) {
    }
  }

  /// Steps the simulator until every compute node has rejoined from the
  /// reinstall request_reinstall_all() started; returns that time.
  double run_until_reinstalled() {
    netsim::Simulator& sim = cluster_->sim();
    while (sched().stats().reinstalls_finished < sched().registered_nodes() && sim.step()) {
    }
    return sim.now();
  }

  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<Scheduler> sched_;
};

TEST_F(BatchTest, UserJobRunsForWalltime) {
  const JobId id = sched().submit({"mdrun", 2, 300.0});
  settle();
  ASSERT_EQ(sched().job(id)->state, JobState::kRunning);
  const std::vector<std::string> hosts = sched().job(id)->assigned;
  ASSERT_EQ(hosts.size(), 2u);
  // The job's processes are visible on the nodes.
  EXPECT_EQ(cluster_->node(hosts[0])->process_count(), 1u);
  sched().drain();
  EXPECT_EQ(record(id).state, JobState::kComplete);
  EXPECT_NEAR(record(id).ended - record(id).started, 300.0, 0.01);
  for (const std::string& host : hosts) EXPECT_EQ(cluster_->node(host)->process_count(), 0u);
}

TEST_F(BatchTest, JobsQueueWhenClusterFull) {
  const JobId big = sched().submit({"big", 4, 100.0});
  const JobId next = sched().submit({"next", 4, 100.0});
  settle();
  EXPECT_EQ(sched().job(big)->state, JobState::kRunning);
  EXPECT_EQ(sched().job(next)->state, JobState::kQueued);
  sched().drain();
  EXPECT_EQ(record(next).state, JobState::kComplete);
  // FIFO: next started when big finished.
  EXPECT_NEAR(record(next).started, record(big).ended, 0.01);
}

TEST_F(BatchTest, ReinstallClusterJobTouchesEveryComputeNode) {
  sched().request_reinstall_all();
  run_until_reinstalled();
  for (auto* node : cluster_->nodes()) EXPECT_EQ(node->install_count(), 2) << node->hostname();
  EXPECT_TRUE(cluster_->consistent());
}

TEST_F(BatchTest, ReinstallWaitsForRunningJobs) {
  // Section 5: the upgrade "does not disturb any running applications".
  const JobId user = sched().submit({"simulation", 2, 400.0});
  settle();
  ASSERT_EQ(sched().job(user)->state, JobState::kRunning);
  sched().request_reinstall_all();
  const double upgraded_at = run_until_reinstalled();

  // The user job ran its full walltime, uninterrupted.
  const AccountingRecord done = record(user);
  EXPECT_EQ(done.state, JobState::kComplete);
  EXPECT_DOUBLE_EQ(done.ended - done.started, 400.0);
  EXPECT_EQ(done.retries, 0);
  // The upgrade completed only after the user job's nodes became free.
  EXPECT_GT(upgraded_at, done.ended);
  for (auto* node : cluster_->nodes()) EXPECT_EQ(node->install_count(), 2) << node->hostname();
}

TEST_F(BatchTest, UserJobsResumeOnReinstalledNodes) {
  sched().request_reinstall_all();
  const JobId after = sched().submit({"post-upgrade", 4, 60.0});
  run_until_started(after);
  const std::optional<JobView> started = sched().job(after);
  ASSERT_EQ(started->state, JobState::kRunning);
  // It started only on nodes whose second install had already finished.
  for (const std::string& host : started->assigned)
    EXPECT_EQ(cluster_->node(host)->install_count(), 2) << host;
  sched().drain();
  EXPECT_EQ(record(after).state, JobState::kComplete);
  EXPECT_TRUE(cluster_->consistent());
}

TEST_F(BatchTest, QstatRendersJobTable) {
  const JobId id = sched().submit({"mdrun", 1, 10.0});
  settle();
  const std::string report = sched().qstat();
  EXPECT_NE(report.find("mdrun"), std::string::npos);
  EXPECT_NE(report.find(sched().job(id)->assigned.at(0)), std::string::npos);
  EXPECT_FALSE(sched().job(999).has_value());
}

TEST_F(BatchTest, RexecPropagatesContextAndRedirectsStdout) {
  Rexec rexec(*cluster_);
  RexecContext context;
  context.uid = 1042;
  context.cwd = "/export/home/bruno";
  context.env["MPI_ROOT"] = "/opt/mpich";
  const RunId id = rexec.launch({"compute-0-0", "compute-0-1"}, "hostname", 30.0, context);
  EXPECT_EQ(rexec.running_count(id), 2u);
  cluster_->sim().run_until(cluster_->sim().now() + 60.0);
  EXPECT_EQ(rexec.running_count(id), 0u);
  const auto& procs = rexec.processes(id);
  ASSERT_EQ(procs.size(), 2u);
  for (const auto& proc : procs) {
    EXPECT_EQ(proc.exit_code, 0);
    EXPECT_NE(proc.stdout_lines[0].find("uid=1042"), std::string::npos);
    EXPECT_NE(proc.stdout_lines[0].find("cwd=/export/home/bruno"), std::string::npos);
    bool env_seen = false;
    for (const auto& line : proc.stdout_lines)
      if (line.find("MPI_ROOT=/opt/mpich") != std::string::npos) env_seen = true;
    EXPECT_TRUE(env_seen);
  }
}

TEST_F(BatchTest, RexecForwardsSignals) {
  Rexec rexec(*cluster_);
  const RunId id = rexec.launch({"compute-0-0", "compute-0-1", "compute-0-2"},
                                "mpirun -np 3 a.out", 1000.0);
  EXPECT_EQ(rexec.running_count(id), 3u);
  const std::size_t delivered = rexec.forward_signal(id, 15);
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(rexec.running_count(id), 0u);
  for (const auto& proc : rexec.processes(id)) EXPECT_EQ(proc.exit_code, 128 + 15);
  EXPECT_EQ(cluster_->node("compute-0-0")->process_count(), 0u);
}

TEST_F(BatchTest, MpirunFillsSlotsRoundRobin) {
  Rexec rexec(*cluster_);
  Mpirun mpirun(*cluster_, rexec);
  // 4 nodes x 2 slots = 8 slots.
  EXPECT_EQ(mpirun.machinefile().size(), 8u);
  const auto launch = mpirun.run(6, "cpi", 100.0);
  EXPECT_EQ(launch.machinefile.size(), 6u);
  EXPECT_EQ(launch.machinefile[0], launch.machinefile[1]);  // 2 slots per node
  EXPECT_NE(launch.machinefile[0], launch.machinefile[2]);
  EXPECT_EQ(rexec.running_count(launch.run), 6u);
  // MPI rank count is propagated through the environment.
  bool saw_nprocs = false;
  for (const auto& line : rexec.processes(launch.run)[0].stdout_lines)
    if (line.find("MPIRUN_NPROCS=6") != std::string::npos) saw_nprocs = true;
  EXPECT_TRUE(saw_nprocs);
  cluster_->sim().run_until(cluster_->sim().now() + 150.0);
  EXPECT_EQ(rexec.running_count(launch.run), 0u);
}

TEST_F(BatchTest, MpirunRejectsOversubscription) {
  Rexec rexec(*cluster_);
  Mpirun mpirun(*cluster_, rexec);
  EXPECT_THROW(mpirun.run(9, "cpi", 10.0), StateError);
  EXPECT_THROW(mpirun.run(0, "cpi", 10.0), StateError);
  cluster_->node("compute-0-0")->power_off();
  EXPECT_EQ(mpirun.machinefile().size(), 6u);  // 3 nodes remain
}

TEST_F(BatchTest, RexecReportsUnreachableHosts) {
  cluster_->node("compute-0-3")->power_off();
  Rexec rexec(*cluster_);
  const RunId id = rexec.launch({"compute-0-2", "compute-0-3", "ghost"}, "uptime", 5.0);
  EXPECT_EQ(rexec.running_count(id), 1u);
  cluster_->sim().run_until(cluster_->sim().now() + 10.0);
  const auto& procs = rexec.processes(id);
  EXPECT_EQ(procs[0].exit_code, 0);
  EXPECT_EQ(procs[1].exit_code, -1);  // powered off
  EXPECT_EQ(procs[2].exit_code, -1);  // unknown host
}

}  // namespace
}  // namespace rocks::batch
