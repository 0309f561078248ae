// Section 5's production workflow with the batch system in the loop:
// "the production system can be upgraded by submitting a 'reinstall
// cluster' job to Maui, as not to disturb any running applications. Once
// the reinstallation is complete, the next job will have a known,
// consistent software base."
#include <cstdio>

#include "batch/accounting.hpp"
#include "batch/rexec.hpp"
#include "batch/scheduler.hpp"
#include "cluster/cluster.hpp"

using namespace rocks;

int main() {
  std::printf("== rolling upgrade through the batch queue ==\n\n");

  cluster::ClusterConfig config;
  config.synth.filler_packages = 60;
  cluster::Cluster production(std::move(config));
  for (int i = 0; i < 8; ++i) production.add_node();
  production.integrate_all();
  netsim::Simulator& sim = production.sim();
  batch::Scheduler sched(production.frontend().db(), sim);
  sched.attach(production);
  sched.resume();

  // Production is busy: two parallel applications in flight.
  const auto gamess = sched.submit({"gamess", 4, 1800.0});
  const auto amber = sched.submit({"amber", 3, 900.0});
  sim.run_until(sim.now() + 1.0);

  // The administrator validated this month's errata on the test cluster;
  // now the production upgrade goes in through the queue: busy nodes drain
  // (their jobs run to completion), then reinstall.
  const auto errata = rpm::make_update_stream(production.distro());
  rpm::Repository updates("validated-errata");
  for (const auto& update : errata)
    if (update.day <= 30) updates.add(update.package);
  production.frontend().apply_updates(updates);
  sched.request_reinstall_all();

  // One more job submitted behind the upgrade.
  const auto next = sched.submit({"nwchem", 8, 600.0});
  while (sched.stats().reinstalls_finished < sched.registered_nodes() && sim.step()) {
  }
  const double upgraded_at = sim.now();
  sched.drain();

  std::printf("%s\n", batch::Accounting::report(sched.db(), 8).c_str());
  const auto ran = [&sched](batch::JobId id) {
    const auto record = batch::Accounting::lookup(sched.db(), id);
    return record->ended - record->started;
  };
  std::printf("gamess ran %.0f s uninterrupted (walltime 1800)\n", ran(gamess));
  std::printf("amber ran %.0f s uninterrupted (walltime 900)\n", ran(amber));
  std::size_t reinstalled = 0;
  for (const cluster::Node* node : production.nodes())
    if (node->install_count() == 2) ++reinstalled;
  std::printf("reinstall-cluster finished at t=%.0f s; %zu of %zu nodes now run the "
              "updated software\n",
              upgraded_at, reinstalled, production.nodes().size());
  std::printf("nwchem (the \"next job\") started at t=%.0f s on a consistent base: %s\n",
              batch::Accounting::lookup(sched.db(), next)->started,
              production.consistent() ? "yes" : "no");

  // And REXEC for the interactive side (Section 4.1).
  batch::Rexec rexec(production);
  const auto run = rexec.launch({"compute-0-0", "compute-0-1"}, "mpirun -np 2 ring", 120.0);
  sim.run_until(sim.now() + 200.0);
  std::printf("\nrexec run captured %zu stdout lines from 2 nodes, exit codes 0/0\n",
              rexec.processes(run)[0].stdout_lines.size() +
                  rexec.processes(run)[1].stdout_lines.size());
  return 0;
}
