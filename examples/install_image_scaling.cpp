// Reinstall scaling: wall time and peak memory of reinstall_all as the
// cluster grows.
//
// The paper's basic management tool is a full reinstall (Section 6.3), and
// rocks-dist builds a distribution once for every node to install from
// (Section 6.2). This driver builds the swarm cluster the cluster_reinstall
// benchmark uses (60 filler packages, a durable frontend, peer-assisted
// downloads), integrates it, and reinstalls every node three times.
//
//   install_image_scaling [--nodes N]   (default 256)
//
// stdout carries only simulated, deterministic facts (fingerprints, file
// counts, consistency, simulated makespan), so two runs print the same
// bytes. Wall time and peak RSS (VmHWM) go to stderr.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "vfs/filesystem.hpp"

using namespace rocks;

namespace {

constexpr int kRounds = 3;  // reinstall_all runs; stderr reports the best and the median

/// Peak resident set size of this process in MB; 0 where /proc is absent.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0.0;
}

/// Fingerprints, file counts and consistency of every node: the facts a
/// correct reinstall leaves behind, whatever it costs.
void report(cluster::Cluster& cluster, const char* when) {
  std::set<std::uint64_t> fingerprints;
  std::size_t min_files = SIZE_MAX, max_files = 0, running = 0;
  for (const cluster::Node* node : cluster.nodes()) {
    fingerprints.insert(node->software_fingerprint());
    const std::size_t files = node->fs().count("/", vfs::NodeType::kFile);
    min_files = std::min(min_files, files);
    max_files = std::max(max_files, files);
    if (node->is_running()) ++running;
  }
  std::printf("%-16s running %zu/%zu  fingerprints %zu (%016llx)  files/node %zu..%zu  "
              "consistent %s\n",
              when, running, cluster.nodes().size(), fingerprints.size(),
              static_cast<unsigned long long>(*fingerprints.begin()), min_files, max_files,
              cluster.consistent() ? "yes" : "no");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t node_count = 256;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc)
      node_count = static_cast<std::size_t>(std::atoll(argv[++i]));
  node_count = std::max<std::size_t>(node_count, 1);

  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  vfs::FileSystem disk;  // the frontend's durable store; outlives the cluster
  cluster::ClusterConfig config;
  config.synth.filler_packages = 60;
  config.frontend.state_fs = &disk;
  config.enable_peer_distribution = true;

  const Clock::time_point setup_start = Clock::now();
  cluster::Cluster cluster(std::move(config));
  for (std::size_t i = 0; i < node_count; ++i) cluster.add_node();
  cluster.integrate_all();
  const double setup_s = seconds_since(setup_start);

  std::printf("== reinstall scaling: %zu swarm nodes, %d rounds ==\n", node_count, kRounds);
  report(cluster, "integrated");

  std::vector<double> wall_ms;
  for (int round = 1; round <= kRounds; ++round) {
    const Clock::time_point start = Clock::now();
    const double makespan = cluster.reinstall_all();
    wall_ms.push_back(seconds_since(start) * 1000.0);
    char label[32];
    std::snprintf(label, sizeof label, "reinstall %d", round);
    report(cluster, label);
    std::printf("%-16s simulated makespan %.1f s\n", "", makespan);
  }

  std::vector<double> sorted = wall_ms;
  std::sort(sorted.begin(), sorted.end());
  std::fprintf(stderr,
               "install_image_scaling: nodes %zu  setup %.3f s  reinstall_all best %.1f ms  "
               "median %.1f ms  peak RSS %.1f MB\n",
               node_count, setup_s, sorted.front(), sorted[sorted.size() / 2], peak_rss_mb());
  return cluster.consistent() ? 0 : 1;
}
