// Concurrent-frontend benchmarks (google-benchmark): what the serving
// stack sustains during a mass reinstall (paper Section 6.3), now that the
// SQL engine serves reads from lock-free MVCC snapshots and the profile
// cache is striped.
//
// Two families:
//   - BM_HandleManyWorkers/W: a 256-node kickstart pulse fanned across a
//     W-worker pool. `real_req_per_s` is the measured throughput
//     (meaningful only with ≥ W cores) — the EXPERIMENTS.md scaling number.
//   - BM_MixedReadWrite/W: insert-ethers appending nodes (exclusive lock)
//     racing a kickstart read pulse (pinned MVCC read views) — the Section
//     6.4 "integrate while serving" scenario.
//   - BM_RocksDistBuildWorkers/W: the symlink-tree build fanned across W
//     lanes; reports the simulated build_seconds of the ~650-package tree.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kickstart/defaults.hpp"
#include "kickstart/server.hpp"
#include "rocksdist/rocksdist.hpp"
#include "rpm/synth.hpp"
#include "sqldb/engine.hpp"
#include "support/strings.hpp"
#include "support/threadpool.hpp"
#include "vfs/filesystem.hpp"

namespace {

using namespace rocks;

constexpr std::size_t kNodes = 256;

struct Fixture {
  Fixture()
      : distro(rpm::make_redhat_release()),
        config(kickstart::make_default_configuration(distro)) {
    kickstart::ensure_cluster_schema(db);
    kickstart::insert_node_row(db, "00:30:c1:d8:ac:80", "frontend-0", 1, 0, 0, "10.1.1.1");
    for (std::size_t i = 0; i < kNodes; ++i) {
      const Ipv4 ip(Ipv4(10, 255, 255, 254).value() - static_cast<std::uint32_t>(i));
      kickstart::insert_node_row(
          db, Mac(0x00508BE00000ULL + i).to_string(),
          strings::cat("compute-0-", i), 2, 0, static_cast<int>(i), ip.to_string());
      ips.push_back(ip);
    }
    server = std::make_unique<kickstart::KickstartServer>(
        db, config.files, config.graph, Ipv4(10, 1, 1, 1),
        "http://10.1.1.1/install/rocks-dist", &distro.repo);
  }

  rpm::SynthDistro distro;
  kickstart::DefaultConfiguration config;
  sqldb::Database db;
  std::vector<Ipv4> ips;
  std::unique_ptr<kickstart::KickstartServer> server;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_HandleManyWorkers(benchmark::State& state) {
  auto& f = fixture();
  const auto workers = static_cast<std::size_t>(state.range(0));
  support::ThreadPool pool(workers);
  // Fresh engine counters per phase: each W measures only its own pulse,
  // not the residue of earlier arguments sharing the static fixture.
  f.db.reset_stats();
  std::size_t batches = 0;
  for (auto _ : state) {
    const auto report = f.server->handle_many(pool, f.ips);
    benchmark::DoNotOptimize(report.results.data());
    if (report.failed != 0) state.SkipWithError("request failed");
    ++batches;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batches * kNodes));
  state.counters["real_req_per_s"] = benchmark::Counter(
      static_cast<double>(batches * kNodes), benchmark::Counter::kIsRate);
  state.counters["read_views"] = static_cast<double>(f.db.read_views_opened());
}
BENCHMARK(BM_HandleManyWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Insert-ethers integrating new nodes (exclusive writes) racing a
/// kickstart read pulse (lock-free snapshot reads): the Section 6.4
/// "integrate while serving" scenario. The writer runs on its own thread so
/// the pool's workers carry only the read pulse.
void BM_MixedReadWrite(benchmark::State& state) {
  auto& f = fixture();
  const auto workers = static_cast<std::size_t>(state.range(0));
  support::ThreadPool pool(workers);
  f.db.reset_stats();
  std::uint64_t inserted = 0;
  std::size_t batches = 0;
  for (auto _ : state) {
    std::thread writer([&f, &inserted] {
      for (int burst = 0; burst < 8; ++burst) {
        kickstart::insert_node_row(
            f.db, Mac(0x00A0C9000000ULL + inserted).to_string(),
            strings::cat("transient-1-", inserted), 2, 1, static_cast<int>(inserted),
            Ipv4(Ipv4(10, 250, 0, 1).value() + static_cast<std::uint32_t>(inserted))
                .to_string());
        ++inserted;
      }
    });
    const auto report = f.server->handle_many(pool, f.ips);
    writer.join();
    benchmark::DoNotOptimize(report.results.data());
    if (report.failed != 0) state.SkipWithError("request failed");
    ++batches;
    // Keep the table from growing without bound across iterations.
    f.db.execute("DELETE FROM nodes WHERE rack = 1");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batches * kNodes));
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(batches * kNodes), benchmark::Counter::kIsRate);
  state.counters["writes_per_batch"] = 8;
  state.counters["excl_locks"] = static_cast<double>(f.db.exclusive_lock_acquisitions());
}
BENCHMARK(BM_MixedReadWrite)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_RocksDistBuildWorkers(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  support::ThreadPool pool(workers);
  auto& f = fixture();
  double build_seconds = 0.0;
  double mirror_seconds = 0.0;
  for (auto _ : state) {
    vfs::FileSystem fs;
    rocksdist::RocksDist rd(fs);
    rd.set_pool(&pool);
    const auto mirror = rd.mirror(f.distro.repo, "redhat/7.2");
    const auto report = rd.dist(f.config.files, f.config.graph);
    benchmark::DoNotOptimize(report.tree_bytes);
    build_seconds = report.build_seconds;
    mirror_seconds = mirror.mirror_seconds;
  }
  state.counters["sim_build_s"] = build_seconds;
  state.counters["sim_mirror_s"] = mirror_seconds;
}
BENCHMARK(BM_RocksDistBuildWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
