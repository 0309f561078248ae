// Batch jobs.
//
// "To support job launching in production environments, we've packaged the
// Portable Batch System (PBS) and the Maui scheduler. PBS is used for its
// workload management system (starting and monitoring jobs) and Maui is
// used for its rich scheduling functionality" (paper Section 4.1).
//
// A job is an ordinary parallel user job. The Section 5 "reinstall cluster"
// upgrade is not a job here: it is a node lifecycle request
// (Scheduler::request_reinstall_all) that drains busy nodes instead of
// disturbing anything running.
#pragma once

#include <cstdint>
#include <string>

namespace rocks::batch {

using JobId = std::uint64_t;

enum class JobState {
  kQueued,
  kRunning,
  kComplete,   // ran to completion
  kCancelled,  // qdel'd, or requeue retry budget exhausted
};

[[nodiscard]] std::string_view job_state_name(JobState state);

struct JobSpec {
  std::string name;
  /// How many nodes the job needs.
  std::size_t nodes = 1;
  /// Execution time once started.
  double walltime_seconds = 60.0;
  /// Graceful degradation floor: a job whose head-of-queue wait exceeds the
  /// shrink threshold may start on fewer nodes, down to this many, instead
  /// of blocking the queue. 0 = rigid (min == nodes).
  std::size_t min_nodes = 0;
  /// Requeue budget: how many times the job may be requeued after losing a
  /// node before it ends kCancelled.
  int max_retries = 3;
};

}  // namespace rocks::batch
