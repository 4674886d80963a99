// Shared declarations of the cloudbench program.
//
// main.cpp parses the command line and prints the result; workloads.cpp
// builds a deployment, runs the closed-loop clients, restarts the
// distributor and checks every byte; layers.cpp turns what a traced run
// saw into per-layer numbers. The benchmark talks to CloudShield only
// through its public headers.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/distributor.hpp"
#include "obs/telemetry.hpp"
#include "storage/provider_registry.hpp"

namespace cloudbench {

using namespace cshield;

/// One named metric as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The closed-loop step a workload's clients repeat.
enum class Mix {
  kBulk,    ///< put a new file, then get a random live one
  kSmall,   ///< 60% get_file / 30% put / 10% remove
  kUpdate,  ///< 70% get_chunk / 30% update_chunk
};

/// What one workload deploys and how its clients behave. See README.md for
/// why each workload exists.
struct WorkloadSpec {
  std::string name;
  Mix mix = Mix::kBulk;
  PrivacyLevel pl = PrivacyLevel::kPublic;
  std::size_t file_bytes = 0;
  double chaff = 0.0;
  ProtectionMode protection = ProtectionMode::kMisleadingBytes;
  bool realtime = false;  ///< providers sleep their modeled service time
  std::size_t meta_shards = 1;
  std::size_t group_commit_ops = 1;  ///< 1 = one fsync per journal record
  std::chrono::microseconds group_commit_wait{0};
  std::size_t rpc_batch_shards = 1;  ///< 1 = no cross-op shard batching
  std::chrono::microseconds rpc_batch_wait{500};
  /// CPU budget: 0 runs on every CPU of the host; n pins the run to n of
  /// them. The CPU-bound workloads run on one CPU: on a shared VM, handing
  /// work between threads on different vCPUs turns hypervisor steal into
  /// stalls several times its size (see README.md, "Steadiness"). A
  /// pinned run also keeps its CPUs awake (KeepAwake).
  std::size_t cpus = 0;
  std::size_t clients = 1;
  std::size_t preload_files = 0;  ///< per client, part of set-up
  std::size_t live_bound = 0;     ///< per client; a put evicts the oldest
  /// Ops per client between the end-of-run checkpoint and the restart:
  /// the journal tail recovery replays, fixed so restart cost does not
  /// scale with how many ops the timed phase managed.
  std::size_t tail_ops = 0;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workload_specs();

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t setup_reps = 5;    ///< set-ups per run (setup_s)
  std::size_t recover_reps = 4;  ///< min restarts per run (recover_s)
  bool corrupt_expected = false;  ///< self-test: poison one expected byte
  std::string work_dir;           ///< journals and checkpoints
  std::string spans_path;         ///< JSONL dump of the traced run's spans
  std::string metrics_path;       ///< the traced windows' metric registries
};

/// Client-op kinds the clients issue.
enum class OpKind : int { kPut, kGetFile, kGetChunk, kUpdate, kRemove };

/// Counts a run takes at the boundaries the benchmark owns, before and
/// after a window, so deltas give per-op work.
struct Boundary {
  enum Counter : std::size_t {
    kProvPuts, kProvGets, kProvRemoves, kProvBatches,
    kProvBytesIn, kProvBytesOut, kProvErrors,
    kJournalAppended, kJournalFlushes, kJournalBytes,
    kGfXor, kGfMul,
    kPlacements,  ///< placement.decisions
    kCounters
  };
  std::array<std::uint64_t, kCounters> n{};
  double cpu_s = 0.0;  ///< process user+sys CPU

  [[nodiscard]] double operator[](Counter c) const {
    return static_cast<double>(n[c]);
  }
  Boundary& operator+=(const Boundary& o) {
    for (std::size_t i = 0; i < kCounters; ++i) n[i] += o.n[i];
    cpu_s += o.cpu_s;
    return *this;
  }
  friend Boundary operator-(Boundary a, const Boundary& b) {
    for (std::size_t i = 0; i < kCounters; ++i) a.n[i] -= b.n[i];
    a.cpu_s -= b.cpu_s;
    return a;
  }
};

/// Sums of OpReport fields over completed ops.
struct ReportSums {
  std::uint64_t ops = 0;
  std::uint64_t chunks_put = 0, chunks_read = 0, chunks_updated = 0;
  std::uint64_t bytes_put = 0;
  std::uint64_t parity_reads = 0, retries = 0, hedges = 0;
  void add(const ReportSums& o);
};

/// What the traced windows of a run leave for layers.cpp.
struct TraceCapture {
  double traced_s = 0.0, untraced_s = 0.0;
  std::uint64_t traced_ops = 0, untraced_ops = 0;
  ReportSums sums;  ///< ops started in traced windows
  Boundary delta;   ///< boundary deltas summed over traced windows
  std::vector<obs::SpanRecord> spans;
  obs::MetricsRegistry::Snapshot metrics;     ///< distributor sink
  std::string metrics_text, raid_text;  ///< Prometheus expositions of both
  std::vector<double> queue_depth_samples;    ///< batcher gauge, sampled
};

/// Shape of the chunk rows the run stored, for the layer replays.
struct RowShape {
  std::size_t chunk_bytes = 0;    ///< plaintext chunk
  std::size_t padded_bytes = 0;   ///< with chaff
  std::size_t protect_bytes = 0;  ///< AES-encrypted prefix
  std::size_t positions = 0;      ///< chaff positions per row (incl. snapshot)
  double row_bytes = 0.0;         ///< encoded row, mean over live rows
  double misleading_row_bytes = 0.0;
  std::size_t live_chunks = 0;
};

/// Everything a run measured.
struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0, failed = 0;
  Metrics e2e, layers;
  Metrics named;  ///< per-op-type view of e2e: put_*, get_*, update_*
  std::map<std::string, std::string> info;  ///< recorded beside the metrics
};

[[nodiscard]] RunResult run_workload(const RunOptions& opt);

/// Keeps the CPUs of a pinned run from going idle. On a VM an idle vCPU
/// halts and the hypervisor hands its core to another guest; the wake-up
/// (a shard handed to a pool thread, an fsync completing) then waits until
/// the core comes back, which /proc/stat books as steal. A busy vCPU is
/// not descheduled that way. So one spinner per allowed CPU runs at
/// SCHED_IDLE: it runs only when no thread of the run is runnable, and a
/// waking thread preempts it at once. Its CPU time is kept out of
/// cpu_ms_per_op. Start it after pinning; destroying it stops and joins
/// the spinners.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  /// CPU seconds the running spinners have used.
  [[nodiscard]] static double spun_seconds();

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Child-process half of metadata.rss_bytes_per_chunk: recovers the plane
/// whose journals and checkpoints are in `dir` in a fresh process, so no
/// heap freed earlier can be reused, and prints "<resident growth> <live
/// chunks>".
[[nodiscard]] int recovery_rss_child(const std::string& dir,
                                     std::size_t shards);

/// Per-layer metrics of a traced run (layers.cpp).
void layer_metrics(const WorkloadSpec& spec, const RunOptions& opt,
                   storage::ProviderRegistry& registry,
                   const TraceCapture& cap, const RowShape& shape,
                   Metrics& out);

/// Tail rule: the highest percentile of the ladder with at least ten
/// samples beyond it. Returns {value, percentile}; the maximum, as
/// percentile 100, when the sample is too small for even the median.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};
/// The tail ladder stops at p90: on a shared host the p99 of fsync-bound
/// updates swung 1.4-2.1 ms over five seeds (p95: 7%, p90: 5%). p95 and p99
/// are reported beside it. Sample tails and histogram tails both use it.
inline constexpr double kTailLadder[] = {0.9, 0.75, 0.5};
[[nodiscard]] Tail tail_of(std::vector<double> v,
                           std::span<const double> ladder = kTailLadder);
[[nodiscard]] double median_of(std::vector<double> v);

/// Monotonic seconds.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace cloudbench
