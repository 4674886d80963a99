// Background topology-migration engine.
//
// When the provider fleet changes at runtime -- a provider joins, drains or
// decommissions (§IV-C dynamic membership) -- some shards must change homes.
// The distributor supplies the per-chunk unit of work (migrate_chunk) and
// the journaled begin/commit protocol; the Migrator runs migrate_chunk as
// the per-row policy of a ChunkWalker walk (core/chunk_walker.hpp),
// `max_in_flight` rows at a time and optionally paced, synchronously (the
// CLI's drain command) or on the walker's background thread alongside live
// traffic, and reports through atomics and the migration.* metrics the
// health engine and watchdog consume.
//
// Crash safety is inherited, not reimplemented: every shard move the walk
// performs is copy -> commit (metadata + journal) -> delete, and the
// begin/commit records bracket the whole migration, so a crash at any point
// resumes by simply re-running -- already-moved shards are skipped, and
// reconcile() sweeps any orphan duplicates the crash left.
#pragma once

#include <atomic>
#include <mutex>

#include "core/chunk_walker.hpp"
#include "core/distributor.hpp"
#include "core/journal.hpp"

namespace cshield::core {

class Migrator {
 public:
  struct Config {
    /// Chunk-visit rate ceiling; 0 = unthrottled (migrate as fast as the
    /// request layer allows).
    double stripes_per_sec = 0.0;
    /// Concurrent migrate_chunk calls in flight (>= 1). Each call fans its
    /// own shard RPCs out on the distributor's I/O pool, so this bounds
    /// chunk-level, not shard-level, parallelism.
    std::size_t max_in_flight = 4;
  };

  /// What one run() accomplished (also readable mid-run via progress()).
  struct Report {
    std::uint64_t chunks_visited = 0;
    std::uint64_t shards_moved = 0;
    std::uint64_t bytes_moved = 0;
    std::uint64_t errors = 0;  ///< shards left for the next pass
    bool committed = false;    ///< kCommitMigrate was journaled
  };

  /// Live view of the current/last run.
  struct Progress {
    std::uint64_t chunks_visited = 0;
    std::uint64_t shards_moved = 0;
    std::uint64_t bytes_moved = 0;
    std::uint64_t errors = 0;
    std::size_t cursor = 0;  ///< chunk index the walk is at
    bool running = false;    ///< background thread active
  };

  /// `dist` must outlive the migrator.
  explicit Migrator(CloudDataDistributor& dist) : Migrator(dist, Config{}) {}
  Migrator(CloudDataDistributor& dist, Config config)
      : dist_(dist), walker_(config.max_in_flight, config.stripes_per_sec) {}

  Migrator(const Migrator&) = delete;
  Migrator& operator=(const Migrator&) = delete;

  /// One full synchronous migration: begin_migration, a throttled walk of
  /// the chunk table (bounded by Config::max_in_flight), then
  /// commit_migration -- skipped when shards could not be moved this pass
  /// (the returned Report says so; re-running resumes idempotently) or when
  /// stop() interrupted the walk. Safe to re-run after a crash: the begin
  /// record is re-issued idempotently and already-moved shards are skipped.
  Result<Report> run(MigrationKind kind, ProviderIndex subject) {
    walker_.rearm();
    return do_run(kind, subject);
  }

  /// Launches run() on a background thread. No-op while one is still
  /// running; a finished (completed, errored or stopped) background run is
  /// reaped and superseded, so start() also resumes an open migration.
  void start(MigrationKind kind, ProviderIndex subject);

  /// Asks a background run to stop at the next chunk boundary and joins
  /// it. The migration stays open (begun, uncommitted) -- run() again to
  /// resume. Safe to call when not running.
  void stop() { walker_.stop(); }

  /// Joins the background thread (without requesting a stop) and returns
  /// its final report. Ok/empty when none was started.
  Result<Report> wait();

  [[nodiscard]] Progress progress() const {
    Progress p;
    p.chunks_visited = chunks_visited_.load(std::memory_order_relaxed);
    p.shards_moved = shards_moved_.load(std::memory_order_relaxed);
    p.bytes_moved = bytes_moved_.load(std::memory_order_relaxed);
    p.errors = errors_.load(std::memory_order_relaxed);
    p.cursor = walker_.cursor();
    p.running = walker_.running();
    return p;
  }

 private:
  /// The walk itself; assumes the walker's stop request was cleared by the
  /// caller (run() for the synchronous path, the walker's start() for the
  /// background one, so a stop() racing a fresh start() is never lost).
  Result<Report> do_run(MigrationKind kind, ProviderIndex subject);

  CloudDataDistributor& dist_;
  std::atomic<std::uint64_t> chunks_visited_{0};
  std::atomic<std::uint64_t> shards_moved_{0};
  std::atomic<std::uint64_t> bytes_moved_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::mutex mu_;  ///< guards bg_result_
  Result<Report> bg_result_ = Report{};  ///< last background run, for wait()
  ChunkWalker walker_;  ///< last: its destructor stops a background run
};

}  // namespace cshield::core
