#include "core/migrator.hpp"

#include "obs/watchdog.hpp"

namespace cshield::core {

Result<Migrator::Report> Migrator::do_run(MigrationKind kind,
                                          ProviderIndex subject) {
  chunks_visited_.store(0, std::memory_order_relaxed);
  shards_moved_.store(0, std::memory_order_relaxed);
  bytes_moved_.store(0, std::memory_order_relaxed);
  errors_.store(0, std::memory_order_relaxed);

  obs::Telemetry* tel = dist_.telemetry().get();
  obs::StallWatchdog* wd = dist_.config().watchdog.get();
  const std::int64_t deadline_ns = dist_.config().retry.deadline.count();

  CS_RETURN_IF_ERROR(dist_.begin_migration(kind, subject));

  obs::Gauge* progress_gauge = nullptr;
  obs::Gauge* active_gauge = nullptr;
  if (tel->enabled()) {
    obs::MetricsRegistry& m = tel->metrics();
    progress_gauge = &m.gauge("migration.progress");
    active_gauge = &m.gauge("migration.active");
    progress_gauge->set(0);
    active_gauge->set(1);
  }

  // Snapshot the global index bound once: chunks appended by concurrent
  // writes land on the post-begin topology (placement already excludes a
  // draining subject and still excludes a joining one), so they need no
  // migration. On a sharded plane the bound interleaves all partitions;
  // sparse globals resolve to NotFound inside migrate_chunk and are
  // skipped.
  const std::size_t n = dist_.chunk_index_bound();
  // Rows run concurrently (up to Config::max_in_flight); each fans its shard
  // RPCs out on the distributor's I/O pool.
  const Status first_error = walker_.walk(n, [&](std::size_t idx) -> Status {
    Result<CloudDataDistributor::ChunkMigrateStats> r = [&] {
      obs::StallWatchdog::Armed armed(wd, "migrate_chunk", deadline_ns);
      return dist_.migrate_chunk(idx, kind, subject);
    }();
    const std::uint64_t visited =
        chunks_visited_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (progress_gauge != nullptr) {
      progress_gauge->set(static_cast<std::int64_t>(visited * 100 / n));
    }
    if (!r.ok()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return r.status();
    }
    shards_moved_.fetch_add(r.value().moved, std::memory_order_relaxed);
    bytes_moved_.fetch_add(r.value().bytes, std::memory_order_relaxed);
    errors_.fetch_add(r.value().errors, std::memory_order_relaxed);
    return Status::Ok();
  });

  const Progress done = progress();
  Report report{done.chunks_visited, done.shards_moved, done.bytes_moved,
                done.errors};
  const bool stopped = walker_.stopping();
  if (tel->enabled()) {
    obs::MetricsRegistry& m = tel->metrics();
    m.counter("migration.chunks_visited").inc(report.chunks_visited);
    if (active_gauge != nullptr) active_gauge->set(0);
    if (progress_gauge != nullptr && !stopped && report.errors == 0) {
      progress_gauge->set(100);
    }
  }

  if (stopped) return report;  // paused, uncommitted: run() again to resume
  if (!first_error.ok()) return first_error;
  if (report.errors != 0) {
    return Status::ResourceExhausted(
        "migration incomplete: " + std::to_string(report.errors) +
        " shards could not be moved this pass; re-run to resume");
  }
  CS_RETURN_IF_ERROR(dist_.commit_migration(kind, subject));
  report.committed = true;
  return report;
}

void Migrator::start(MigrationKind kind, ProviderIndex subject) {
  walker_.start([this, kind, subject] {
    Result<Report> r = do_run(kind, subject);
    std::lock_guard<std::mutex> lock(mu_);
    bg_result_ = std::move(r);
  });
}

Result<Migrator::Report> Migrator::wait() {
  walker_.join();
  std::lock_guard<std::mutex> lock(mu_);
  return bg_result_;
}

}  // namespace cshield::core
