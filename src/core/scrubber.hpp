// Background integrity scrubber.
//
// The paper's SIII-A worries include providers that silently corrupt or
// lose data. Per-read digest checks only catch that *when a client reads*;
// a shard can rot for months on a cold chunk and surprise the client after
// redundancy has already eroded. The scrubber closes that gap: it walks
// the chunk table continuously, re-fetches every shard (stripe and
// snapshot), verifies the SHA-256 digests the tables record, and routes
// anything missing or corrupt through the distributor's repair path --
// so corruption is found and healed before a client read can observe it.
//
// Mechanics: each pass is a ChunkWalker walk (core/chunk_walker.hpp) with
// one row in flight, calling CloudDataDistributor::heal_chunk per row
// (shard probes fan out on the shard-I/O pool); the walker also paces the
// pass (chunks_per_sec) and runs the background loop. Providers that served
// corrupt bytes are charged a `scrub_errors` counter, and each pass emits
// scrub.* metrics plus a scrub_pass trace span through the distributor's
// telemetry facade.
#pragma once

#include <atomic>
#include <chrono>

#include "core/chunk_walker.hpp"
#include "core/distributor.hpp"
#include "obs/telemetry.hpp"

namespace cshield::core {

class Scrubber {
 public:
  struct Config {
    /// Scan-rate ceiling; 0 = unthrottled (scrub as fast as probes allow).
    double chunks_per_sec = 0.0;
    /// Pause between consecutive passes in background mode.
    std::chrono::milliseconds pass_interval{100};
  };

  /// Cumulative scrub state (all passes since construction).
  struct Progress {
    std::uint64_t passes = 0;
    std::uint64_t chunks_scanned = 0;
    std::uint64_t shards_repaired = 0;
    std::uint64_t digest_mismatches = 0;  ///< shards served with bad bytes
    std::uint64_t scan_errors = 0;  ///< chunks whose heal failed outright
    std::size_t cursor = 0;         ///< chunk index the scan is at
    bool running = false;           ///< background thread active
  };

  /// `dist` must outlive the scrubber.
  explicit Scrubber(CloudDataDistributor& dist) : Scrubber(dist, Config{}) {}
  Scrubber(CloudDataDistributor& dist, Config config)
      : dist_(dist), config_(config), walker_(1, config.chunks_per_sec) {}

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// One full synchronous pass over the chunk table. Returns the shards
  /// repaired, or the first heal error encountered (the pass still visits
  /// every remaining chunk first -- one sick stripe must not shadow the
  /// rest of the table).
  Result<std::size_t> run_pass() {
    obs::Telemetry* tel = dist_.telemetry().get();
    obs::SpanRecord proto;
    proto.name = "scrub_pass";
    if (tel->enabled()) proto.op_id = tel->tracer().next_id();
    obs::ScopedSpan span(tel, std::move(proto));

    // Global index bound: on a sharded plane this interleaves every
    // partition; sparse globals heal as NotFound no-ops.
    const std::size_t n = dist_.chunk_index_bound();
    // `scrub.progress` (0..100) makes a long pass visible mid-flight; a
    // scrape between passes reads 100 (the last pass completed).
    obs::Gauge* progress_gauge =
        tel->enabled() ? &tel->metrics().gauge("scrub.progress") : nullptr;
    if (progress_gauge != nullptr) progress_gauge->set(0);
    std::size_t repaired = 0;
    std::size_t mismatched = 0;
    std::size_t scanned = 0;
    // One row in flight, so the visit runs on this thread.
    const Status first_error = walker_.walk(n, [&](std::size_t idx) {
      Result<CloudDataDistributor::StripeHealStats> healed =
          dist_.heal_chunk(idx);
      ++scanned;
      chunks_scanned_.fetch_add(1, std::memory_order_relaxed);
      if (progress_gauge != nullptr) {
        progress_gauge->set(static_cast<std::int64_t>((idx + 1) * 100 / n));
      }
      if (!healed.ok()) {
        scan_errors_.fetch_add(1, std::memory_order_relaxed);
        return healed.status();
      }
      // Once per corrupt shard, however many attempts the heal took.
      for (ProviderIndex p : healed.value().corrupt) {
        dist_.registry().at(p).note_scrub_error();
      }
      mismatched += healed.value().corrupt.size();
      mismatches_.fetch_add(healed.value().corrupt.size(),
                            std::memory_order_relaxed);
      repaired += healed.value().fixed;
      shards_repaired_.fetch_add(healed.value().fixed,
                                 std::memory_order_relaxed);
      return Status::Ok();
    });
    if (progress_gauge != nullptr && !walker_.stopping()) {
      progress_gauge->set(100);
    }
    passes_.fetch_add(1, std::memory_order_relaxed);
    if (tel->enabled()) {
      obs::MetricsRegistry& m = tel->metrics();
      m.counter("scrub.passes").inc();
      if (scanned != 0) m.counter("scrub.chunks_scanned").inc(scanned);
      if (repaired != 0) m.counter("scrub.shards_repaired").inc(repaired);
      if (mismatched != 0) {
        m.counter("scrub.digest_mismatches").inc(mismatched);
      }
      if (span.armed()) {
        span.rec().chunk = scanned;
        span.rec().outcome = first_error.code();
      }
    }
    if (!first_error.ok()) return first_error;
    return repaired;
  }

  /// Starts the background loop: repeated passes separated by
  /// Config::pass_interval. No-op if already running.
  void start() {
    walker_.start([this] {
      while (!walker_.stopping()) {
        (void)run_pass();
        if (walker_.sleep_for(config_.pass_interval)) break;
      }
    });
  }

  /// Stops the background loop (mid-pass stops at the next chunk
  /// boundary) and joins the thread. Safe to call when not running.
  void stop() { walker_.stop(); }

  [[nodiscard]] Progress progress() const {
    Progress p;
    p.passes = passes_.load(std::memory_order_relaxed);
    p.chunks_scanned = chunks_scanned_.load(std::memory_order_relaxed);
    p.shards_repaired = shards_repaired_.load(std::memory_order_relaxed);
    p.digest_mismatches = mismatches_.load(std::memory_order_relaxed);
    p.scan_errors = scan_errors_.load(std::memory_order_relaxed);
    p.cursor = walker_.cursor();
    p.running = walker_.running();
    return p;
  }

 private:
  CloudDataDistributor& dist_;
  Config config_;
  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> chunks_scanned_{0};
  std::atomic<std::uint64_t> shards_repaired_{0};
  std::atomic<std::uint64_t> mismatches_{0};
  std::atomic<std::uint64_t> scan_errors_{0};
  ChunkWalker walker_;  ///< last: its destructor stops the pass loop
};

}  // namespace cshield::core
