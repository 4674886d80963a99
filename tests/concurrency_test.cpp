// Concurrency stress for the pipelined stripe engine and the indexed
// MetadataStore: 8 client threads interleave put/get/update/remove through
// two distributor front-ends that share one MetadataStore over one provider
// registry (the Fig. 2 multi-distributor topology). Every operation's result
// is integrity-checked, so the test catches lost updates and torn reads as
// well as data races. Run under -fsanitize=thread (CSHIELD_SANITIZE=thread)
// to certify the locking.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/chunker.hpp"
#include "core/distributor.hpp"
#include "core/journal.hpp"
#include "core/migrator.hpp"
#include "core/scrubber.hpp"
#include "core/tables.hpp"
#include "obs/telemetry.hpp"
#include "storage/provider_registry.hpp"

namespace cshield::core {
namespace {

constexpr std::size_t kThreads = 8;
constexpr int kItersPerThread = 24;

Bytes payload_of(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

struct SharedFixture {
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  std::shared_ptr<MetadataStore> metadata = std::make_shared<MetadataStore>();
  std::vector<std::unique_ptr<CloudDataDistributor>> frontends;

  SharedFixture() {
    for (std::size_t i = 0; i < 2; ++i) {
      DistributorConfig config;
      config.stripe_data_shards = 3;
      config.misleading_fraction = 0.15;
      config.worker_threads = 4;
      // Distinct seeds: each front-end must mint its own virtual-id stream.
      config.seed = 0xC10D0D15ULL + 0x9E3779B9ULL * (i + 1);
      frontends.push_back(std::make_unique<CloudDataDistributor>(
          registry, config, metadata));
    }
  }

  CloudDataDistributor& frontend(std::size_t n) {
    return *frontends[n % frontends.size()];
  }
};

TEST(ConcurrencyTest, InterleavedFileLifecyclesStayConsistent) {
  SharedFixture f;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::string client = "C" + std::to_string(t);
    ASSERT_TRUE(f.frontend(t).register_client(client).ok());
    ASSERT_TRUE(
        f.frontend(t).add_password(client, "pw7Q", PrivacyLevel::kHigh).ok());
  }

  std::atomic<int> failures{0};
  auto worker = [&](std::size_t t) {
    const std::string client = "C" + std::to_string(t);
    PutOptions opts;
    opts.privacy_level = PrivacyLevel::kModerate;
    for (int i = 0; i < kItersPerThread; ++i) {
      // Writes go through one front-end, reads through the other -- the
      // shared store is the only thing keeping them coherent.
      CloudDataDistributor& writer = f.frontend(t + i);
      CloudDataDistributor& reader = f.frontend(t + i + 1);
      const std::string name = "f" + std::to_string(i);
      const std::uint64_t seed = t * 1000 + i;
      const Bytes v1 = payload_of(2500 + t * 13 + i, seed);

      if (!writer.put_file(client, "pw7Q", name, v1, opts).ok()) {
        ++failures;
        continue;
      }
      Result<Bytes> back = reader.get_file(client, "pw7Q", name);
      if (!back.ok() || !equal(back.value(), v1)) ++failures;

      const Bytes v2 = payload_of(900, seed ^ 0xBEEF);
      if (!writer.update_chunk(client, "pw7Q", name, 0, v2).ok()) ++failures;
      Result<Bytes> chunk0 = reader.get_chunk(client, "pw7Q", name, 0);
      if (!chunk0.ok() || !equal(chunk0.value(), v2)) ++failures;
      Result<Bytes> snap = reader.get_chunk_snapshot(client, "pw7Q", name, 0);
      if (!snap.ok()) ++failures;

      Result<std::vector<CloudDataDistributor::FileInfo>> listed =
          reader.list_files(client, "pw7Q");
      if (!listed.ok() || listed.value().empty()) ++failures;

      if (!writer.remove_file(client, "pw7Q", name).ok()) ++failures;
      if (reader.get_file(client, "pw7Q", name).status().code() !=
          ErrorCode::kNotFound) {
        ++failures;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Everything was removed; no shard may survive at any provider.
  std::size_t stored = 0;
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    stored += f.registry.at(p).object_count();
  }
  EXPECT_EQ(stored, 0u);
}

TEST(ConcurrencyTest, DuplicateFilenameRaceAdmitsExactlyOneWriter) {
  SharedFixture f;
  ASSERT_TRUE(f.frontend(0).register_client("Shared").ok());
  ASSERT_TRUE(f.frontend(0)
                  .add_password("Shared", "pw7Q", PrivacyLevel::kHigh)
                  .ok());

  // All threads race to claim the same filename; the claim must admit
  // exactly one and every loser must roll back to zero footprint.
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, &winners, t] {
      PutOptions opts;
      opts.privacy_level = PrivacyLevel::kModerate;
      const Bytes data = payload_of(4000, 0xD00D + t);
      if (f.frontend(t).put_file("Shared", "pw7Q", "contested", data, opts)
              .ok()) {
        ++winners;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners.load(), 1);

  Result<Bytes> back = f.frontend(1).get_file("Shared", "pw7Q", "contested");
  ASSERT_TRUE(back.ok()) << back.status().to_string();

  // The winner's file reads back intact and is one of the candidates.
  bool matches_some_candidate = false;
  for (std::size_t t = 0; t < kThreads; ++t) {
    if (equal(back.value(), payload_of(4000, 0xD00D + t))) {
      matches_some_candidate = true;
    }
  }
  EXPECT_TRUE(matches_some_candidate);
}

TEST(ConcurrencyTest, ParallelReadersShareOneFile) {
  SharedFixture f;
  ASSERT_TRUE(f.frontend(0).register_client("Reader").ok());
  ASSERT_TRUE(f.frontend(0)
                  .add_password("Reader", "pw7Q", PrivacyLevel::kHigh)
                  .ok());
  const Bytes data = payload_of(60000, 0xCAFE);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kLow;
  ASSERT_TRUE(
      f.frontend(0).put_file("Reader", "pw7Q", "hot.bin", data, opts).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, &data, &failures, t] {
      for (int i = 0; i < 8; ++i) {
        Result<Bytes> back =
            f.frontend(t + i).get_file("Reader", "pw7Q", "hot.bin");
        if (!back.ok() || !equal(back.value(), data)) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// End-to-end hammer over the two perf paths this layer grew: shard puts
// coalesced into cross-op put_many RPCs (ShardBatcher) and metadata appends
// folded into group commits. Eight clients write, verify, and the totals
// must stay exact -- run under TSan this certifies the batcher lanes and
// the journal's leader/waiter protocol.
TEST(ConcurrencyTest, BatchedRpcAndGroupCommitSurviveClientHammer) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("cshield_gc_hammer_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  {
    auto opened = Journal::open(dir / "j.wal");
    ASSERT_TRUE(opened.ok());
    std::shared_ptr<Journal> journal(std::move(opened).value());
    journal->set_group_commit(
        GroupCommitConfig{32, std::chrono::milliseconds(2)});

    storage::ProviderRegistry registry = storage::make_default_registry(12);
    DistributorConfig config;
    config.stripe_data_shards = 3;
    config.misleading_fraction = 0.1;
    config.worker_threads = 4;
    config.seed = 0xBA7C11;
    config.journal = journal;
    config.rpc_batch_shards = 8;
    config.rpc_batch_wait = std::chrono::microseconds(300);
    auto metadata = std::make_shared<MetadataStore>();
    CloudDataDistributor cdd(registry, config, metadata);

    for (std::size_t t = 0; t < kThreads; ++t) {
      const std::string client = "B" + std::to_string(t);
      ASSERT_TRUE(cdd.register_client(client).ok());
      ASSERT_TRUE(
          cdd.add_password(client, "pw7Q", PrivacyLevel::kHigh).ok());
    }

    constexpr int kFiles = 12;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const std::string client = "B" + std::to_string(t);
        PutOptions opts;
        opts.privacy_level = PrivacyLevel::kModerate;
        for (int i = 0; i < kFiles; ++i) {
          const std::string name = "s" + std::to_string(i);
          const Bytes data = payload_of(1024 + t * 211 + i * 97, t * 100 + i);
          if (!cdd.put_file(client, "pw7Q", name, data, opts).ok()) {
            ++failures;
            continue;
          }
          Result<Bytes> back = cdd.get_file(client, "pw7Q", name);
          if (!back.ok() || !equal(back.value(), data)) ++failures;
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);

    // The batched data path actually carried the shards...
    std::uint64_t batch_rpcs = 0;
    for (ProviderIndex p = 0; p < registry.size(); ++p) {
      batch_rpcs += registry.at(p).counters().batch_requests.load();
    }
    EXPECT_GT(batch_rpcs, 0u);
    // ...and every metadata mutation reached the journal (1 begin + 1
    // commit per successful put, plus client/password registrations).
    EXPECT_GE(journal->total_appended(),
              static_cast<std::uint64_t>(kThreads) * (2 + 2 * kFiles));
  }

  // The group-committed journal replays cleanly after "the process" exits.
  auto reopened = Journal::open(dir / "j.wal");
  ASSERT_TRUE(reopened.ok());
  EXPECT_GT(reopened.value()->record_count(), 0u);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// Live chunk rows no client ref points at: storage nothing can read and
/// reconcile() never reclaims (a live row counts as a reference).
std::size_t live_unlinked_rows(const MetadataStore& md) {
  std::set<std::size_t> linked;
  for (const ClientEntry& c : md.client_table()) {
    for (const ChunkRef& ref : c.chunks) linked.insert(ref.chunk_index);
  }
  const std::vector<ChunkEntry> rows = md.chunk_table();
  std::size_t n = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].deleted && linked.count(i) == 0) ++n;
  }
  return n;
}

/// Runs `a` and `b` on two threads released together, so the calls overlap
/// as closely as the scheduler allows; counts exceptions escaping either.
void race(const std::function<void()>& a, const std::function<void()>& b,
          std::atomic<int>& exceptions) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  auto run = [&](const std::function<void()>& fn) {
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    try {
      fn();
    } catch (...) {
      exceptions.fetch_add(1);
    }
  };
  std::thread ta(run, std::cref(a));
  std::thread tb(run, std::cref(b));
  while (ready.load() < 2) std::this_thread::yield();
  go.store(true);
  ta.join();
  tb.join();
}

// update_chunk racing remove_chunk on one chunk, through two front-ends.
// Whichever commits first, the row must end removed and unlinked: an update
// that loses to the tombstone reports NotFound, and one that wins is
// retired by the remove. Neither call may throw.
TEST(ConcurrencyTest, UpdateRacingRemoveLeavesNoLiveUnlinkedRow) {
  SharedFixture f;
  ASSERT_TRUE(f.frontend(0).register_client("R").ok());
  ASSERT_TRUE(
      f.frontend(0).add_password("R", "pw7Q", PrivacyLevel::kHigh).ok());
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  constexpr int kRounds = 1000;
  std::atomic<int> exceptions{0};
  int leaked = 0;
  int both_ok = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string name = "r" + std::to_string(round);
    ASSERT_TRUE(f.frontend(0)
                    .put_file("R", "pw7Q", name, payload_of(700, round), opts)
                    .ok());
    const std::size_t index =
        f.metadata->find_chunk("R", name, 0).value().chunk_index;
    const Bytes v2 = payload_of(500, round ^ 0xABCD);
    Status updated = Status::Ok();
    Status removed = Status::Ok();
    race([&] {
           updated = f.frontend(0).update_chunk("R", "pw7Q", name, 0, v2);
         },
         [&] { removed = f.frontend(1).remove_chunk("R", "pw7Q", name, 0); },
         exceptions);
    ASSERT_TRUE(removed.ok()) << removed.to_string();
    if (updated.ok()) ++both_ok;
    const bool live = !f.metadata->chunk_entry(index).value().deleted;
    if (live && !f.metadata->find_chunk("R", name, 0).has_value()) ++leaked;
  }
  EXPECT_EQ(exceptions.load(), 0);
  EXPECT_EQ(leaked, 0);
  EXPECT_EQ(live_unlinked_rows(*f.metadata), 0u);
  // Every round removed its chunk, so no shard may survive anywhere.
  std::size_t stored = 0;
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    stored += f.registry.at(p).object_count();
  }
  EXPECT_EQ(stored, 0u) << both_ok << " rounds had both calls succeed";
}

// A reader that resolved its ref just before a concurrent remove meets the
// tombstone: it must report NotFound (or read the old bytes), never throw.
TEST(ConcurrencyTest, GetRacingRemoveNeverThrows) {
  SharedFixture f;
  ASSERT_TRUE(f.frontend(0).register_client("G").ok());
  ASSERT_TRUE(
      f.frontend(0).add_password("G", "pw7Q", PrivacyLevel::kHigh).ok());
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  constexpr int kRounds = 300;
  std::atomic<int> exceptions{0};
  int wrong = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string name = "g" + std::to_string(round);
    const Bytes data = payload_of(600, round);
    ASSERT_TRUE(
        f.frontend(0).put_file("G", "pw7Q", name, data, opts).ok());
    Result<Bytes> got = Status::Internal("not run");
    Status removed = Status::Ok();
    race([&] { got = f.frontend(1).get_chunk("G", "pw7Q", name, 0); },
         [&] { removed = f.frontend(0).remove_chunk("G", "pw7Q", name, 0); },
         exceptions);
    ASSERT_TRUE(removed.ok()) << removed.to_string();
    if (got.ok() && !equal(got.value(), data)) ++wrong;
  }
  EXPECT_EQ(exceptions.load(), 0);
  EXPECT_EQ(wrong, 0);
}

// Seeded schedule checker: four clients issue random put/update/remove/get
// calls over three shared keys while a scrubber loops and a background
// drain walks the table. After quiesce, reconcile must find nothing to
// clean -- no orphan objects, no stale provider-table ids -- no live row may
// be unlinked, and every linked chunk must read back bytes some successful
// put or update wrote there.
TEST(ConcurrencyTest, SeededScheduleKeepsRowsRefsAndObjectsInStep) {
  constexpr std::size_t kClients = 4;
  constexpr int kOpsPerClient = 60;
  const std::string keys[] = {"k0", "k1", "k2"};
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  DistributorConfig config;
  config.stripe_data_shards = 3;
  config.misleading_fraction = 0.1;
  config.worker_threads = 2;
  config.seed = 0x5EEDED;
  CloudDataDistributor cdd(registry, config);
  ASSERT_TRUE(cdd.register_client("S").ok());
  ASSERT_TRUE(cdd.add_password("S", "pw7Q", PrivacyLevel::kHigh).ok());
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;

  // Every value a successful op wrote, per (key, serial).
  std::mutex written_mu;
  std::map<std::pair<std::string, std::uint64_t>, std::vector<Bytes>> written;
  auto record_put = [&](const std::string& key, const Bytes& data) {
    std::lock_guard<std::mutex> lock(written_mu);
    for (RawChunk& c : split_file(data, opts.privacy_level,
                                  config.chunk_sizes)) {
      written[{key, c.serial}].push_back(std::move(c.data));
    }
  };
  for (const std::string& key : keys) {
    const Bytes data = payload_of(6000, key[1]);
    ASSERT_TRUE(cdd.put_file("S", "pw7Q", key, data, opts).ok());
    record_put(key, data);
  }
  // Drain the most loaded provider in the background.
  ProviderIndex subject = 0;
  std::vector<std::size_t> load(registry.size(), 0);
  for (const ChunkEntry& row : cdd.metadata().chunk_table()) {
    for (const ShardLocation& loc : row.stripe) ++load[loc.provider];
  }
  for (ProviderIndex p = 1; p < registry.size(); ++p) {
    if (load[p] > load[subject]) subject = p;
  }
  Migrator::Config mconfig;
  mconfig.stripes_per_sec = 100.0;
  mconfig.max_in_flight = 2;
  Migrator migrator(cdd, mconfig);
  migrator.start(MigrationKind::kDrain, subject);
  std::atomic<bool> clients_done{false};
  std::thread scrub([&] {
    Scrubber scrubber(cdd);
    while (!clients_done.load()) (void)scrubber.run_pass();
  });

  std::atomic<int> exceptions{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(0x5C4ED + t);
      for (int i = 0; i < kOpsPerClient; ++i) {
        const std::string& key = keys[rng.below(3)];
        const std::uint64_t serial = rng.below(2);
        const std::uint64_t roll = rng.below(100);
        try {
          if (roll < 30) {
            const Bytes data = payload_of(1000 + rng.below(9000), rng.next());
            if (cdd.put_file("S", "pw7Q", key, data, opts).ok()) {
              record_put(key, data);
            }
          } else if (roll < 55) {
            const Bytes data = payload_of(200 + rng.below(3000), rng.next());
            if (cdd.update_chunk("S", "pw7Q", key, serial, data).ok()) {
              std::lock_guard<std::mutex> lock(written_mu);
              written[{key, serial}].push_back(data);
            }
          } else if (roll < 70) {
            (void)cdd.remove_file("S", "pw7Q", key);
          } else if (roll < 78) {
            (void)cdd.remove_chunk("S", "pw7Q", key, serial);
          } else if (roll < 90) {
            (void)cdd.get_chunk("S", "pw7Q", key, serial);
          } else {
            (void)cdd.get_file("S", "pw7Q", key);
          }
        } catch (...) {
          exceptions.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  clients_done.store(true);
  scrub.join();
  ASSERT_TRUE(migrator.wait().ok());
  EXPECT_EQ(exceptions.load(), 0);

  Result<CloudDataDistributor::ReconcileReport> report = cdd.reconcile({});
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().orphans_removed, 0u);
  EXPECT_EQ(report.value().stale_ids, 0u);
  EXPECT_EQ(report.value().repaired_shards, 0u);
  EXPECT_EQ(live_unlinked_rows(cdd.metadata()), 0u);

  // Every object at a provider is one a live row references.
  std::map<ProviderIndex, std::set<VirtualId>> referenced;
  for (const ChunkEntry& row : cdd.metadata().chunk_table()) {
    if (row.deleted) continue;
    for (const auto* locs : {&row.stripe, &row.snapshot}) {
      for (const ShardLocation& loc : *locs) {
        referenced[loc.provider].insert(loc.virtual_id);
      }
    }
  }
  for (ProviderIndex p = 0; p < registry.size(); ++p) {
    for (VirtualId id : registry.at(p).list_ids()) {
      EXPECT_EQ(referenced[p].count(id), 1u) << "orphan at provider " << p;
    }
  }
  for (const std::string& key : keys) {
    for (const ChunkRef& ref : cdd.metadata().file_chunks("S", key)) {
      Result<Bytes> back = cdd.get_chunk("S", "pw7Q", key, ref.serial);
      ASSERT_TRUE(back.ok()) << key << "#" << ref.serial << ": "
                             << back.status().to_string();
      const std::vector<Bytes>& candidates = written[{key, ref.serial}];
      EXPECT_TRUE(std::any_of(candidates.begin(), candidates.end(),
                              [&](const Bytes& w) {
                                return equal(w, back.value());
                              }))
          << key << "#" << ref.serial << " holds bytes no op wrote";
    }
  }
}

// Hammers one Telemetry sink from many writer threads (counters, gauges,
// histograms, spans) while a reader thread continuously snapshots and
// renders it. Verifies nothing is lost: counter totals, histogram counts
// and the tracer's recorded() tally must all equal the work submitted.
TEST(ConcurrencyTest, TelemetryHammerKeepsExactTotals) {
  constexpr std::size_t kWriters = 8;
  constexpr int kOpsPerWriter = 2000;
  obs::Telemetry tel(true, /*span_capacity=*/256);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)tel.metrics().snapshot();
      (void)tel.metrics().to_prometheus();
      (void)tel.metrics().to_json();
      (void)tel.tracer().snapshot();
      (void)tel.tracer().to_jsonl();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&tel, t] {
      // Shared metric plus a per-thread one: exercises both contended RMWs
      // and the shared-lock name lookup from many threads at once.
      obs::Counter& shared = tel.metrics().counter("hammer.shared_total");
      obs::Counter& mine =
          tel.metrics().counter("hammer.t" + std::to_string(t) + "_total");
      obs::Histogram& lat = tel.metrics().histogram("hammer.lat_ns");
      obs::Gauge& depth = tel.metrics().gauge("hammer.depth");
      for (int i = 0; i < kOpsPerWriter; ++i) {
        depth.add(1);
        shared.inc();
        mine.inc();
        lat.observe(1e3 * static_cast<double>(i % 1000 + 1));
        obs::SpanRecord proto;
        proto.op_id = tel.tracer().next_id();
        proto.name = "hammer";
        obs::ScopedSpan span(&tel, std::move(proto));
        span.rec().sim_ns = i;
        depth.add(-1);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  constexpr std::uint64_t kTotal = kWriters * kOpsPerWriter;
  const obs::MetricsRegistry::Snapshot s = tel.metrics().snapshot();
  EXPECT_EQ(s.counters.at("hammer.shared_total"), kTotal);
  for (std::size_t t = 0; t < kWriters; ++t) {
    EXPECT_EQ(s.counters.at("hammer.t" + std::to_string(t) + "_total"),
              static_cast<std::uint64_t>(kOpsPerWriter));
  }
  const auto& lat = s.histograms.at("hammer.lat_ns");
  EXPECT_EQ(lat.count, kTotal);
  std::uint64_t bucket_sum = 0;
  for (std::uint64_t c : lat.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, kTotal);
  EXPECT_EQ(s.gauges.at("hammer.depth"), 0);
  EXPECT_EQ(tel.tracer().recorded(), kTotal);
  EXPECT_EQ(tel.tracer().snapshot().size(), tel.tracer().capacity());
}

}  // namespace
}  // namespace cshield::core
