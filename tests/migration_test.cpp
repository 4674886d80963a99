// Dynamic provider topology tests: the lifecycle state machine
// (join/drain/decommission), placement eligibility under each state, the
// background Migrator's bounded-movement and data-preservation guarantees,
// availability during a drain under an active fault plan, a concurrent
// lifecycle hammer (the TSan target for the registry's shared_mutex), and
// -- the acceptance centerpiece -- a crash-injection sweep that kills a
// drain at every migration-journal boundary and proves recovery resumes it
// with zero lost chunks and idempotent re-runs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/distributor.hpp"
#include "core/journal.hpp"
#include "core/metadata_io.hpp"
#include "core/migrator.hpp"
#include "core/scrubber.hpp"
#include "obs/telemetry.hpp"
#include "storage/fault_plan.hpp"
#include "storage/provider_registry.hpp"

namespace cshield {
namespace {

namespace fs = std::filesystem;
using core::CloudDataDistributor;
using core::Journal;
using core::JournalRecord;
using core::MigrationKind;
using core::Migrator;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("cshield_migration_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

Bytes payload_of(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

Bytes read_disk(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return {};
  Bytes data(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  return data;
}

void write_disk(const fs::path& path, BytesView data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(out));
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

bool equal(BytesView a, BytesView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// All-PL3 fleet so every provider is placement-eligible for every file and
/// movement fractions are a pure function of the ring.
storage::ProviderRegistry flat_registry(std::size_t n) {
  storage::ProviderRegistry registry;
  for (std::size_t i = 0; i < n; ++i) {
    storage::ProviderDescriptor d;
    d.name = "P" + std::to_string(i);
    d.privacy_level = PrivacyLevel::kHigh;
    d.cost_level = static_cast<CostLevel>(i % 4);
    registry.add(std::move(d), storage::LatencyModel{}, 0x70B0'0000ULL + i);
  }
  return registry;
}

core::DistributorConfig base_config(std::uint64_t seed) {
  core::DistributorConfig config;
  config.stripe_data_shards = 3;
  config.misleading_fraction = 0.05;
  config.worker_threads = 2;
  config.seed = seed;
  return config;
}

storage::ProviderDescriptor joiner_descriptor(const std::string& name) {
  storage::ProviderDescriptor d;
  d.name = name;
  d.privacy_level = PrivacyLevel::kHigh;
  d.cost_level = CostLevel::kCheap;
  return d;
}

/// Total live shard slots across the chunk table (the denominator of the
/// "fraction of stripes moved" gate).
std::size_t total_shards(const core::MetadataStore& metadata) {
  std::size_t n = 0;
  for (const core::ChunkEntry& entry : metadata.chunk_table()) {
    if (!entry.deleted) n += entry.stripe.size();
  }
  return n;
}

/// Live shard slots currently placed on `p`.
std::size_t shards_on(const core::MetadataStore& metadata, ProviderIndex p) {
  std::size_t n = 0;
  for (const core::ChunkEntry& entry : metadata.chunk_table()) {
    if (entry.deleted) continue;
    for (const core::ShardLocation& loc : entry.stripe) {
      if (loc.provider == p) ++n;
    }
  }
  return n;
}

// --- lifecycle state machine ------------------------------------------------

TEST(LifecycleTest, RegistryStateMachineTransitions) {
  storage::ProviderRegistry reg = flat_registry(3);
  EXPECT_EQ(reg.lifecycle(0), ProviderLifecycle::kActive);

  // active -> draining, idempotently.
  EXPECT_TRUE(reg.drain(0).ok());
  EXPECT_EQ(reg.lifecycle(0), ProviderLifecycle::kDraining);
  EXPECT_TRUE(reg.drain(0).ok());

  // draining -> decommissioned, idempotently; then no way back.
  EXPECT_TRUE(reg.decommission(0).ok());
  EXPECT_EQ(reg.lifecycle(0), ProviderLifecycle::kDecommissioned);
  EXPECT_TRUE(reg.decommission(0).ok());
  const Status revive = reg.drain(0);
  EXPECT_EQ(revive.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(reg.activate(0).code(), ErrorCode::kFailedPrecondition);

  // joining -> active via activate(); a joining row cannot be retired.
  const ProviderIndex j = reg.add(joiner_descriptor("J"), {}, 0x1,
                                  ProviderLifecycle::kJoining);
  EXPECT_EQ(reg.lifecycle(j), ProviderLifecycle::kJoining);
  EXPECT_EQ(reg.decommission(j).code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(reg.activate(j).ok());
  EXPECT_EQ(reg.lifecycle(j), ProviderLifecycle::kActive);
  EXPECT_TRUE(reg.activate(j).ok());  // idempotent on active
}

TEST(LifecycleTest, OnlyActiveProvidersArePlacementEligible) {
  storage::ProviderRegistry reg = flat_registry(4);
  ASSERT_EQ(reg.eligible_for(PrivacyLevel::kHigh).size(), 4u);
  ASSERT_TRUE(reg.drain(1).ok());
  const ProviderIndex j = reg.add(joiner_descriptor("J"), {}, 0x2,
                                  ProviderLifecycle::kJoining);
  const std::vector<ProviderIndex> eligible =
      reg.eligible_for(PrivacyLevel::kHigh);
  EXPECT_EQ(eligible.size(), 3u);
  for (ProviderIndex p : eligible) {
    EXPECT_NE(p, 1u);
    EXPECT_NE(p, j);
  }
}

TEST(LifecycleTest, DrainOfLastActiveProviderIsRejected) {
  storage::ProviderRegistry reg = flat_registry(1);
  core::DistributorConfig config = base_config(0xD1);
  config.stripe_data_shards = 1;
  CloudDataDistributor cdd(reg, config);
  const Status st = cdd.begin_migration(MigrationKind::kDrain, 0);
  EXPECT_EQ(st.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(reg.lifecycle(0), ProviderLifecycle::kActive);
}

TEST(LifecycleTest, ConcurrentDrainsNeverRetireLastActive) {
  // Two racing drains of the final two active providers must not both
  // pass: the registry checks "at least one other active" and transitions
  // under one exclusive lock, so exactly one wins each round.
  for (int round = 0; round < 50; ++round) {
    storage::ProviderRegistry reg = flat_registry(2);
    Status a, b;
    std::thread t1([&] { a = reg.drain(0); });
    std::thread t2([&] { b = reg.drain(1); });
    t1.join();
    t2.join();
    EXPECT_NE(a.ok(), b.ok());
    EXPECT_TRUE(reg.lifecycle(0) == ProviderLifecycle::kActive ||
                reg.lifecycle(1) == ProviderLifecycle::kActive)
        << "both drains passed: fleet left with zero active providers";
  }
}

TEST(LifecycleTest, ConcurrentLifecycleHammer) {
  // TSan target: churn lifecycle transitions from several threads while
  // readers walk eligibility, descriptors and breakers. No assertion
  // beyond "no race, no torn enum": every observed state must be valid
  // and the final restored fleet fully eligible.
  storage::ProviderRegistry reg = flat_registry(8);
  std::atomic<bool> go{false};
  std::atomic<int> invalid{0};
  auto churner = [&](ProviderIndex base) {
    while (!go.load()) std::this_thread::yield();
    for (int iter = 0; iter < 400; ++iter) {
      const ProviderIndex p = base + (iter % 4);
      (void)reg.drain(p);
      (void)reg.activate(p);  // rejected while draining -- exercise failure
      reg.restore_lifecycle(p, ProviderLifecycle::kActive);
    }
  };
  auto reader = [&] {
    while (!go.load()) std::this_thread::yield();
    for (int iter = 0; iter < 400; ++iter) {
      (void)reg.eligible_for(PrivacyLevel::kHigh);
      for (ProviderIndex p = 0; p < reg.size(); ++p) {
        const int s = static_cast<int>(reg.lifecycle(p));
        if (s < 0 || s >= static_cast<int>(kNumProviderLifecycles)) {
          invalid.fetch_add(1);
        }
        (void)reg.at(p).descriptor().name;
        (void)reg.breaker(p).state();
      }
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(churner, 0);
  threads.emplace_back(churner, 4);
  threads.emplace_back(reader);
  threads.emplace_back(reader);
  go.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(invalid.load(), 0);
  for (ProviderIndex p = 0; p < reg.size(); ++p) {
    reg.restore_lifecycle(p, ProviderLifecycle::kActive);
  }
  EXPECT_EQ(reg.eligible_for(PrivacyLevel::kHigh).size(), 8u);
}

// --- join -------------------------------------------------------------------

TEST(MigrationTest, JoiningProviderTakesNoPlacementUntilActivated) {
  storage::ProviderRegistry reg = flat_registry(6);
  CloudDataDistributor cdd(reg, base_config(0x901));
  ASSERT_TRUE(cdd.register_client("alice").ok());
  ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kHigh).ok());
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;

  Result<ProviderIndex> added = cdd.add_provider(joiner_descriptor("Joiner"));
  ASSERT_TRUE(added.ok()) << added.status().to_string();
  const ProviderIndex joiner = added.value();
  EXPECT_EQ(reg.lifecycle(joiner), ProviderLifecycle::kJoining);

  const Bytes data = payload_of(9000, 7);
  ASSERT_TRUE(cdd.put_file("alice", "pw", "pre", data, opts).ok());
  EXPECT_EQ(shards_on(cdd.metadata(), joiner), 0u)
      << "kJoining provider received placement before its migration";

  // Duplicate names and empty names are rejected up front.
  EXPECT_FALSE(cdd.add_provider(joiner_descriptor("Joiner")).ok());
  EXPECT_FALSE(cdd.add_provider(joiner_descriptor("")).ok());

  Migrator migrator(cdd);
  Result<Migrator::Report> report = migrator.run(MigrationKind::kJoin, joiner);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().committed);
  EXPECT_EQ(reg.lifecycle(joiner), ProviderLifecycle::kActive);

  Result<Bytes> back = cdd.get_file("alice", "pw", "pre");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(back.value(), data));
}

TEST(MigrationTest, JoinMovesBoundedFractionAndResumesIdempotently) {
  storage::ProviderRegistry reg = flat_registry(8);
  CloudDataDistributor cdd(reg, base_config(0x902));
  ASSERT_TRUE(cdd.register_client("alice").ok());
  ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kHigh).ok());
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  const Bytes f1 = payload_of(24000, 1);
  const Bytes f2 = payload_of(15000, 2);
  ASSERT_TRUE(cdd.put_file("alice", "pw", "f1", f1, opts).ok());
  ASSERT_TRUE(cdd.put_file("alice", "pw", "f2", f2, opts).ok());
  const std::size_t shard_slots = total_shards(cdd.metadata());
  ASSERT_GT(shard_slots, 30u);

  Result<ProviderIndex> added = cdd.add_provider(joiner_descriptor("Joiner"));
  ASSERT_TRUE(added.ok());
  const ProviderIndex joiner = added.value();

  // Interrupted first pass: begin by hand, move a prefix of the chunks,
  // then let the Migrator resume -- it must re-issue begin idempotently,
  // skip what already moved, and finish the rest.
  ASSERT_TRUE(cdd.begin_migration(MigrationKind::kJoin, joiner).ok());
  std::size_t premoved = 0;
  const std::size_t half = cdd.metadata().total_chunks() / 2;
  for (std::size_t c = 0; c < half; ++c) {
    Result<CloudDataDistributor::ChunkMigrateStats> st =
        cdd.migrate_chunk(c, MigrationKind::kJoin, joiner);
    ASSERT_TRUE(st.ok()) << st.status().to_string();
    ASSERT_EQ(st.value().errors, 0u);
    premoved += st.value().moved;
  }

  Migrator migrator(cdd);
  Result<Migrator::Report> report = migrator.run(MigrationKind::kJoin, joiner);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().committed);
  EXPECT_EQ(report.value().errors, 0u);

  // The headline gate: a single join relocates at most 35% of shard slots
  // (~100% for a naive mod-N rehash; fair share here is 1/9 ~= 11%).
  const std::size_t moved = premoved + report.value().shards_moved;
  EXPECT_GT(moved, 0u);
  EXPECT_LE(static_cast<double>(moved),
            0.35 * static_cast<double>(shard_slots))
      << moved << " of " << shard_slots << " shard slots moved";
  EXPECT_EQ(shards_on(cdd.metadata(), joiner), moved);

  for (const auto& [name, want] :
       std::vector<std::pair<std::string, const Bytes*>>{{"f1", &f1},
                                                         {"f2", &f2}}) {
    Result<Bytes> back = cdd.get_file("alice", "pw", name);
    ASSERT_TRUE(back.ok()) << name;
    EXPECT_TRUE(equal(back.value(), *want)) << name;
  }

  // The migration is closed: a second join of the same provider is a
  // state-machine error, not a silent reshuffle.
  EXPECT_EQ(cdd.begin_migration(MigrationKind::kJoin, joiner).code(),
            ErrorCode::kFailedPrecondition);
}

// --- drain / decommission ---------------------------------------------------

TEST(MigrationTest, DrainEmptiesProviderPreservesDataThenDecommissions) {
  storage::ProviderRegistry reg = flat_registry(8);
  CloudDataDistributor cdd(reg, base_config(0x903));
  ASSERT_TRUE(cdd.register_client("alice").ok());
  ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kHigh).ok());
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  const Bytes f1 = payload_of(20000, 3);
  const Bytes f2 = payload_of(11000, 4);
  ASSERT_TRUE(cdd.put_file("alice", "pw", "f1", f1, opts).ok());
  ASSERT_TRUE(cdd.put_file("alice", "pw", "f2", f2, opts).ok());

  // Drain whichever provider carries the most shards with this seed.
  ProviderIndex subject = 0;
  for (ProviderIndex p = 1; p < reg.size(); ++p) {
    if (shards_on(cdd.metadata(), p) > shards_on(cdd.metadata(), subject)) {
      subject = p;
    }
  }
  const std::size_t before = shards_on(cdd.metadata(), subject);
  ASSERT_GT(before, 0u);

  Migrator migrator(cdd);
  Result<Migrator::Report> report =
      migrator.run(MigrationKind::kDrain, subject);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().committed);
  EXPECT_EQ(report.value().shards_moved, before);
  EXPECT_EQ(reg.lifecycle(subject), ProviderLifecycle::kDraining);
  EXPECT_EQ(shards_on(cdd.metadata(), subject), 0u);
  EXPECT_TRUE(reg.at(subject).raw_store().list_ids().empty())
      << "drained provider still holds objects";

  // Draining again is a no-op resume, not an error.
  Result<Migrator::Report> again =
      migrator.run(MigrationKind::kDrain, subject);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().shards_moved, 0u);

  // Retire it for good; new placement must avoid it.
  Result<Migrator::Report> retire =
      migrator.run(MigrationKind::kDecommission, subject);
  ASSERT_TRUE(retire.ok());
  EXPECT_TRUE(retire.value().committed);
  EXPECT_EQ(reg.lifecycle(subject), ProviderLifecycle::kDecommissioned);

  const Bytes f3 = payload_of(8000, 5);
  ASSERT_TRUE(cdd.put_file("alice", "pw", "f3", f3, opts).ok());
  EXPECT_EQ(shards_on(cdd.metadata(), subject), 0u);
  for (const auto& [name, want] :
       std::vector<std::pair<std::string, const Bytes*>>{
           {"f1", &f1}, {"f2", &f2}, {"f3", &f3}}) {
    Result<Bytes> back = cdd.get_file("alice", "pw", name);
    ASSERT_TRUE(back.ok()) << name;
    EXPECT_TRUE(equal(back.value(), *want)) << name;
  }
}

TEST(MigrationTest, DrainUnderFaultPlanKeepsEveryFileReadable) {
  // The availability acceptance criterion: drain 1 of 8 providers while a
  // transient fault plan is live; concurrent reads must succeed
  // byte-identical for the whole duration of the (throttled) migration.
  storage::ProviderRegistry reg = flat_registry(8);
  auto sink = std::make_shared<obs::Telemetry>(true);
  core::DistributorConfig config = base_config(0x904);
  config.telemetry = true;
  config.telemetry_sink = sink;
  CloudDataDistributor cdd(reg, config);
  ASSERT_TRUE(cdd.register_client("alice").ok());
  ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kHigh).ok());
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  const Bytes data = payload_of(18000, 6);
  ASSERT_TRUE(cdd.put_file("alice", "pw", "f", data, opts).ok());

  reg.apply_fault_plan(std::make_shared<const storage::FaultPlan>(
      storage::FaultPlan::transient(0x5EED, 0.05)));

  Migrator::Config mconfig;
  mconfig.stripes_per_sec = 50.0;  // slow the walk so reads overlap it
  mconfig.max_in_flight = 2;
  Migrator migrator(cdd, mconfig);
  migrator.start(MigrationKind::kDrain, 5);

  std::size_t reads = 0;
  while (migrator.progress().running) {
    Result<Bytes> back = cdd.get_file("alice", "pw", "f");
    ASSERT_TRUE(back.ok()) << "read failed mid-drain: "
                           << back.status().to_string();
    ASSERT_TRUE(equal(back.value(), data));
    ++reads;
  }
  Result<Migrator::Report> report = migrator.wait();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_GT(reads, 0u);

  // Transient noise may leave stragglers for a later pass; converge, then
  // the subject must be empty and data intact.
  for (int pass = 0; pass < 5 && !report.value().committed; ++pass) {
    report = migrator.run(MigrationKind::kDrain, 5);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
  }
  EXPECT_TRUE(report.value().committed);
  EXPECT_EQ(shards_on(cdd.metadata(), 5), 0u);
  reg.clear_fault_plan();
  Result<Bytes> back = cdd.get_file("alice", "pw", "f");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(back.value(), data));
  EXPECT_GT(sink->metrics().counter("migration.shards_moved").value(), 0u);
}

TEST(MigrationTest, BackgroundStopPausesAndRunResumes) {
  storage::ProviderRegistry reg = flat_registry(8);
  CloudDataDistributor cdd(reg, base_config(0x905));
  ASSERT_TRUE(cdd.register_client("alice").ok());
  ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kHigh).ok());
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  const Bytes data = payload_of(20000, 8);
  ASSERT_TRUE(cdd.put_file("alice", "pw", "f", data, opts).ok());

  Migrator::Config mconfig;
  mconfig.stripes_per_sec = 5.0;  // slow enough that stop() lands mid-walk
  Migrator migrator(cdd, mconfig);
  migrator.start(MigrationKind::kDrain, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  migrator.stop();
  Result<Migrator::Report> paused = migrator.wait();
  ASSERT_TRUE(paused.ok());
  EXPECT_FALSE(paused.value().committed);
  EXPECT_EQ(reg.lifecycle(2), ProviderLifecycle::kDraining);

  // Unthrottled resume finishes the job.
  Migrator resume(cdd);
  Result<Migrator::Report> done = resume.run(MigrationKind::kDrain, 2);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done.value().committed);
  EXPECT_EQ(shards_on(cdd.metadata(), 2), 0u);
  Result<Bytes> back = cdd.get_file("alice", "pw", "f");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(back.value(), data));
}

TEST(MigrationTest, BackgroundStartAfterFinishedRunLaunchesAgain) {
  // A completed background run leaves its thread joinable until
  // wait()/stop(); a second start() must reap it and launch, not silently
  // no-op while progress().running reports false.
  storage::ProviderRegistry reg = flat_registry(8);
  CloudDataDistributor cdd(reg, base_config(0x906));
  ASSERT_TRUE(cdd.register_client("alice").ok());
  ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kHigh).ok());
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  const Bytes data = payload_of(20000, 9);
  ASSERT_TRUE(cdd.put_file("alice", "pw", "f", data, opts).ok());

  Migrator migrator(cdd);
  migrator.start(MigrationKind::kDrain, 2);
  for (int i = 0; i < 20000 && migrator.progress().running; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(migrator.progress().running);

  // No wait() in between: the finished thread is still unreaped.
  migrator.start(MigrationKind::kDrain, 3);
  Result<Migrator::Report> report = migrator.wait();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().committed);
  EXPECT_EQ(reg.lifecycle(3), ProviderLifecycle::kDraining)
      << "second start() never launched";
  EXPECT_EQ(shards_on(cdd.metadata(), 3), 0u);
}

// --- migrator vs. concurrent chunk writers ----------------------------------

TEST(MetadataCasTest, UpdateChunkIfRefusesStaleVersion) {
  core::MetadataStore store;
  ASSERT_TRUE(store.register_client("alice").ok());
  ASSERT_TRUE(store.claim_file("alice", "f").ok());
  core::ChunkEntry entry;
  entry.privacy_level = PrivacyLevel::kHigh;
  Result<std::size_t> idx = store.add_chunk("alice", "f", 0, entry);
  ASSERT_TRUE(idx.ok());

  Result<core::MetadataStore::VersionedChunk> v0 =
      store.chunk_entry_versioned(idx.value());
  ASSERT_TRUE(v0.ok());

  // A concurrent writer holding the same token commits first: the now
  // stale token must be refused and the newer row left untouched.
  core::ChunkEntry newer = v0.value().entry;
  newer.padded_size = 111;
  ASSERT_TRUE(
      store.update_chunk_if(idx.value(), newer, v0.value().version).ok());
  core::ChunkEntry stale = v0.value().entry;
  stale.padded_size = 222;
  const Status lost =
      store.update_chunk_if(idx.value(), stale, v0.value().version);
  EXPECT_EQ(lost.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(store.chunk_entry(idx.value()).value().padded_size, 111u);

  // Re-read and redo: the fresh token commits and bumps the version.
  Result<core::MetadataStore::VersionedChunk> v1 =
      store.chunk_entry_versioned(idx.value());
  ASSERT_TRUE(v1.ok());
  core::ChunkEntry redo = v1.value().entry;
  redo.padded_size = 333;
  EXPECT_TRUE(
      store.update_chunk_if(idx.value(), redo, v1.value().version).ok());
  EXPECT_EQ(store.chunk_entry(idx.value()).value().padded_size, 333u);
  EXPECT_NE(store.chunk_entry_versioned(idx.value()).value().version,
            v1.value().version);
}

TEST(MigrationTest, ConcurrentClientUpdatesDuringDrainLeaveNoHoles) {
  // Regression for the migrator's read-modify-write racing live client
  // updates on the same chunk rows: without the version CAS the migrator
  // could commit a stale row over a client's newer one and then delete the
  // retired copies that newer row still references -- a permanent hole.
  // Here a client rewrites every chunk continuously while a throttled
  // drain walks the table; afterwards every chunk must read back equal to
  // its last committed update.
  storage::ProviderRegistry reg = flat_registry(8);
  CloudDataDistributor cdd(reg, base_config(0x90C));
  ASSERT_TRUE(cdd.register_client("alice").ok());
  ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kHigh).ok());
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  const Bytes data = payload_of(30000, 11);
  ASSERT_TRUE(cdd.put_file("alice", "pw", "f", data, opts).ok());
  const std::vector<core::ChunkRef> refs =
      cdd.metadata().file_chunks("alice", "f");
  ASSERT_GT(refs.size(), 1u);

  const ProviderIndex subject = 4;
  Migrator::Config mconfig;
  mconfig.stripes_per_sec = 200.0;  // slow the walk so updates interleave
  mconfig.max_in_flight = 2;
  Migrator migrator(cdd, mconfig);
  migrator.start(MigrationKind::kDrain, subject);

  // Serial updater racing the background walk: per chunk, the last update
  // this loop committed is the content the final read must return.
  std::map<std::uint64_t, Bytes> expected;
  std::uint64_t seed = 0x9000;
  do {
    for (const core::ChunkRef& ref : refs) {
      const Bytes next = payload_of(512 + (seed % 1024), seed);
      ++seed;
      Status st = cdd.update_chunk("alice", "pw", "f", ref.serial, next);
      ASSERT_TRUE(st.ok()) << st.to_string();
      expected[ref.serial] = next;
    }
  } while (migrator.progress().running);
  Result<Migrator::Report> report = migrator.wait();

  // Lost CAS races surface as errors: a chunk that lost every attempt to
  // the updater fails the pass with kResourceExhausted and leaves the drain
  // uncommitted. Converge now that updates quiesced.
  const auto committed = [](const Result<Migrator::Report>& r) {
    return r.ok() && r.value().committed;
  };
  for (int pass = 0; pass < 5 && !committed(report); ++pass) {
    ASSERT_TRUE(report.ok() ||
                report.status().code() == ErrorCode::kResourceExhausted)
        << report.status().to_string();
    report = migrator.run(MigrationKind::kDrain, subject);
  }
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().committed);
  EXPECT_EQ(shards_on(cdd.metadata(), subject), 0u);
  for (const auto& [serial, want] : expected) {
    Result<Bytes> back = cdd.get_chunk("alice", "pw", "f", serial);
    ASSERT_TRUE(back.ok()) << "chunk " << serial
                           << " lost: " << back.status().to_string();
    EXPECT_TRUE(equal(back.value(), want)) << "chunk " << serial;
  }
}

// --- moved shards are digest-checked ---------------------------------------

/// Silently corrupts one stripe shard the chunk table places on `p`.
void corrupt_one_shard_on(const core::MetadataStore& metadata,
                          storage::ProviderRegistry& reg, ProviderIndex p) {
  for (const core::ChunkEntry& entry : metadata.chunk_table()) {
    if (entry.deleted) continue;
    for (const core::ShardLocation& loc : entry.stripe) {
      if (loc.provider != p) continue;
      ASSERT_TRUE(reg.at(p).corrupt_object(loc.virtual_id, 0).ok());
      return;
    }
  }
  FAIL() << "no shard on provider " << p;
}

/// The provider the chunk table places the most stripe shards on.
ProviderIndex most_loaded(const core::MetadataStore& metadata,
                          std::size_t fleet) {
  ProviderIndex best = 0;
  for (ProviderIndex p = 1; p < fleet; ++p) {
    if (shards_on(metadata, p) > shards_on(metadata, best)) best = p;
  }
  return best;
}

/// A scrub pass over `cdd` that must find every shard intact.
void expect_clean_scrub(CloudDataDistributor& cdd) {
  core::Scrubber scrubber(cdd);
  ASSERT_TRUE(scrubber.run_pass().ok());
  EXPECT_EQ(scrubber.progress().digest_mismatches, 0u)
      << "a move copied corrupt bytes under the row's digest";
}

TEST(MigrationTest, DrainRebuildsCorruptSourceShardInsteadOfCopyingIt) {
  storage::ProviderRegistry reg = flat_registry(8);
  CloudDataDistributor cdd(reg, base_config(0x90D));
  ASSERT_TRUE(cdd.register_client("alice").ok());
  ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kHigh).ok());
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  const Bytes data = payload_of(9000, 13);
  ASSERT_TRUE(cdd.put_file("alice", "pw", "f", data, opts).ok());
  const ProviderIndex subject = most_loaded(cdd.metadata(), reg.size());
  corrupt_one_shard_on(cdd.metadata(), reg, subject);

  Migrator migrator(cdd);
  Result<Migrator::Report> report = migrator.run(MigrationKind::kDrain,
                                                 subject);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().committed);
  EXPECT_EQ(shards_on(cdd.metadata(), subject), 0u);
  expect_clean_scrub(cdd);
  Result<Bytes> back = cdd.get_file("alice", "pw", "f");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(equal(back.value(), data));
}

TEST(MigrationTest, RebalanceRebuildsCorruptSourceShardInsteadOfCopyingIt) {
  storage::ProviderRegistry reg = flat_registry(8);
  CloudDataDistributor cdd(reg, base_config(0x90E));
  ASSERT_TRUE(cdd.register_client("alice").ok());
  ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kHigh).ok());
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  const Bytes data = payload_of(9000, 14);
  ASSERT_TRUE(cdd.put_file("alice", "pw", "f", data, opts).ok());
  const ProviderIndex demoted = most_loaded(cdd.metadata(), reg.size());
  corrupt_one_shard_on(cdd.metadata(), reg, demoted);
  reg.at(demoted).set_privacy_level(PrivacyLevel::kLow);

  Result<std::size_t> moved = cdd.rebalance();
  ASSERT_TRUE(moved.ok()) << moved.status().to_string();
  EXPECT_GT(moved.value(), 0u);
  EXPECT_EQ(shards_on(cdd.metadata(), demoted), 0u);
  EXPECT_EQ(reg.at(demoted).object_count(), 0u);
  expect_clean_scrub(cdd);
  Result<Bytes> back = cdd.get_file("alice", "pw", "f");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(equal(back.value(), data));
}

// --- the chunk walker under repair, rebalance and scrub ---------------------

/// Four PL3 providers (exactly one RAID-5 stripe wide) and four PL2 ones.
/// A PL3 file written first fills the early rows, every stripe on all four
/// PL3 providers; a PL2 file fills the later rows across the whole fleet.
/// Returns the PL3 provider holding the most PL2 shards.
ProviderIndex two_tier_world(storage::ProviderRegistry& reg,
                             std::unique_ptr<CloudDataDistributor>& cdd) {
  for (std::size_t i = 0; i < 8; ++i) {
    storage::ProviderDescriptor d;
    d.name = (i < 4 ? "H" : "M") + std::to_string(i);
    d.privacy_level = i < 4 ? PrivacyLevel::kHigh : PrivacyLevel::kModerate;
    d.cost_level = CostLevel::kCheap;
    reg.add(std::move(d), storage::LatencyModel{}, 0x7A1C'0000ULL + i);
  }
  cdd = std::make_unique<CloudDataDistributor>(reg, base_config(0x90F));
  EXPECT_TRUE(cdd->register_client("alice").ok());
  EXPECT_TRUE(cdd->add_password("alice", "pw", PrivacyLevel::kHigh).ok());
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  EXPECT_TRUE(cdd->put_file("alice", "pw", "secret", payload_of(3000, 21),
                            opts).ok());
  opts.privacy_level = PrivacyLevel::kModerate;
  EXPECT_TRUE(cdd->put_file("alice", "pw", "plain", payload_of(40000, 22),
                            opts).ok());
  std::vector<std::size_t> pl2_shards(reg.size(), 0);
  for (const auto& ref : cdd->metadata().file_chunks("alice", "plain")) {
    Result<core::ChunkEntry> row = cdd->metadata().chunk_entry(ref.chunk_index);
    EXPECT_TRUE(row.ok());
    for (const core::ShardLocation& loc : row.value().stripe) {
      ++pl2_shards[loc.provider];
    }
  }
  return static_cast<ProviderIndex>(
      std::max_element(pl2_shards.begin(), pl2_shards.begin() + 4) -
      pl2_shards.begin());
}

/// Shard slots the PL2 file still places on `p`.
std::size_t pl2_shards_on(const CloudDataDistributor& cdd, ProviderIndex p) {
  std::size_t n = 0;
  for (const auto& ref : cdd.metadata().file_chunks("alice", "plain")) {
    Result<core::ChunkEntry> row = cdd.metadata().chunk_entry(ref.chunk_index);
    EXPECT_TRUE(row.ok());
    for (const core::ShardLocation& loc : row.value().stripe) {
      if (loc.provider == p) ++n;
    }
  }
  return n;
}

TEST(ChunkWalkerTest, RepairHealsRowsPastAnUnhealableOne) {
  storage::ProviderRegistry reg;
  std::unique_ptr<CloudDataDistributor> cdd;
  const ProviderIndex victim = two_tier_world(reg, cdd);
  ASSERT_GT(pl2_shards_on(*cdd, victim), 0u);
  // The PL3 rows come first and lose a shard with no PL3 home outside
  // their stripe; the PL2 rows after them can be healed.
  reg.at(victim).set_online(false);

  Result<std::size_t> repaired = cdd->repair();
  ASSERT_FALSE(repaired.ok());
  EXPECT_EQ(repaired.status().code(), ErrorCode::kResourceExhausted)
      << repaired.status().to_string();
  EXPECT_EQ(pl2_shards_on(*cdd, victim), 0u)
      << "repair stopped at the first unhealable row";
}

TEST(ChunkWalkerTest, RebalanceMovesRowsPastAnUnmovableOne) {
  storage::ProviderRegistry reg;
  std::unique_ptr<CloudDataDistributor> cdd;
  const ProviderIndex demoted = two_tier_world(reg, cdd);
  ASSERT_GT(pl2_shards_on(*cdd, demoted), 0u);
  // Trusted with neither file any more; only the PL2 shards find a home.
  reg.at(demoted).set_privacy_level(PrivacyLevel::kLow);

  Result<std::size_t> moved = cdd->rebalance();
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.status().code(), ErrorCode::kResourceExhausted)
      << moved.status().to_string();
  EXPECT_EQ(pl2_shards_on(*cdd, demoted), 0u)
      << "rebalance stopped at the first unmovable row";
}

/// Puts three PL3 files on a realtime fleet serially (so one seed lays out
/// the same stripes at any worker count), updates one chunk so a snapshot
/// stripe exists too, loses the most loaded provider for good, and repairs
/// with `workers` rows in flight.
struct LossRepair {
  std::size_t lost = 0;   ///< stripe + snapshot slots on the lost provider
  std::size_t fixed = 0;  ///< the first repair()'s count
  std::size_t again = 0;  ///< a second repair()'s count
};

void repair_after_loss(std::size_t workers, LossRepair& out) {
  storage::ProviderRegistry reg = flat_registry(8);
  for (ProviderIndex p = 0; p < reg.size(); ++p) {
    reg.at(p).set_realtime_scale(0.05);
  }
  core::DistributorConfig config = base_config(0x9A1);
  config.worker_threads = workers;
  config.pipelined = false;
  CloudDataDistributor cdd(reg, config);
  ASSERT_TRUE(cdd.register_client("alice").ok());
  ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kHigh).ok());
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  const std::vector<std::string> names = {"a", "b", "c"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(cdd.put_file("alice", "pw", names[i],
                             payload_of(4000 + 1000 * i, 30 + i), opts)
                    .ok());
  }
  ASSERT_TRUE(
      cdd.update_chunk("alice", "pw", "b", 1, payload_of(700, 40)).ok());
  std::vector<Bytes> before;
  for (const std::string& name : names) {
    Result<Bytes> got = cdd.get_file("alice", "pw", name);
    ASSERT_TRUE(got.ok());
    before.push_back(std::move(got).value());
  }

  const ProviderIndex victim = most_loaded(cdd.metadata(), reg.size());
  for (const core::ChunkEntry& row : cdd.metadata().chunk_table()) {
    if (row.deleted) continue;
    for (const auto* locs : {&row.stripe, &row.snapshot}) {
      for (const core::ShardLocation& loc : *locs) {
        if (loc.provider == victim) ++out.lost;
      }
    }
  }
  reg.at(victim).go_out_of_business();

  Result<std::size_t> fixed = cdd.repair();
  ASSERT_TRUE(fixed.ok()) << fixed.status().to_string();
  out.fixed = fixed.value();
  for (std::size_t i = 0; i < names.size(); ++i) {
    Result<Bytes> got = cdd.get_file("alice", "pw", names[i]);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_TRUE(equal(got.value(), before[i])) << names[i];
  }
  Result<std::size_t> again = cdd.repair();
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  out.again = again.value();
}

TEST(ChunkWalkerTest, ParallelRepairMatchesSerialRepair) {
  LossRepair serial;
  LossRepair parallel;
  ASSERT_NO_FATAL_FAILURE(repair_after_loss(1, serial));
  ASSERT_NO_FATAL_FAILURE(repair_after_loss(4, parallel));
  ASSERT_GT(serial.lost, 0u);
  EXPECT_EQ(parallel.lost, serial.lost) << "the two fleets differ";
  EXPECT_EQ(serial.fixed, serial.lost);
  EXPECT_EQ(parallel.fixed, serial.fixed);
  EXPECT_EQ(serial.again, 0u);
  EXPECT_EQ(parallel.again, 0u);
}

TEST(ChunkWalkerTest, ScrubChargesACorruptShardOnceWhenAMoveRacesTheHeal) {
  // The heal of a row and a migration move of another shard of the same row
  // race for the row's compare-and-swap. The loser redoes its work from the
  // fresh row; for the heal that means probing the corrupt shard again. The
  // holder must still be charged once, as the pass counts it once. The
  // corrupt shard's holder answers 15x slower than the rest, so the move
  // (one read and one write at 1 ms each) almost always commits while the
  // heal still waits on its probe.
  constexpr int kRounds = 12;
  int overcharged = 0;
  for (int round = 0; round < kRounds; ++round) {
    storage::ProviderRegistry reg = flat_registry(8);
    for (ProviderIndex p = 0; p < reg.size(); ++p) {
      reg.at(p).set_realtime_scale(0.2);
    }
    CloudDataDistributor cdd(
        reg, base_config(0xC4A0 + static_cast<std::uint64_t>(round)));
    ASSERT_TRUE(cdd.register_client("alice").ok());
    ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kHigh).ok());
    core::PutOptions opts;
    opts.privacy_level = PrivacyLevel::kHigh;
    ASSERT_TRUE(
        cdd.put_file("alice", "pw", "f", payload_of(600, 50), opts).ok());
    ASSERT_EQ(cdd.chunk_index_bound(), 1u);
    Result<core::ChunkEntry> row = cdd.metadata().chunk_entry(0);
    ASSERT_TRUE(row.ok());
    const core::ShardLocation corrupt = row.value().stripe[0];
    const ProviderIndex subject = row.value().stripe[1].provider;
    ASSERT_TRUE(
        reg.at(corrupt.provider).corrupt_object(corrupt.virtual_id, 0).ok());
    reg.at(corrupt.provider).set_realtime_scale(3.0);

    core::Scrubber scrubber(cdd);
    Migrator migrator(cdd);
    std::atomic<bool> go{false};
    std::thread scrub([&] {
      while (!go.load()) std::this_thread::yield();
      EXPECT_TRUE(scrubber.run_pass().ok());
    });
    std::thread drain([&] {
      while (!go.load()) std::this_thread::yield();
      EXPECT_TRUE(migrator.run(MigrationKind::kDrain, subject).ok());
    });
    go.store(true);
    scrub.join();
    drain.join();

    std::uint64_t charged = 0;
    for (ProviderIndex p = 0; p < reg.size(); ++p) {
      charged += reg.at(p).counters().scrub_errors.load();
    }
    const std::uint64_t counted = scrubber.progress().digest_mismatches;
    EXPECT_EQ(counted, 1u);
    if (charged != counted) ++overcharged;
  }
  EXPECT_EQ(overcharged, 0) << overcharged << " of " << kRounds
                            << " rounds charged a provider more than once";
}

// --- durability: checkpoint + crash sweep -----------------------------------

TEST(MigrationTest, CheckpointPersistsPendingDrainAcrossTruncation) {
  TempDir dir;
  const fs::path jpath = dir.path() / "journal.wal";
  const fs::path cpath = dir.path() / "metadata.bin";
  storage::ProviderRegistry reg = flat_registry(8);
  {
    Result<std::unique_ptr<Journal>> j = Journal::open(jpath);
    ASSERT_TRUE(j.ok());
    core::DistributorConfig config = base_config(0x906);
    config.journal = std::shared_ptr<Journal>(std::move(j.value()));
    config.checkpoint_path = cpath.string();
    CloudDataDistributor cdd(reg, config);
    ASSERT_TRUE(cdd.register_client("alice").ok());
    ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kHigh).ok());
    core::PutOptions opts;
    opts.privacy_level = PrivacyLevel::kHigh;
    ASSERT_TRUE(
        cdd.put_file("alice", "pw", "f", payload_of(9000, 9), opts).ok());
    ASSERT_TRUE(cdd.begin_migration(MigrationKind::kDrain, 4).ok());
    // Checkpoint folds + truncates: the kBeginMigrate record is gone from
    // the journal, so the pending intent must be synthesized from the
    // persisted lifecycle column.
    ASSERT_TRUE(cdd.checkpoint().ok());
  }
  Result<core::RecoveredState> rec = core::recover_metadata(cpath, jpath);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  ASSERT_EQ(rec.value().pending_migrations.size(), 1u);
  EXPECT_EQ(rec.value().pending_migrations[0].kind, MigrationKind::kDrain);
  EXPECT_EQ(rec.value().pending_migrations[0].provider, 4u);
  EXPECT_EQ(rec.value().metadata->provider_lifecycle(4),
            ProviderLifecycle::kDraining);
}

/// Durable world at one crash instant plus what recovery must reproduce.
struct CrashScenario {
  std::string label;
  Bytes journal;
  Bytes checkpoint;
  std::vector<std::map<VirtualId, Bytes>> providers;
};

TEST(MigrationTest, DrainCrashSweepRecoversAndResumes) {
  // Kill a journaled drain at the instant before and after every journal
  // append it makes (kBeginMigrate, one kUpdateChunk per moved shard,
  // kCommitMigrate). Recovery from each snapshot must (a) read every file
  // back byte-identical, (b) resume and finish the drain when one was
  // pending, (c) leave zero orphan objects, and (d) be idempotent.
  TempDir live;
  const fs::path jpath = live.path() / "journal.wal";
  const fs::path cpath = live.path() / "metadata.bin";
  constexpr std::size_t kFleet = 8;
  ProviderIndex kSubject = 0;  // picked below: the most-loaded provider
  storage::ProviderRegistry reg = flat_registry(kFleet);
  const Bytes f1 = payload_of(9000, 21);
  const Bytes f2 = payload_of(6000, 22);

  std::vector<CrashScenario> scenarios;
  auto snapshot_providers = [&reg] {
    std::vector<std::map<VirtualId, Bytes>> out(reg.size());
    for (std::size_t p = 0; p < reg.size(); ++p) {
      const storage::MemoryStore& store = reg.at(p).raw_store();
      for (VirtualId id : store.list_ids()) {
        Result<Bytes> obj = store.get(id);
        if (obj.ok()) out[p][id] = std::move(obj).value();
      }
    }
    return out;
  };

  {
    Result<std::unique_ptr<Journal>> j = Journal::open(jpath);
    ASSERT_TRUE(j.ok());
    Journal& journal = *j.value();
    core::DistributorConfig config = base_config(0x907);
    config.journal = std::shared_ptr<Journal>(std::move(j.value()));
    config.checkpoint_path = cpath.string();
    CloudDataDistributor cdd(reg, config);
    ASSERT_TRUE(cdd.register_client("alice").ok());
    ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kHigh).ok());
    core::PutOptions opts;
    opts.privacy_level = PrivacyLevel::kHigh;
    ASSERT_TRUE(cdd.put_file("alice", "pw", "f1", f1, opts).ok());
    ASSERT_TRUE(cdd.put_file("alice", "pw", "f2", f2, opts).ok());
    for (ProviderIndex p = 1; p < reg.size(); ++p) {
      if (shards_on(cdd.metadata(), p) >
          shards_on(cdd.metadata(), kSubject)) {
        kSubject = p;
      }
    }
    ASSERT_GT(shards_on(cdd.metadata(), kSubject), 0u);

    // Arm the recorder only for the migration itself.
    journal.test_hook_before_append = [&](const JournalRecord& rec) {
      CrashScenario sc;
      sc.label = "before #" + std::to_string(scenarios.size()) +
                 " op=" + std::to_string(static_cast<int>(rec.op));
      sc.journal = read_disk(jpath);
      sc.checkpoint = read_disk(cpath);
      sc.providers = snapshot_providers();
      scenarios.push_back(std::move(sc));
    };
    journal.test_hook_after_append = [&](const JournalRecord& rec) {
      CrashScenario sc;
      sc.label = "after #" + std::to_string(scenarios.size()) +
                 " op=" + std::to_string(static_cast<int>(rec.op));
      sc.journal = read_disk(jpath);
      sc.checkpoint = read_disk(cpath);
      sc.providers = snapshot_providers();
      scenarios.push_back(std::move(sc));
    };

    Migrator migrator(cdd);
    Result<Migrator::Report> report =
        migrator.run(MigrationKind::kDrain, kSubject);
    journal.test_hook_before_append = nullptr;
    journal.test_hook_after_append = nullptr;
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    ASSERT_TRUE(report.value().committed);
    ASSERT_GT(report.value().shards_moved, 0u);
    // begin + one update per moved shard + commit, each captured twice.
    ASSERT_GE(scenarios.size(), 2 * (report.value().shards_moved + 2));
  }

  for (const CrashScenario& sc : scenarios) {
    SCOPED_TRACE(sc.label);
    TempDir dir;
    const fs::path j2 = dir.path() / "journal.wal";
    const fs::path c2 = dir.path() / "metadata.bin";
    write_disk(j2, sc.journal);
    if (!sc.checkpoint.empty()) write_disk(c2, sc.checkpoint);

    storage::ProviderRegistry fresh = flat_registry(kFleet);
    for (std::size_t p = 0; p < sc.providers.size(); ++p) {
      for (const auto& [id, bytes] : sc.providers[p]) {
        ASSERT_TRUE(fresh.at(p).put(id, bytes).ok());
      }
    }

    Result<core::RecoveredState> rec = core::recover_metadata(c2, j2);
    ASSERT_TRUE(rec.ok()) << rec.status().to_string();
    // A restart rebuilds registry lifecycle from the persisted table.
    const auto table = rec.value().metadata->provider_table();
    for (ProviderIndex p = 0; p < fresh.size() && p < table.size(); ++p) {
      fresh.restore_lifecycle(p, table[p].lifecycle);
    }
    Result<std::unique_ptr<Journal>> reopened = Journal::open(j2);
    ASSERT_TRUE(reopened.ok());
    core::DistributorConfig config = base_config(0x907);
    config.journal = std::shared_ptr<Journal>(std::move(reopened.value()));
    config.checkpoint_path = c2.string();
    CloudDataDistributor cdd(fresh, config, rec.value().metadata);
    Result<CloudDataDistributor::ReconcileReport> rep =
        cdd.reconcile(rec.value().in_flight);
    ASSERT_TRUE(rep.ok()) << rep.status().to_string();

    // Zero lost chunks at every crash point, before any resume.
    for (const auto& [name, want] :
         std::vector<std::pair<std::string, const Bytes*>>{{"f1", &f1},
                                                           {"f2", &f2}}) {
      Result<Bytes> back = cdd.get_file("alice", "pw", name);
      ASSERT_TRUE(back.ok()) << name << ": " << back.status().to_string();
      EXPECT_TRUE(equal(back.value(), *want)) << name;
    }

    // Resume whatever the journal says was in flight; it must converge.
    for (const core::MigrationIntent& intent :
         rec.value().pending_migrations) {
      Migrator migrator(cdd);
      Result<Migrator::Report> done =
          migrator.run(intent.kind, intent.provider);
      ASSERT_TRUE(done.ok()) << done.status().to_string();
      EXPECT_TRUE(done.value().committed);
    }
    if (!rec.value().pending_migrations.empty()) {
      EXPECT_EQ(shards_on(cdd.metadata(), kSubject), 0u);
      EXPECT_TRUE(fresh.at(kSubject).raw_store().list_ids().empty());
    }

    // No orphans after reconcile + resume: every provider object is
    // referenced by a live chunk row.
    std::set<std::pair<ProviderIndex, VirtualId>> referenced;
    for (const core::ChunkEntry& entry :
         rec.value().metadata->chunk_table()) {
      if (entry.deleted) continue;
      for (const core::ShardLocation& loc : entry.stripe) {
        referenced.insert({loc.provider, loc.virtual_id});
      }
      for (const core::ShardLocation& loc : entry.snapshot) {
        referenced.insert({loc.provider, loc.virtual_id});
      }
    }
    for (std::size_t p = 0; p < fresh.size(); ++p) {
      for (VirtualId id : fresh.at(p).list_ids()) {
        EXPECT_TRUE(referenced.count({static_cast<ProviderIndex>(p), id}))
            << "orphan object " << id << " at provider " << p;
      }
    }

    // Idempotence: a second recovery sees nothing left to do.
    Result<core::RecoveredState> second = core::recover_metadata(c2, j2);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.value().pending_migrations.empty());
    Result<CloudDataDistributor::ReconcileReport> again =
        cdd.reconcile(second.value().in_flight);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().orphans_removed, 0u);
  }
}

}  // namespace
}  // namespace cshield
