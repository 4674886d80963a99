// CloudDataDistributor -- the paper's central entity (SIV-A, SV, SVI).
//
// "Cloud Data Distributor is the entity that receives data (files) from
// clients, performs fragmentation of data (splits files into chunks) and
// distributes these fragments (chunks) among Cloud Providers. ... Clients do
// not interact with Cloud Providers directly rather via Cloud Data
// Distributor."
//
// The pipeline per file:
//   categorize (client-chosen privacy level)
//     -> fragment (PL-sized chunks, optionally record-aligned)
//     -> chaff (optional misleading bytes, positions kept in the tables)
//     -> erasure-code (RAID-5 default, RAID-6 for high assurance)
//     -> place (trust-eligible, cost-preferring, randomized providers)
//     -> upload under fresh virtual ids that carry no client identity.
//
// Reads authenticate a <password, PL> pair, check privilege against the
// chunk PL, fetch the stripe in parallel, verify per-shard SHA-256 digests
// (a corrupted shard counts as an erasure and RAID recovers through it),
// decode, strip chaff, and return the plaintext chunk.
//
// Several distributor front-ends may share one MetadataStore -- that is the
// Fig. 2 multi-distributor architecture (see multi_distributor.hpp).
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/chunker.hpp"
#include "dht/ring.hpp"
#include "crypto/aes.hpp"
#include "core/journal.hpp"
#include "core/metadata_plane.hpp"
#include "core/placement.hpp"
#include "core/request_layer.hpp"
#include "core/shard_batcher.hpp"
#include "core/tables.hpp"
#include "obs/telemetry.hpp"
#include "raid/raid.hpp"
#include "storage/provider_registry.hpp"
#include "util/sim_clock.hpp"
#include "util/thread_pool.hpp"

namespace cshield::core {

struct DistributorConfig {
  ChunkSizePolicy chunk_sizes;
  raid::RaidLevel default_raid = raid::RaidLevel::kRaid5;
  std::size_t stripe_data_shards = 3;  ///< k data shards per stripe
  std::size_t replication = 1;         ///< extra copies when RAID-1 is chosen
  double misleading_fraction = 0.0;    ///< default chaff ratio
  /// Default protection transform per privacy level (PutOptions::protection
  /// overrides). kMisleadingBytes applies no payload transform beyond the
  /// chaff governed by misleading_fraction -- the pre-ProtectionMode
  /// behavior. kPartialAes encrypts a PL-dependent prefix of each chunk
  /// with AES-128-CTR under `protection_key`; kFragmentation entangles the
  /// chunk's data shards key-lessly (crypto/fragmentation.hpp).
  std::array<ProtectionMode, kNumPrivacyLevels> protection_by_pl{
      ProtectionMode::kMisleadingBytes, ProtectionMode::kMisleadingBytes,
      ProtectionMode::kMisleadingBytes, ProtectionMode::kMisleadingBytes};
  /// Key for the partial-AES mode. Stable across restarts by default so a
  /// recovered distributor can still decrypt; a real deployment injects the
  /// client's key here.
  crypto::AesKey protection_key{0xC5, 0x1E, 0x1D, 0x00, 0x01, 0x02, 0x03,
                                0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A,
                                0x0B, 0x0C};
  PlacementMode placement = PlacementMode::kCostAware;
  std::size_t worker_threads = 8;      ///< chunk-level compute channels
  /// Shard RPC channels. Shard I/O is latency-bound, not CPU-bound, so the
  /// I/O pool is wider than the compute pool (real object-store clients do
  /// the same). 0 = 4 x worker_threads.
  std::size_t io_threads = 0;
  /// Chunk-level pipelining for file-granularity ops: put_file/get_file fan
  /// every chunk's stripe out to the pool as independent work instead of
  /// walking chunks serially with a barrier per stripe. false reproduces the
  /// serial per-stripe loop (the pre-pipeline baseline; kept for A/B
  /// benchmarking -- see bench_throughput).
  bool pipelined = true;
  /// Runtime telemetry toggle. When true the distributor records per-op
  /// trace spans and pipeline metrics into `telemetry_sink` (or, when that
  /// is null, the process-global obs::Telemetry::global()), and wires the
  /// provider registry + placement policy into the same sink. When false
  /// the distributor carries a private disabled sink: every
  /// instrumentation site reduces to one relaxed atomic load.
  bool telemetry = true;
  std::shared_ptr<obs::Telemetry> telemetry_sink;
  /// Fault tolerance for every shard RPC: retry budget, backoff, deadline,
  /// breaker gating and hedged reads (see core/request_layer.hpp).
  /// `retry.enabled = false` reproduces the raw single-attempt behavior.
  RetryPolicy retry;
  /// Cross-operation shard-RPC batching (see core/shard_batcher.hpp): when
  /// > 1, the stripe writer routes every shard put through a per-provider
  /// batcher that coalesces shards from concurrent operations into one
  /// put_many RPC, closed at `rpc_batch_shards` shards or `rpc_batch_wait`
  /// after a lane's first pending shard. 1 = per-shard RPCs (the
  /// pre-batching behavior; default -- batching trades a bounded latency
  /// wait for round-trip amortization, a good trade only under concurrent
  /// small-op load).
  std::size_t rpc_batch_shards = 1;
  std::chrono::microseconds rpc_batch_wait{500};
  /// Write-ahead journal for metadata durability (see core/journal.hpp).
  /// When set, every metadata mutation is journaled before the op returns
  /// OK; null = in-memory-only metadata (the pre-journal behavior).
  std::shared_ptr<Journal> journal;
  /// Where checkpoint() writes the metadata snapshot. Required for
  /// checkpointing; ignored when `journal` is null.
  std::string checkpoint_path;
  /// Auto-checkpoint once the journal holds this many records (0 = only
  /// explicit checkpoint() calls). Bounds both journal growth and replay
  /// time after a crash.
  std::size_t checkpoint_interval = 0;
  /// N-way sharded metadata/journal plane (see core/metadata_plane.hpp).
  /// When set it supersedes `journal`/`checkpoint_path` and the `metadata`
  /// constructor argument: per-(client, filename) state routes to the
  /// partition shard_of(client, filename), each with its own lock, its own
  /// WAL commit lane and its own checkpoint image. Journaling is
  /// all-or-nothing across partitions (shard 0 decides). Null = the
  /// distributor wraps its store + `journal` + `checkpoint_path` into a
  /// 1-shard plane, reproducing the unsharded behavior (and its on-disk
  /// bytes) exactly.
  std::shared_ptr<MetadataPlane> plane;
  /// Stall watchdog (see obs/watchdog.hpp). When set, every client-visible
  /// op and every request-layer RPC arms an in-flight entry carrying its
  /// modeled deadline, and the journal's flush leader brackets its
  /// write+fsync window; the watchdog's poll turns any of them exceeding
  /// its threshold into a one-shot diagnostic dump. Null = off.
  std::shared_ptr<obs::StallWatchdog> watchdog;
  std::uint64_t seed = 0xC10D0D15;
};

/// Per-upload overrides (the client's "demands": sensitivity, assurance,
/// chaff).
struct PutOptions {
  PrivacyLevel privacy_level = PrivacyLevel::kModerate;
  std::optional<raid::RaidLevel> raid;  ///< e.g. kRaid6 for "higher assurance"
  std::optional<double> misleading_fraction;
  /// Protection transform; default is the config's per-PL choice.
  std::optional<ProtectionMode> protection;
  std::size_t record_align = 0;  ///< chunk sizes snap to this record width
};

/// Measured footprint of one operation. Filled from the same accumulator
/// that produces the op's root trace span (see OpScope in distributor.cpp),
/// so the report and the span can never disagree.
struct OpReport {
  std::size_t chunks = 0;
  std::size_t shards = 0;
  std::size_t bytes_logical = 0;  ///< client payload bytes
  std::size_t bytes_stored = 0;   ///< bytes at providers (chaff + parity)
  std::size_t parity_reads = 0;   ///< parity shards actually fetched
  std::size_t retries = 0;        ///< shard RPCs re-issued after kUnavailable
  std::size_t hedges = 0;         ///< parity hedges raced against slow reads
  std::size_t replaced_shards = 0;  ///< shards re-placed off failing providers
  bool rolled_back = false;       ///< op unwound already-written stripes
  SimDuration sim_time_parallel{0};  ///< modeled makespan over worker channels
  SimDuration sim_time_serial{0};    ///< modeled sum of all provider requests
  double wall_seconds = 0.0;         ///< executed CPU time (chunk/parity math)
};

class CloudDataDistributor {
 public:
  /// `registry` must outlive the distributor. Passing a shared MetadataStore
  /// lets several distributors serve one namespace; by default the
  /// distributor creates (and registers providers into) its own.
  CloudDataDistributor(storage::ProviderRegistry& registry,
                       DistributorConfig config,
                       std::shared_ptr<MetadataStore> metadata = nullptr);

  // --- client management ----------------------------------------------

  Status register_client(const std::string& name);
  Status add_password(const std::string& client, const std::string& password,
                      PrivacyLevel pl);

  // --- SVI "Distribute Data" --------------------------------------------

  /// Uploads a file: split -> chaff -> encode -> place -> put. The password
  /// must be privileged for the file's privacy level. Duplicate filenames
  /// per client are rejected.
  Status put_file(const std::string& client, const std::string& password,
                  const std::string& filename, BytesView data,
                  const PutOptions& options, OpReport* report = nullptr);

  // --- SVI "Retrieve Data" ------------------------------------------------

  /// get_file(client name, password, filename) -- all chunks, in parallel.
  [[nodiscard]] Result<Bytes> get_file(const std::string& client,
                                       const std::string& password,
                                       const std::string& filename,
                                       OpReport* report = nullptr);

  /// get_chunk(client name, password, filename, sl no.).
  [[nodiscard]] Result<Bytes> get_chunk(const std::string& client,
                                        const std::string& password,
                                        const std::string& filename,
                                        std::uint64_t serial,
                                        OpReport* report = nullptr);

  /// A client's file inventory from its Table II rows. Only files whose
  /// privacy level the password can read are listed -- a low-privilege
  /// password cannot even learn the names of more sensitive files.
  struct FileInfo {
    std::string filename;
    PrivacyLevel privacy_level = PrivacyLevel::kPublic;
    std::size_t chunks = 0;
  };
  [[nodiscard]] Result<std::vector<FileInfo>> list_files(
      const std::string& client, const std::string& password);

  // --- modification & snapshots (Table III's SP column) ------------------

  /// Overwrites one chunk's payload. The pre-state moves to a snapshot
  /// stripe on distinct providers first, so the previous version stays
  /// retrievable.
  Status update_chunk(const std::string& client, const std::string& password,
                      const std::string& filename, std::uint64_t serial,
                      BytesView new_data, OpReport* report = nullptr);

  /// Retrieves the pre-modification state of a chunk.
  [[nodiscard]] Result<Bytes> get_chunk_snapshot(const std::string& client,
                                                 const std::string& password,
                                                 const std::string& filename,
                                                 std::uint64_t serial);

  // --- SVI "Remove Data" ---------------------------------------------------

  Status remove_chunk(const std::string& client, const std::string& password,
                      const std::string& filename, std::uint64_t serial);
  Status remove_file(const std::string& client, const std::string& password,
                     const std::string& filename);

  // --- maintenance -----------------------------------------------------

  /// Scans every live stripe, re-derives shards that are missing or fail
  /// their digest, and re-places them on healthy eligible providers not
  /// already holding stripe members, worker_threads rows at a time. Returns
  /// the shards repaired, or the first failing row's error after all rows.
  Result<std::size_t> repair();

  /// Trust-driven migration: when a provider's privacy level has been
  /// demoted (reputation loss, see core/reputation.hpp) below the
  /// sensitivity of chunks it holds, moves those shards to providers that
  /// still qualify and deletes them at the demoted provider. Returns the
  /// number of shards migrated; kResourceExhausted when some shard found no
  /// qualifying home (the rest still moved -- re-run once one exists).
  Result<std::size_t> rebalance();

  // --- dynamic provider topology (runtime join/drain/decommission) -------
  //
  // The fleet changes at runtime without a restart. A join registers the
  // provider as kJoining (invisible to placement), then a migration moves it
  // exactly its consistent-hash ring share -- ~1/n of the shard population,
  // not the ~100% a naive rehash would move -- and activates it. A drain
  // removes the provider from the ring and placement, moves its resident
  // shards to ring successors, and leaves it emptied (still serving reads)
  // until decommissioned. Every step is journaled (kBeginMigrate /
  // kCommitMigrate) so a crash at any point resumes idempotently: shard
  // moves copy-then-commit-then-delete, so the worst a crash leaves is an
  // orphan duplicate for reconcile() to sweep, never a hole.
  //
  // The per-chunk unit of work is migrate_chunk(); core/migrator.hpp wraps
  // it in a throttled, observable background engine.

  /// Outcome of migrating one chunk (stripe + snapshot).
  struct ChunkMigrateStats {
    std::size_t moved = 0;   ///< shards re-homed
    std::size_t bytes = 0;   ///< shard bytes copied
    std::size_t errors = 0;  ///< shards that could not be moved this pass
  };

  /// Registers a brand-new provider as kJoining: registry + metadata +
  /// journal. It owns no ring share and takes no placement until a kJoin
  /// migration runs and commits. `seed` 0 derives one from the fleet size.
  Result<ProviderIndex> add_provider(storage::ProviderDescriptor descriptor,
                                     const storage::LatencyModel& latency = {},
                                     std::uint64_t seed = 0);

  /// Opens a migration: validates/applies the lifecycle transition, updates
  /// the ring (join: subject added; drain/decommission: subject removed) and
  /// journals kBeginMigrate. Idempotent -- crash-resume re-issues it.
  Status begin_migration(MigrationKind kind, ProviderIndex subject);

  /// Closes a migration: journals kCommitMigrate and applies the final
  /// lifecycle (join -> kActive, decommission -> kDecommissioned, drain
  /// stays kDraining awaiting decommission). Idempotent.
  Status commit_migration(MigrationKind kind, ProviderIndex subject);

  /// Moves the affected shards of one chunk. kJoin: shards whose virtual id
  /// the ring now assigns to `subject` (its stolen arc); kDrain /
  /// kDecommission: shards resident on `subject`, re-homed to ring
  /// successors. Crash-safe ordering (copy, commit metadata + journal, then
  /// delete the old copy) and idempotent: a re-run skips shards already
  /// moved. Unreachable source shards are RAID-reconstructed from stripe
  /// survivors; a shard that cannot be moved this pass is counted in
  /// `errors` and left in place for the next pass.
  Result<ChunkMigrateStats> migrate_chunk(std::size_t index,
                                          MigrationKind kind,
                                          ProviderIndex subject);

  /// The ring's owner for a virtual id (kNoProvider on an empty ring).
  /// Exposed so tests and benches can predict a join's stolen share.
  [[nodiscard]] ProviderIndex ring_owner(VirtualId key) const;

  // --- durability & crash recovery (see core/journal.hpp) ---------------

  /// Folds the journal into an atomic metadata snapshot at
  /// config().checkpoint_path. Requires a configured journal.
  Status checkpoint();

  /// What reconcile() had to clean up after a crash.
  struct ReconcileReport {
    std::size_t orphans_removed = 0;  ///< provider objects no chunk references
    std::size_t stale_ids = 0;        ///< provider-table ids with no object
    std::size_t aborted_files = 0;    ///< in-flight puts rolled back
    std::size_t repaired_shards = 0;  ///< shards healed by the repair pass
  };

  /// Post-recovery reconciliation. Construct the distributor with
  /// recover_metadata()'s store, then call this with its `in_flight` list:
  /// sweeps provider objects no committed chunk references (shards of
  /// uncommitted puts, drops a crash interrupted), clears stale provider-
  /// table ids, aborts the in-flight puts, and runs a full repair pass for
  /// stripes degraded by the crash.
  Result<ReconcileReport> reconcile(
      const std::vector<std::pair<std::string, std::string>>& in_flight);

  /// What healing one chunk found and fixed, in the attempt that committed.
  struct StripeHealStats {
    std::size_t fixed = 0;  ///< shards reconstructed and re-homed
    std::vector<ProviderIndex> corrupt;  ///< holder of each bad-digest shard
  };

  /// The per-row work of repair() and the scrubber (core/scrubber.hpp):
  /// re-fetches every shard of the chunk at global `index` (stripe +
  /// snapshot), checks SHA-256 digests, RAID-reconstructs what is missing or
  /// corrupt, re-homes it, and commits the new locations through
  /// commit_row. The stats come from the attempt that committed, so a heal
  /// that lost a compare-and-swap race reports each corrupt shard once.
  Result<StripeHealStats> heal_chunk(std::size_t index);

  /// Shard-0 partition of the metadata plane -- the whole namespace on an
  /// unsharded (1-shard) plane, one partition of it otherwise.
  [[nodiscard]] const MetadataStore& metadata() const { return *metadata_; }
  [[nodiscard]] std::shared_ptr<MetadataStore> metadata_ptr() { return metadata_; }
  /// The (possibly 1-shard) metadata plane every op routes through.
  [[nodiscard]] const std::shared_ptr<MetadataPlane>& plane() const {
    return plane_;
  }
  /// Exclusive upper bound of the global chunk index space that
  /// core::ChunkWalker walks for repair, rebalance, migration and scrub.
  /// Globals may be sparse on a sharded plane -- a missing slot reads as
  /// NotFound and is skipped. Equals metadata().total_chunks() on a 1-shard
  /// plane.
  [[nodiscard]] std::size_t chunk_index_bound() const {
    return plane_->global_chunk_bound();
  }
  [[nodiscard]] storage::ProviderRegistry& registry() { return registry_; }
  [[nodiscard]] const DistributorConfig& config() const { return config_; }

  /// The telemetry sink this distributor reports into. Never null; when
  /// config().telemetry is false it is a private, permanently-disabled
  /// instance.
  [[nodiscard]] const std::shared_ptr<obs::Telemetry>& telemetry() const {
    return telemetry_;
  }

 private:
  struct StripeWriteResult {
    std::vector<ShardLocation> locations;
    std::vector<crypto::Digest> digests;
    std::size_t bytes_stored = 0;
    std::size_t retries = 0;   ///< shard RPC retries across the stripe
    std::size_t replaced = 0;  ///< shards re-placed off failing providers
  };

  /// Stripe read strategy. kEager fetches every shard of the stripe
  /// concurrently (lowest latency for a single chunk). kLazyParity first
  /// fetches only the data shards -- encode() lays shards out data-first --
  /// and touches parity solely when a data shard is missing or corrupt;
  /// the pipelined get_file uses it to cut per-stripe work by the parity
  /// fraction.
  enum class ReadMode { kEager, kLazyParity };

  /// What a stripe read had to do beyond the happy path (feeds the
  /// parity-fallback counters and OpReport::parity_reads).
  struct StripeReadStats {
    std::size_t parity_reads = 0;  ///< parity shards fetched for recovery
    std::size_t retries = 0;       ///< shard RPC retries across the stripe
    std::size_t hedges = 0;        ///< parity hedges raced vs slow shards
    bool fallback = false;         ///< a data shard was missing/corrupt
  };

  /// Authenticates and checks privilege against `required`.
  Result<PrivacyLevel> authorize(const std::string& client,
                                 const std::string& password,
                                 PrivacyLevel required) const;

  /// Applies the protection transform to a chaffed padded payload, in
  /// place, before it is encoded/digested/uploaded. Returns the AES-
  /// encrypted prefix length (0 for the other modes), which the chunk row
  /// must record for the inverse.
  std::size_t apply_protection(Bytes& padded, ProtectionMode mode,
                               PrivacyLevel pl,
                               const raid::StripeLayout& layout,
                               std::uint64_t nonce) const;

  /// Inverse of apply_protection on a decoded padded payload (runs before
  /// the chaff strip). A v1 chunk row decodes to kPartialAes with
  /// protect_bytes == 0, making this a no-op on pre-ProtectionMode blobs.
  void remove_protection(Bytes& padded, ProtectionMode mode,
                         const raid::StripeLayout& layout,
                         std::uint64_t nonce, std::size_t protect_bytes) const;

  VirtualId next_virtual_id();

  /// Encodes `payload` under `layout` and uploads shards to `targets` via
  /// the I/O pool, appending per-request service times to `times`.
  /// Per-shard SHA-256 digests are computed inside the upload tasks, off
  /// the caller thread. Safe to call from pool_ tasks: shard work runs on
  /// io_pool_, whose tasks never submit further work, so blocking on them
  /// cannot deadlock the compute pool.
  /// `pl` is the chunk's privacy level -- needed so a shard whose provider
  /// keeps failing can be re-placed on another *trust-eligible* provider
  /// (the write-quarantine path) instead of failing the stripe.
  /// `shard` is the metadata partition owning the chunk being written --
  /// its provider table records the placements, keeping each partition's
  /// checkpoint self-consistent with its own chunk rows.
  Result<StripeWriteResult> write_stripe(BytesView payload,
                                         const raid::StripeLayout& layout,
                                         const std::vector<ProviderIndex>& targets,
                                         PrivacyLevel pl,
                                         std::vector<SimDuration>& times,
                                         const obs::SpanCtx& span,
                                         std::size_t shard);

  /// Fetches + digest-verifies + RAID-decodes one stripe into its padded
  /// payload (chaff still present). Shard fetches run on io_pool_ (same
  /// deadlock-freedom argument as write_stripe).
  Result<Bytes> read_stripe(const raid::StripeLayout& layout,
                            const std::vector<ShardLocation>& stripe,
                            const std::vector<crypto::Digest>& digests,
                            std::size_t padded_size,
                            std::vector<SimDuration>& times,
                            ReadMode mode = ReadMode::kEager,
                            const obs::SpanCtx& span = {},
                            StripeReadStats* stats = nullptr);

  /// Deletes stripe shards at providers and updates the provider table of
  /// the owning metadata partition.
  void drop_stripe(const std::vector<ShardLocation>& stripe,
                   std::vector<SimDuration>* times, std::size_t shard);

  /// Healthy (online, not quarantined) trust-eligible provider outside
  /// `stripe`; kNoProvider when none. Shared by write-quarantine re-placement
  /// and repair/rebalance home selection.
  [[nodiscard]] ProviderIndex replacement_target(
      PrivacyLevel pl, const std::vector<ShardLocation>& stripe) const;

  /// Idempotent ring membership updates (guarded by ring_mu_).
  void ring_insert(ProviderIndex p, std::string_view name);
  void ring_erase(ProviderIndex p);

  /// New home for a shard leaving `subject` during a drain: walks the ring
  /// successors of the shard's key and returns the first active,
  /// trust-eligible, online, unquarantined provider outside the stripe;
  /// falls back to replacement_target. kNoProvider when the fleet has no
  /// qualifying member.
  [[nodiscard]] ProviderIndex drain_home(
      PrivacyLevel pl, const std::vector<ShardLocation>& stripe,
      VirtualId key, ProviderIndex subject) const;

  /// One attempt's edit of a chunk row, handed to commit_row's work. `row`
  /// starts as the row read and is what commits; `retired` lists the
  /// locations the edit drops from it; `placed` lists the shards this
  /// attempt wrote.
  struct RowEdit {
    ChunkEntry row;
    std::vector<ShardLocation> retired;
    std::vector<ShardLocation> placed;
  };

  /// The row commit_row writes: its partition and local index, its client
  /// slot (journaled, and unlinked by a tombstone; empty for maintenance
  /// rewrites), and whether commit_row journals the change itself (false
  /// when the caller journals a batch, or nothing).
  struct RowTarget {
    std::size_t shard = 0;
    std::size_t local = 0;
    ChunkKey key;
    bool journal = true;
  };

  /// The one commit path for an existing chunk row: versioned read, `work`,
  /// compare-and-swap with the provider-id deltas (update_chunk_if), then
  /// the journal record -- kRemoveChunk for a tombstone, kUpdateChunk
  /// otherwise -- only once the swap is won. A failed or outraced attempt
  /// deletes the shards it placed itself; a lost race, or a failure on a row
  /// that changed meanwhile, redoes the work from the fresh row, up to 8
  /// attempts. A tombstone is terminal: meeting one returns kNotFound. An
  /// edit that places nothing and is no tombstone commits nothing. Returns
  /// the retired locations, for the caller to delete once it is done.
  Result<std::vector<ShardLocation>> commit_row(
      const RowTarget& target, const std::function<Status(RowEdit&)>& work,
      std::vector<SimDuration>* times = nullptr);

  /// commit_row work that turns the row into a tombstone, retiring its
  /// stripe and snapshot.
  static Status tombstone(RowEdit& edit);

  /// A stripe's members as fetched so far: `intact[s]` holds shard s once a
  /// digest-checked fetch returned it, `asked[s]` marks the fetch issued,
  /// `corrupt` lists the members whose provider answered with bad bytes.
  struct StripeView {
    explicit StripeView(std::size_t n) : intact(n), asked(n, false) {}
    std::vector<std::optional<Bytes>> intact;
    std::vector<bool> asked;
    std::vector<std::size_t> corrupt;
  };

  /// Fetches `members` of `stripe` concurrently on io_pool_ with `budget`
  /// attempts each (0 = the request layer's full budget) and checks each
  /// against its digest into `view`.
  void probe_shards(const std::vector<ShardLocation>& stripe,
                    const std::vector<crypto::Digest>& digests,
                    const std::vector<std::size_t>& members,
                    std::size_t budget, StripeView& view);

  /// Shard `s` of `stripe`: its own copy when intact, else RAID-rebuilt from
  /// the other members, probing the ones `view` has not fetched yet.
  Result<Bytes> shard_or_rebuild(const raid::StripeLayout& layout,
                                 const std::vector<ShardLocation>& stripe,
                                 const std::vector<crypto::Digest>& digests,
                                 std::size_t s, std::size_t budget,
                                 StripeView& view);

  /// Policy of move_shards: the new home of shard `s` of `stripe` in `row`,
  /// kNoProvider when it has none this pass, nullopt when it stays put.
  using ShardMove = std::function<std::optional<ProviderIndex>(
      const ChunkEntry& row, const std::vector<ShardLocation>& stripe,
      std::size_t s)>;

  /// The shard-move routine behind migrate_chunk and rebalance: copies each
  /// shard of the chunk at global `index` (stripe + snapshot) that `move`
  /// sends elsewhere -- digest-checked, rebuilt from the survivors when the
  /// source copy is missing or corrupt -- commits through commit_row, then
  /// deletes the old copies. Crash-safe (copy, commit, delete) and
  /// idempotent; a shard that cannot move this pass counts in `errors`.
  Result<ChunkMigrateStats> move_shards(std::size_t index,
                                        const ShardMove& move);

  /// True when the plane journals (all-or-nothing across partitions).
  [[nodiscard]] bool journaling() const {
    return plane_->journal(0) != nullptr;
  }

  /// Appends to `shard`'s journal (no-op on an unjournaled plane) and
  /// triggers that shard's auto-checkpoint when the interval is reached.
  Status journal_append(const JournalRecord& rec, std::size_t shard);

  /// Broadcast append: the record goes to every shard journal, so each
  /// partition's checkpoint+journal pair stays self-contained (client rows,
  /// provider rows, migration intents).
  Status journal_append_all(const JournalRecord& rec);

  /// Folds one partition's journal into its checkpoint image.
  Status checkpoint_shard(std::size_t shard);

  storage::ProviderRegistry& registry_;
  DistributorConfig config_;
  std::shared_ptr<obs::Telemetry> telemetry_;
  std::shared_ptr<MetadataPlane> plane_;
  std::shared_ptr<MetadataStore> metadata_;  ///< shard-0 partition
  RequestLayer rt_;  ///< retry/breaker/hedge wrapper for every shard RPC
  PlacementPolicy placement_;
  ThreadPool pool_;     ///< chunk-level pipeline stages
  ThreadPool io_pool_;  ///< shard-level provider RPCs (leaf tasks only)
  Rng chaff_rng_;
  std::atomic<std::uint64_t> id_counter_{1};
  std::uint64_t id_key_;
  mutable std::mutex mu_;  ///< guards placement_ and chaff_rng_
  /// Consistent-hash ring over placement-participating providers (kActive,
  /// plus a joiner from its kBeginMigrate on). Joins/drains consult it to
  /// identify the minimal affected shard set instead of rehashing the world.
  mutable std::mutex ring_mu_;
  dht::HashRing ring_;
  std::unordered_set<ProviderIndex> ring_members_;
  /// Cross-op shard-put coalescing; null when rpc_batch_shards <= 1.
  /// Declared last: its flusher threads use rt_/telemetry_, so it must be
  /// destroyed (drained and joined) before them.
  std::unique_ptr<ShardBatcher> batcher_;
};

/// Models the makespan of `times` scheduled greedily onto `channels`
/// parallel provider connections (how long the batch of requests takes with
/// the distributor's thread pool). Exposed for tests/benches.
[[nodiscard]] SimDuration parallel_makespan(std::vector<SimDuration> times,
                                            std::size_t channels);

}  // namespace cshield::core
