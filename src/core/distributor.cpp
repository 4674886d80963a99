#include "core/distributor.hpp"

#include <algorithm>
#include <future>
#include <numeric>
#include <queue>
#include <unordered_set>

#include "core/chunk_walker.hpp"
#include "core/metadata_io.hpp"
#include "core/misleading.hpp"
#include "crypto/fragmentation.hpp"
#include "util/hash.hpp"

namespace cshield::core {
namespace {

/// Chaff ratio recorded implicitly by a chunk entry (positions / original).
double chaff_fraction_of(const ChunkEntry& entry) {
  const std::size_t original = entry.padded_size - entry.misleading.size();
  return original == 0 ? 0.0
                       : static_cast<double>(entry.misleading.size()) /
                             static_cast<double>(original);
}

/// Quarters of each chunk the partial-AES mode encrypts, per privacy level:
/// the paper's "partitioning data and encrypting a portion of it", scaled
/// with sensitivity. PL0 is public -- nothing to hide.
std::size_t aes_quarters_for(PrivacyLevel pl) {
  switch (pl) {
    case PrivacyLevel::kPublic: return 0;
    case PrivacyLevel::kLow: return 1;
    case PrivacyLevel::kModerate: return 2;
    case PrivacyLevel::kHigh: return 4;
  }
  return 4;
}

/// True when a member of `stripe` lives on `p`.
bool holds(const std::vector<ShardLocation>& stripe, ProviderIndex p) {
  return std::any_of(
      stripe.begin(), stripe.end(),
      [p](const ShardLocation& loc) { return loc.provider == p; });
}

/// The row at `index`; kNotFound once removed -- a reader that resolved its
/// ref just before a concurrent remove meets the tombstone.
Result<ChunkEntry> live_row(const MetadataStore& md, std::size_t index) {
  Result<ChunkEntry> row = md.chunk_entry(index);
  if (row.ok() && row.value().deleted) {
    return Status::NotFound("chunk index " + std::to_string(index) +
                            " removed");
  }
  return row;
}

}  // namespace

SimDuration parallel_makespan(std::vector<SimDuration> times,
                              std::size_t channels) {
  if (times.empty()) return SimDuration{0};
  CS_REQUIRE(channels > 0, "parallel_makespan: zero channels");
  // Greedy list scheduling in submission order onto the earliest-free
  // channel -- matches how the thread pool drains its FIFO queue.
  std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                      std::greater<>> ends;
  for (std::size_t c = 0; c < channels; ++c) ends.push(0);
  std::int64_t makespan = 0;
  for (const SimDuration& t : times) {
    const std::int64_t start = ends.top();
    ends.pop();
    const std::int64_t end = start + t.count();
    makespan = std::max(makespan, end);
    ends.push(end);
  }
  return SimDuration{makespan};
}

namespace {

/// Accumulates one client-visible operation's footprint and, at finish,
/// emits BOTH the op's root trace span and its OpReport from the same
/// numbers -- deriving the report from the root span's accumulator is what
/// keeps the two from ever disagreeing. Construct it after authentication
/// (auth failures are counted separately, not traced as pipeline ops) and
/// route every subsequent return through finish().
class OpScope {
 public:
  /// `wd` (optional) registers the op in the stall watchdog's in-flight
  /// table for its lifetime, carrying `deadline_ns` as the modeled bound
  /// the stall detector scales (the request-layer deadline).
  OpScope(obs::Telemetry* tel, const char* name, std::string_view client,
          std::string_view file, obs::StallWatchdog* wd = nullptr,
          std::int64_t deadline_ns = 0)
      : tel_(tel != nullptr && tel->enabled() ? tel : nullptr), name_(name) {
    if (tel_ == nullptr) return;
    armed_ = obs::StallWatchdog::Armed(wd, name_, deadline_ns);
    obs::Tracer& tr = tel_->tracer();
    rec_.op_id = tr.next_id();
    rec_.span_id = tr.next_id();
    rec_.name = name_;
    rec_.client = client;
    rec_.file = file;
    rec_.start_ns = tr.now_ns();
    tel_->metrics().gauge("cdd.inflight_ops").add(1);
  }

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  ~OpScope() {
    // Belt-and-braces: a return path that skipped finish() still closes the
    // gauge and records the span, marked as an internal error.
    if (!finished_) (void)finish(Status::Internal(name_ + " left open"),
                                 nullptr, 1);
  }

  [[nodiscard]] bool armed() const { return tel_ != nullptr; }

  /// Linkage for child spans (chunk stages, shard RPCs).
  [[nodiscard]] obs::SpanCtx ctx() const {
    return armed() ? obs::SpanCtx{rec_.op_id, rec_.span_id} : obs::SpanCtx{};
  }

  // Accumulators. Written by the op body -- either on the caller thread or
  // from pool tasks that are joined before finish() reads them.
  std::size_t chunks = 0;
  std::size_t shards = 0;
  std::size_t bytes_logical = 0;
  std::size_t bytes_stored = 0;
  std::size_t parity_reads = 0;
  std::size_t retries = 0;
  std::size_t hedges = 0;
  std::size_t replaced_shards = 0;
  bool rolled_back = false;
  std::uint64_t chunk_serial = obs::kNoChunk;  ///< for chunk-granularity ops
  std::vector<SimDuration> times;  ///< every provider request's service time

  /// Fills `report` (always -- error paths now report their footprint too,
  /// which is how rolled_back becomes observable), records the root span
  /// and per-op metrics, and passes `status` through.
  Status finish(Status status, OpReport* report, std::size_t channels) {
    finished_ = true;
    armed_.release();  // the op is no longer in flight, whatever its status
    SimDuration serial{0};
    for (const SimDuration& t : times) serial += t;
    const SimDuration par = parallel_makespan(times, channels);
    const double wall = wall_.elapsed_seconds();
    if (report != nullptr) {
      report->chunks = chunks;
      report->shards = shards;
      report->bytes_logical = bytes_logical;
      report->bytes_stored = bytes_stored;
      report->parity_reads = parity_reads;
      report->retries = retries;
      report->hedges = hedges;
      report->replaced_shards = replaced_shards;
      report->rolled_back = rolled_back;
      report->sim_time_parallel = par;
      report->sim_time_serial = serial;
      report->wall_seconds = wall;
    }
    if (tel_ != nullptr) {
      obs::MetricsRegistry& m = tel_->metrics();
      const std::string prefix = "cdd." + name_;
      m.counter(prefix + (status.ok() ? "_total" : "_errors")).inc();
      m.histogram(prefix + "_wall_ns").observe(wall * 1e9);
      m.histogram(prefix + "_sim_ns").observe(static_cast<double>(par.count()));
      if (rolled_back) m.counter("cdd.rollbacks").inc();
      m.gauge("cdd.inflight_ops").add(-1);
      rec_.wall_ns = static_cast<std::int64_t>(wall * 1e9);
      rec_.sim_ns = serial.count();  // children sum to this by construction
      rec_.bytes = bytes_logical;
      rec_.chunk = chunk_serial;
      rec_.outcome = status.code();
      tel_->tracer().record(std::move(rec_));
      tel_ = nullptr;
    }
    return status;
  }

 private:
  obs::Telemetry* tel_;
  std::string name_;
  obs::SpanRecord rec_;
  obs::StallWatchdog::Armed armed_;
  Stopwatch wall_;
  bool finished_ = false;
};

}  // namespace

CloudDataDistributor::CloudDataDistributor(
    storage::ProviderRegistry& registry, DistributorConfig config,
    std::shared_ptr<MetadataStore> metadata)
    : registry_(registry),
      config_(std::move(config)),
      telemetry_(config_.telemetry
                     ? (config_.telemetry_sink ? config_.telemetry_sink
                                               : obs::Telemetry::global())
                     : std::make_shared<obs::Telemetry>(false)),
      plane_(config_.plane),
      metadata_(plane_ != nullptr
                    ? plane_->store_ptr(0)
                    : (metadata ? std::move(metadata)
                                : std::make_shared<MetadataStore>())),
      rt_(registry_, config_.retry, telemetry_.get(), config_.seed,
          config_.watchdog.get()),
      placement_(config_.seed ^ 0x91ACE, config_.placement),
      pool_(config_.worker_threads),
      io_pool_(config_.io_threads != 0 ? config_.io_threads
                                       : 4 * config_.worker_threads),
      chaff_rng_(config_.seed ^ 0xC4AFF),
      id_key_(mix64(config_.seed ^ 0x1DFEED)) {
  // No explicit plane: wrap the store + journal + checkpoint path into a
  // 1-shard plane, so every op routes uniformly and the on-disk bytes stay
  // identical to the unsharded layout.
  if (plane_ == nullptr) {
    std::vector<MetadataPlane::Partition> parts(1);
    parts[0].store = metadata_;
    parts[0].journal = config_.journal;
    parts[0].checkpoint_path = config_.checkpoint_path;
    plane_ = std::make_shared<MetadataPlane>(std::move(parts));
  }
  if (config_.telemetry) {
    registry_.attach_telemetry(telemetry_);
    placement_.set_metrics(&telemetry_->metrics());
    for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
      if (plane_->journal(s) != nullptr) {
        plane_->journal(s)->attach_telemetry(telemetry_);
      }
    }
  }
  if (config_.watchdog != nullptr) {
    for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
      if (plane_->journal(s) != nullptr) {
        plane_->journal(s)->attach_watchdog(config_.watchdog.get());
      }
    }
    // Breaker/quarantine states for the diagnostic dump: obs cannot depend
    // on the storage layer, so the distributor injects the renderer.
    storage::ProviderRegistry* reg = &registry_;
    config_.watchdog->set_context_fn([reg] {
      std::string out;
      for (ProviderIndex i = 0; i < reg->size(); ++i) {
        const char* state = "closed";
        switch (reg->breaker(i).state()) {
          case storage::CircuitBreaker::State::kOpen: state = "open"; break;
          case storage::CircuitBreaker::State::kHalfOpen:
            state = "half-open";
            break;
          case storage::CircuitBreaker::State::kClosed: break;
        }
        out += "breaker " + reg->at(i).descriptor().name + ": " + state +
               (reg->quarantined(i) ? " (quarantined)\n" : "\n");
      }
      return out;
    });
  }
  if (config_.rpc_batch_shards > 1) {
    batcher_ = std::make_unique<ShardBatcher>(
        rt_, registry_.size(),
        ShardBatcher::Config{config_.rpc_batch_shards, config_.rpc_batch_wait},
        telemetry_.get());
  }
  // Mirror registry rows into every partition's Cloud Provider Table
  // (idempotent when a shared, already-populated plane is handed in). Each
  // partition is topped up independently -- a crash mid-broadcast leaves
  // some partitions a row short, and this loop heals them -- and each new
  // row is journaled to that partition's own WAL: replay onto an empty
  // store must know the providers before any record_placement touches
  // their id sets.
  for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
    MetadataStore& part = plane_->store(s);
    const std::size_t known = part.provider_table().size();
    for (ProviderIndex i = known; i < registry_.size(); ++i) {
      const auto& d = registry_.at(i).descriptor();
      const ProviderLifecycle lc = registry_.lifecycle(i);
      part.register_provider(d.name, d.privacy_level, d.cost_level, lc);
      if (plane_->journal(s) != nullptr) {
        JournalRecord rec;
        rec.op = JournalOp::kRegisterProvider;
        rec.provider_index = i;
        rec.client = d.name;
        rec.level = static_cast<std::uint8_t>(d.privacy_level);
        rec.cost = static_cast<std::uint8_t>(d.cost_level);
        rec.lifecycle = static_cast<std::uint8_t>(lc);
        const Status journaled = journal_append(rec, s);
        CS_REQUIRE(journaled.ok(),
                   "journal unusable at startup: " + journaled.to_string());
      }
    }
  }
  // Seed the topology ring with the placement-participating members. A
  // provider mid-join or mid-drain at construction time (crash-resume)
  // rejoins/stays off the ring when begin_migration re-runs.
  for (ProviderIndex i = 0; i < registry_.size(); ++i) {
    if (registry_.lifecycle(i) == ProviderLifecycle::kActive) {
      ring_insert(i, registry_.at(i).descriptor().name);
    }
  }
}

Status CloudDataDistributor::journal_append(const JournalRecord& rec,
                                            std::size_t shard) {
  Journal* j = plane_->journal(shard);
  if (j == nullptr) return Status::Ok();
  CS_RETURN_IF_ERROR(j->append(rec));
  // Auto-checkpoint folds only the shard whose journal hit the interval --
  // the other partitions' lanes are untouched.
  if (config_.checkpoint_interval > 0 &&
      !plane_->checkpoint_path(shard).empty() &&
      j->record_count() >= config_.checkpoint_interval) {
    return checkpoint_shard(shard);
  }
  return Status::Ok();
}

Status CloudDataDistributor::journal_append_all(const JournalRecord& rec) {
  for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
    CS_RETURN_IF_ERROR(journal_append(rec, s));
  }
  return Status::Ok();
}

Status CloudDataDistributor::checkpoint_shard(std::size_t shard) {
  Journal* j = plane_->journal(shard);
  if (j == nullptr) {
    return Status::InvalidArgument("checkpoint: no journal configured");
  }
  if (plane_->checkpoint_path(shard).empty()) {
    return Status::InvalidArgument("checkpoint: no checkpoint path");
  }
  const std::uint32_t count =
      static_cast<std::uint32_t>(plane_->shard_count());
  Status st = j->checkpoint(
      [this, shard, count] {
        return serialize_metadata(plane_->store(shard),
                                  static_cast<std::uint32_t>(shard), count);
      },
      plane_->checkpoint_path(shard));
  if (st.ok() && telemetry_->enabled()) {
    telemetry_->metrics().counter("cdd.checkpoints").inc();
  }
  return st;
}

Status CloudDataDistributor::checkpoint() {
  for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
    CS_RETURN_IF_ERROR(checkpoint_shard(s));
  }
  return Status::Ok();
}

Status CloudDataDistributor::register_client(const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("empty client name");
  // Client rows are broadcast to every partition: any front-end can then
  // authenticate against any shard, and each shard journal stays
  // self-contained for parallel recovery.
  CS_RETURN_IF_ERROR(metadata_->register_client(name));
  for (std::size_t s = 1; s < plane_->shard_count(); ++s) {
    CS_RETURN_IF_ERROR(plane_->store(s).register_client(name));
  }
  JournalRecord rec;
  rec.op = JournalOp::kRegisterClient;
  rec.client = name;
  return journal_append_all(rec);
}

Status CloudDataDistributor::add_password(const std::string& client,
                                          const std::string& password,
                                          PrivacyLevel pl) {
  if (password.empty()) return Status::InvalidArgument("empty password");
  CS_RETURN_IF_ERROR(metadata_->add_password(client, password, pl));
  for (std::size_t s = 1; s < plane_->shard_count(); ++s) {
    CS_RETURN_IF_ERROR(plane_->store(s).add_password(client, password, pl));
  }
  JournalRecord rec;
  rec.op = JournalOp::kAddPassword;
  rec.client = client;
  rec.filename = password;
  rec.level = static_cast<std::uint8_t>(pl);
  return journal_append_all(rec);
}

Result<PrivacyLevel> CloudDataDistributor::authorize(
    const std::string& client, const std::string& password,
    PrivacyLevel required) const {
  Result<PrivacyLevel> granted = metadata_->authenticate(client, password);
  if (!granted.ok()) {
    if (telemetry_->enabled()) {
      telemetry_->metrics().counter("cdd.auth_failures").inc();
    }
    return granted;
  }
  if (!privileged_for(granted.value(), required)) {
    if (telemetry_->enabled()) {
      telemetry_->metrics().counter("cdd.auth_failures").inc();
    }
    return Status::PermissionDenied(
        "password privilege " +
        std::string(privacy_level_name(granted.value())) +
        " below required " + std::string(privacy_level_name(required)));
  }
  return granted;
}

VirtualId CloudDataDistributor::next_virtual_id() {
  // Counter mixed with a per-distributor key: unique, and reveals neither
  // client identity nor upload order to providers.
  VirtualId id = 0;
  do {
    id = mix64(id_counter_.fetch_add(1, std::memory_order_relaxed) ^ id_key_);
  } while (id == 0);
  return id;
}

std::size_t CloudDataDistributor::apply_protection(
    Bytes& padded, ProtectionMode mode, PrivacyLevel pl,
    const raid::StripeLayout& layout, std::uint64_t nonce) const {
  switch (mode) {
    case ProtectionMode::kMisleadingBytes:
      // Chaff was already injected upstream; the payload itself is stored
      // as-is (the pre-ProtectionMode behavior).
      return 0;
    case ProtectionMode::kPartialAes: {
      const std::size_t prefix =
          (padded.size() * aes_quarters_for(pl) + 3) / 4;
      if (prefix == 0) return 0;
      const Bytes enc = crypto::aes128_ctr(config_.protection_key, nonce,
                                           BytesView(padded.data(), prefix));
      std::copy(enc.begin(), enc.end(), padded.begin());
      return prefix;
    }
    case ProtectionMode::kFragmentation:
      // Entangle across the data-shard fragments raid::encode will slice
      // this payload into: each provider stores one full-rank mix of every
      // fragment. Digests and parity are computed over the entangled bytes,
      // so repair/scrub stay protection-agnostic.
      crypto::fragmentation::entangle(padded, layout.data_shards, nonce);
      return 0;
  }
  return 0;
}

void CloudDataDistributor::remove_protection(Bytes& padded,
                                             ProtectionMode mode,
                                             const raid::StripeLayout& layout,
                                             std::uint64_t nonce,
                                             std::size_t protect_bytes) const {
  switch (mode) {
    case ProtectionMode::kMisleadingBytes:
      return;
    case ProtectionMode::kPartialAes: {
      const std::size_t prefix = std::min(protect_bytes, padded.size());
      if (prefix == 0) return;  // v1 rows land here: nothing was encrypted
      const Bytes dec = crypto::aes128_ctr(config_.protection_key, nonce,
                                           BytesView(padded.data(), prefix));
      std::copy(dec.begin(), dec.end(), padded.begin());
      return;
    }
    case ProtectionMode::kFragmentation:
      crypto::fragmentation::detangle(padded, layout.data_shards, nonce);
      return;
  }
}

Result<CloudDataDistributor::StripeWriteResult>
CloudDataDistributor::write_stripe(BytesView payload,
                                   const raid::StripeLayout& layout,
                                   const std::vector<ProviderIndex>& targets,
                                   PrivacyLevel pl,
                                   std::vector<SimDuration>& times,
                                   const obs::SpanCtx& span,
                                   std::size_t shard) {
  raid::EncodedStripe encoded = raid::encode(layout, payload);
  CS_REQUIRE(targets.size() == encoded.shard_count,
             "write_stripe: target/shard arity mismatch");

  StripeWriteResult result;
  result.locations.resize(encoded.shard_count);
  result.digests.resize(encoded.shard_count);
  for (std::size_t s = 0; s < encoded.shard_count; ++s) {
    result.locations[s] = ShardLocation{targets[s], next_virtual_id()};
    result.bytes_stored += encoded.shard_size;
  }

  struct ShardOutcome {
    Status status = Status::Ok();
    crypto::Digest digest{};
    SimDuration time{0};
    std::uint32_t retries = 0;
  };
  // Digest computation lives inside the upload task, so with Exec::kPool it
  // runs off the caller thread. Shard bytes stay in `encoded`'s arena (each
  // task reads only its own zero-copy slice) so a failed shard can be
  // re-placed below.
  // `span` and `encoded` outlive the futures: write_stripe blocks on them.
  auto upload = [this, &span, &encoded, &layout](std::size_t s,
                                                 ProviderIndex provider,
                                                 VirtualId id) {
    ShardOutcome outcome;
    obs::SpanRecord proto;
    proto.op_id = span.op_id;
    proto.parent_id = span.parent;
    proto.name = "shard_put";
    proto.provider = provider;
    proto.shard_kind = s < layout.data_shards ? obs::ShardKind::kData
                                              : obs::ShardKind::kParity;
    proto.bytes = encoded.shard_size;
    obs::ScopedSpan sp(span.armed() ? telemetry_.get() : nullptr,
                       std::move(proto));
    outcome.digest = crypto::sha256(encoded.shard(s));
    RequestLayer::Outcome rpc = rt_.put(provider, id, encoded.shard(s));
    outcome.status = rpc.status;
    outcome.time = rpc.time;
    outcome.retries = rpc.retries;
    if (sp.armed()) {
      sp.rec().sim_ns = rpc.time.count();
      sp.rec().attempts = std::max<std::uint32_t>(rpc.attempts, 1);
      sp.rec().outcome = rpc.status.code();
    }
    return outcome;
  };

  std::vector<ShardOutcome> outcomes(encoded.shard_count);
  if (batcher_ != nullptr) {
    // Batched-RPC mode: every shard goes to the cross-op batcher, which
    // coalesces it with shards of other in-flight stripes bound for the
    // same provider. Placement makes the stripe's own targets distinct, so
    // within this call each provider sees one shard -- the batching win is
    // across concurrent operations. Digests are computed here on the
    // caller thread (small-op path: the shards are small by construction).
    // Providers joined after the batcher was built have no lane; their
    // shards take the direct per-shard path instead.
    // `encoded` outlives the futures: we block on them below.
    std::vector<std::pair<std::size_t, std::future<ShardBatcher::PutResult>>>
        batched;
    std::vector<std::pair<std::size_t, std::future<ShardOutcome>>> direct;
    batched.reserve(encoded.shard_count);
    for (std::size_t s = 0; s < encoded.shard_count; ++s) {
      if (targets[s] >= batcher_->lanes()) {
        direct.emplace_back(s, io_pool_.submit(upload, s, targets[s],
                                               result.locations[s].virtual_id));
        continue;
      }
      outcomes[s].digest = crypto::sha256(encoded.shard(s));
      batched.emplace_back(s, batcher_->put(targets[s],
                                            result.locations[s].virtual_id,
                                            encoded.shard(s)));
    }
    for (auto& [s, fut] : batched) {
      ShardBatcher::PutResult r = fut.get();
      outcomes[s].status = std::move(r.status);
      outcomes[s].time = r.time;
      outcomes[s].retries = r.retries;
    }
    for (auto& [s, fut] : direct) outcomes[s] = fut.get();
  } else {
    std::vector<std::future<ShardOutcome>> futures;
    futures.reserve(encoded.shard_count);
    for (std::size_t s = 0; s < encoded.shard_count; ++s) {
      futures.push_back(io_pool_.submit(upload, s, targets[s],
                                        result.locations[s].virtual_id));
    }
    for (std::size_t s = 0; s < futures.size(); ++s) {
      outcomes[s] = futures[s].get();
    }
  }

  Status first_error = Status::Ok();
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    times.push_back(outcomes[s].time);
    result.digests[s] = outcomes[s].digest;
    result.retries += outcomes[s].retries;
    if (outcomes[s].status.ok()) continue;
    // Write quarantine: the target kept failing (its breaker has likely
    // opened by now), so re-place this shard on a healthy trust-eligible
    // provider outside the stripe rather than failing the whole write.
    const ProviderIndex home =
        replacement_target(pl, result.locations);
    if (home != kNoProvider) {
      const VirtualId fresh = next_virtual_id();
      result.locations[s] = ShardLocation{home, fresh};
      const ShardOutcome replaced = upload(s, home, fresh);
      times.push_back(replaced.time);
      result.retries += replaced.retries;
      if (replaced.status.ok()) {
        result.replaced += 1;
        outcomes[s].status = Status::Ok();
        if (telemetry_->enabled()) {
          telemetry_->metrics().counter("cdd.replaced_shards").inc();
        }
        continue;
      }
      outcomes[s].status = replaced.status;
    }
    if (first_error.ok()) first_error = outcomes[s].status;
  }
  if (!first_error.ok()) {
    // Best-effort rollback of the shards that did land (with the request
    // layer's retry budget, so a transient blip cannot orphan a shard).
    for (const auto& loc : result.locations) {
      (void)rt_.remove(loc.provider, loc.virtual_id);
    }
    return first_error;
  }
  MetadataStore& part = plane_->store(shard);
  for (const auto& loc : result.locations) {
    part.record_placement(loc.provider, loc.virtual_id);
  }
  return result;
}

/// Picks a healthy trust-eligible provider not already in `stripe`, for the
/// write-quarantine and repair paths. kNoProvider when none qualifies.
/// Deterministic: first candidate in registry order.
ProviderIndex CloudDataDistributor::replacement_target(
    PrivacyLevel pl, const std::vector<ShardLocation>& stripe) const {
  for (ProviderIndex cand : registry_.eligible_for(pl)) {
    if (!registry_.at(cand).online()) continue;
    if (registry_.quarantined(cand)) continue;
    if (!holds(stripe, cand)) return cand;
  }
  return kNoProvider;
}

Result<Bytes> CloudDataDistributor::read_stripe(
    const raid::StripeLayout& layout, const std::vector<ShardLocation>& stripe,
    const std::vector<crypto::Digest>& digests, std::size_t padded_size,
    std::vector<SimDuration>& times, ReadMode mode, const obs::SpanCtx& span,
    StripeReadStats* stats) {
  CS_REQUIRE(stripe.size() == layout.total_shards(),
             "read_stripe: stripe arity mismatch");
  struct ShardFetch {
    std::optional<Bytes> data;
    SimDuration time{0};
    std::uint32_t retries = 0;
  };
  std::vector<std::optional<Bytes>> shards(stripe.size());
  std::vector<SimDuration> fetch_time(stripe.size(), SimDuration{0});
  std::size_t rpc_retries = 0;

  // One shard fetch through the request layer (retries + breaker). A shard
  // that is unreachable OR fails its integrity digest counts as an erasure;
  // the RAID decode below recovers through it if it can.
  auto fetch_one = [&](std::size_t s, std::size_t budget, const char* name) {
    ShardFetch f;
    obs::SpanRecord proto;
    proto.op_id = span.op_id;
    proto.parent_id = span.parent;
    proto.name = name;
    proto.provider = stripe[s].provider;
    proto.shard_kind = s < layout.data_shards ? obs::ShardKind::kData
                                              : obs::ShardKind::kParity;
    obs::ScopedSpan sp(span.armed() ? telemetry_.get() : nullptr,
                       std::move(proto));
    RequestLayer::GetOutcome r =
        rt_.get(stripe[s].provider, stripe[s].virtual_id, budget);
    f.time = r.time;
    f.retries = r.retries;
    const bool intact =
        r.data.has_value() && crypto::sha256(*r.data) == digests[s];
    if (sp.armed()) {
      sp.rec().sim_ns = r.time.count();
      sp.rec().attempts = std::max<std::uint32_t>(r.attempts, 1);
      sp.rec().bytes = r.data.has_value() ? r.data->size() : 0;
      sp.rec().outcome = intact ? ErrorCode::kOk
                                : (r.data.has_value() ? ErrorCode::kCorrupted
                                                      : r.status.code());
    }
    if (intact) f.data = std::move(*r.data);
    return f;
  };
  // Fetches `idxs` concurrently through the I/O pool. `span` outlives the
  // tasks: fetch_set blocks on the futures.
  auto fetch_set = [&](const std::vector<std::size_t>& idxs,
                       std::size_t budget) {
    std::vector<std::future<ShardFetch>> futures;
    futures.reserve(idxs.size());
    for (std::size_t s : idxs) {
      futures.push_back(io_pool_.submit(
          [&fetch_one, s, budget] { return fetch_one(s, budget, "shard_get"); }));
    }
    bool all_present = true;
    for (std::size_t i = 0; i < idxs.size(); ++i) {
      ShardFetch f = futures[i].get();
      const std::size_t s = idxs[i];
      times.push_back(f.time);
      fetch_time[s] = f.time;
      rpc_retries += f.retries;
      if (!f.data.has_value()) all_present = false;
      shards[s] = std::move(f.data);
    }
    return all_present;
  };

  std::vector<std::size_t> data_idx;
  std::vector<std::size_t> parity_idx;
  for (std::size_t s = 0; s < stripe.size(); ++s) {
    (s < layout.data_shards ? data_idx : parity_idx).push_back(s);
  }

  const bool lazy = mode == ReadMode::kLazyParity && layout.parity_shards > 0;
  std::size_t parity_fetched = 0;
  bool data_degraded = false;
  std::size_t hedges = 0;
  if (!lazy) {
    (void)fetch_set(data_idx, 0);
    (void)fetch_set(parity_idx, 0);
    parity_fetched = parity_idx.size();
    for (std::size_t s : data_idx) {
      if (!shards[s].has_value()) data_degraded = true;
    }
  } else {
    // Lazy-parity with a degraded-read budget: data shards get only
    // `degraded_attempts` tries, because waiting out the full retry budget
    // on a slow provider is pointless when parity can reconstruct. On a
    // miss, escalate -- re-fetch the missing data shards at full budget
    // alongside all parity, so one transient blip per shard never
    // outnumbers the stripe's erasure tolerance.
    if (!fetch_set(data_idx, config_.retry.degraded_attempts)) {
      data_degraded = true;
      std::vector<std::size_t> recover = parity_idx;
      for (std::size_t s : data_idx) {
        if (!shards[s].has_value()) recover.push_back(s);
      }
      (void)fetch_set(recover, 0);
      parity_fetched = parity_idx.size();
    } else {
      // Hedged read: when the slowest data shard sits far above its
      // provider's own latency percentile, race the parity path (a shard
      // lives on exactly one provider, so "a second eligible provider"
      // means the stripe's redundancy). The hedge models what a client
      // racing both would pay; the decode uses the data shards either way.
      std::size_t slowest = data_idx.front();
      for (std::size_t s : data_idx) {
        if (fetch_time[s] > fetch_time[slowest]) slowest = s;
      }
      if (rt_.should_hedge(stripe[slowest].provider, fetch_time[slowest])) {
        const ShardFetch hedge =
            fetch_one(parity_idx.front(), 0, "shard_hedge");
        times.push_back(hedge.time);
        rpc_retries += hedge.retries;
        hedges = 1;
        if (telemetry_->enabled()) {
          obs::MetricsRegistry& m = telemetry_->metrics();
          m.counter("cdd.hedged_reads").inc();
          if (hedge.data.has_value() && hedge.time < fetch_time[slowest]) {
            m.counter("cdd.hedge_wins").inc();
          }
        }
      }
    }
  }
  if (telemetry_->enabled()) {
    obs::MetricsRegistry& m = telemetry_->metrics();
    if (data_degraded) m.counter("cdd.parity_fallbacks").inc();
    if (parity_fetched != 0) {
      m.counter("cdd.parity_shard_reads").inc(parity_fetched);
    }
  }
  if (stats != nullptr) {
    stats->parity_reads = parity_fetched;
    stats->fallback = data_degraded;
    stats->retries = rpc_retries;
    stats->hedges = hedges;
  }
  return raid::decode(layout, shards, padded_size);
}

void CloudDataDistributor::drop_stripe(const std::vector<ShardLocation>& stripe,
                                       std::vector<SimDuration>* times,
                                       std::size_t shard) {
  MetadataStore& part = plane_->store(shard);
  for (const auto& loc : stripe) {
    RequestLayer::Outcome rpc = rt_.remove(loc.provider, loc.virtual_id);
    if (times != nullptr) times->push_back(rpc.time);
    part.record_removal(loc.provider, loc.virtual_id);
  }
}

Status CloudDataDistributor::put_file(const std::string& client,
                                      const std::string& password,
                                      const std::string& filename,
                                      BytesView data, const PutOptions& options,
                                      OpReport* report) {
  if (filename.empty()) return Status::InvalidArgument("empty filename");
  Result<PrivacyLevel> auth = authorize(client, password,
                                        options.privacy_level);
  if (!auth.ok()) return auth.status();
  // Owning partition: all of this file's refs, rows and journal records
  // live there, and nowhere else.
  const std::size_t shard = plane_->shard_of(client, filename);
  MetadataStore& md = plane_->store(shard);
  // Atomic duplicate check: reserving the name up front means two
  // concurrent uploads of the same file cannot both pass it.
  CS_RETURN_IF_ERROR(md.claim_file(client, filename));
  // Journal the intent before any shard leaves for a provider: recovery
  // treats a Begin without a matching Commit/Abort as an in-flight put
  // whose shards are orphans to sweep.
  {
    JournalRecord rec;
    rec.op = JournalOp::kBeginPut;
    rec.client = client;
    rec.filename = filename;
    if (Status st = journal_append(rec, shard); !st.ok()) {
      md.release_file(client, filename);
      return st;
    }
  }

  const raid::RaidLevel level = options.raid.value_or(config_.default_raid);
  const raid::StripeLayout layout =
      (level == raid::RaidLevel::kRaid1)
          ? raid::StripeLayout::make(level, 1, config_.replication)
          : raid::StripeLayout::make(level, config_.stripe_data_shards);
  const double chaff =
      options.misleading_fraction.value_or(config_.misleading_fraction);
  const ProtectionMode protection = options.protection.value_or(
      config_.protection_by_pl[static_cast<std::size_t>(
          level_index(options.privacy_level))]);

  OpScope op(telemetry_.get(), "put_file", client, filename,
             config_.watchdog.get(), config_.retry.deadline.count());
  std::vector<RawChunk> chunks = split_file(data, options.privacy_level,
                                            config_.chunk_sizes,
                                            options.record_align);
  op.chunks = chunks.size();
  op.bytes_logical = data.size();

  // One pipeline stage per chunk: chaff -> place -> encode/digest ->
  // upload. `stripe` duplicates entry.stripe so rollback still knows the
  // shard locations after the entry moves into the metadata commit.
  struct ChunkOutcome {
    Status status = Status::Ok();
    ChunkEntry entry;
    std::vector<ShardLocation> stripe;
    std::size_t bytes_stored = 0;
    std::size_t retries = 0;
    std::size_t replaced = 0;
    std::vector<SimDuration> times;
  };
  std::vector<ChunkOutcome> outcomes(chunks.size());
  auto build = [&](std::size_t i) {
    ChunkOutcome& out = outcomes[i];
    obs::SpanRecord proto;
    proto.op_id = op.ctx().op_id;
    proto.parent_id = op.ctx().parent;
    proto.name = "chunk_put";
    proto.chunk = chunks[i].serial;
    proto.bytes = chunks[i].data.size();
    obs::ScopedSpan chunk_span(op.armed() ? telemetry_.get() : nullptr,
                               std::move(proto));
    // Only the seed draw and placement need the shared RNG/policy lock;
    // the chaff injection itself runs unlocked on the chunk's own stream.
    std::uint64_t chaff_seed = 0;
    Result<std::vector<ProviderIndex>> targets = [&] {
      std::lock_guard<std::mutex> lock(mu_);
      chaff_seed = chaff_rng_.next();
      return placement_.choose(registry_, options.privacy_level,
                               layout.total_shards());
    }();
    Rng chunk_rng(chaff_seed);
    MisleadingCodec::Encoded chaffed =
        MisleadingCodec::inject(chunks[i].data, chaff, chunk_rng);
    // Drawn for every mode, so the per-chunk RNG stream (chaff positions
    // included) is byte-identical across protection modes -- the chaos
    // suite's retry-invariance proof depends on it.
    const std::uint64_t protect_nonce = chunk_rng.next();
    const std::size_t protect_bytes = apply_protection(
        chaffed.data, protection, options.privacy_level, layout,
        protect_nonce);
    auto close_span = [&] {
      if (!chunk_span.armed()) return;
      SimDuration chunk_sim{0};
      for (const SimDuration& t : out.times) chunk_sim += t;
      chunk_span.rec().sim_ns = chunk_sim.count();
      chunk_span.rec().outcome = out.status.code();
    };
    if (!targets.ok()) {
      out.status = targets.status();
      close_span();
      return;
    }
    Result<StripeWriteResult> written =
        write_stripe(chaffed.data, layout, targets.value(),
                     options.privacy_level, out.times, chunk_span.ctx(),
                     shard);
    if (!written.ok()) {
      out.status = written.status();
      close_span();
      return;
    }
    out.retries = written.value().retries;
    out.replaced = written.value().replaced;
    out.entry.privacy_level = options.privacy_level;
    out.entry.layout = layout;
    out.entry.stripe = std::move(written.value().locations);
    out.entry.misleading = std::move(chaffed.positions);
    out.entry.padded_size = chaffed.data.size();
    out.entry.protection = protection;
    out.entry.protect_nonce = protect_nonce;
    out.entry.protect_bytes = protect_bytes;
    out.entry.shard_digests = std::move(written.value().digests);
    out.stripe = out.entry.stripe;
    out.bytes_stored = written.value().bytes_stored;
    close_span();
  };

  if (config_.pipelined && chunks.size() > 1) {
    // Fan every chunk's stripe out as independent pool work -- an N-chunk
    // file issues all its shard uploads concurrently instead of N
    // sequential per-stripe barriers.
    std::vector<std::future<void>> futures;
    futures.reserve(chunks.size());
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      futures.push_back(pool_.submit([&build, i] { build(i); }));
    }
    for (auto& f : futures) f.get();
  } else {
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      build(i);
      if (!outcomes[i].status.ok()) break;
    }
  }

  // A failed chunk must not orphan its siblings: drop every stripe this
  // call wrote, then free the filename claim.
  auto rollback = [&](const Status& error) {
    op.rolled_back = true;
    for (const ChunkOutcome& out : outcomes) {
      if (!out.stripe.empty()) drop_stripe(out.stripe, &op.times, shard);
    }
    md.release_file(client, filename);
    // The abort record is best-effort BY DESIGN, not an ignored error: the
    // put is already failing with `error`, and recovery aborts a Begin
    // without Commit whether or not this record lands -- losing it only
    // means more orphan work for reconcile(). It must not mask the
    // original failure, so it is surfaced as a counter instead of a
    // status.
    JournalRecord rec;
    rec.op = JournalOp::kAbortPut;
    rec.client = client;
    rec.filename = filename;
    if (Status aborted = journal_append(rec, shard); !aborted.ok()) {
      if (telemetry_->enabled()) {
        telemetry_->metrics().counter("cdd.abort_journal_errors").inc();
      }
    }
    return error;
  };
  for (ChunkOutcome& out : outcomes) {
    op.times.insert(op.times.end(), out.times.begin(), out.times.end());
    out.times.clear();  // moved into the op accumulator exactly once
    op.retries += out.retries;
    op.replaced_shards += out.replaced;
  }
  for (const ChunkOutcome& out : outcomes) {
    if (!out.status.ok()) {
      return op.finish(rollback(out.status), report, config_.worker_threads);
    }
  }

  // Commit the refs in serial order. The claim keeps other puts out, so a
  // failure here is exceptional (a concurrent remove of the half-linked
  // file frees the name) -- but it still unwinds this put's rows and
  // shards.
  std::vector<std::size_t> committed;
  committed.reserve(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    ChunkOutcome& out = outcomes[i];
    Result<std::size_t> idx = md.add_chunk(
        client, filename, chunks[i].serial, std::move(out.entry));
    if (!idx.ok()) {
      // The rows linked so far are visible to other clients already, so
      // they retire through the row commit path; whoever rewrote or removed
      // one first has taken over its stripes.
      for (std::size_t j = 0; j < committed.size(); ++j) {
        Result<std::vector<ShardLocation>> retired = commit_row(
            RowTarget{shard, committed[j],
                      ChunkKey{client, filename, chunks[j].serial},
                      /*journal=*/false},
            tombstone, &op.times);
        if (retired.ok()) drop_stripe(retired.value(), &op.times, shard);
        outcomes[j].stripe.clear();
      }
      return op.finish(rollback(idx.status()), report, config_.worker_threads);
    }
    committed.push_back(idx.value());
    op.bytes_stored += out.bytes_stored;
    op.shards += layout.total_shards();
  }
  // Durability commit point: journal every chunk row with its explicit
  // table index (local to the owning partition). Only after this append may
  // the client treat the file as stored -- so a journal failure is a put
  // failure.
  if (journaling()) {
    JournalRecord rec;
    rec.op = JournalOp::kCommitPut;
    rec.client = client;
    rec.filename = filename;
    rec.chunks.reserve(committed.size());
    for (std::size_t i = 0; i < committed.size(); ++i) {
      Result<ChunkEntry> row = md.chunk_entry(committed[i]);
      if (!row.ok()) {
        return op.finish(row.status(), report, config_.worker_threads);
      }
      rec.chunks.push_back(JournalChunk{chunks[i].serial, committed[i],
                                        std::move(row).value()});
    }
    if (Status st = journal_append(rec, shard); !st.ok()) {
      return op.finish(st, report, config_.worker_threads);
    }
  }
  return op.finish(Status::Ok(), report, config_.worker_threads);
}

Result<Bytes> CloudDataDistributor::get_chunk(const std::string& client,
                                              const std::string& password,
                                              const std::string& filename,
                                              std::uint64_t serial,
                                              OpReport* report) {
  // Reads resolve against the owning partition -- any front-end sharing
  // the plane computes the same shard from (client, filename).
  MetadataStore& md = plane_->store(plane_->shard_of(client, filename));
  std::optional<ChunkRef> ref = md.find_chunk(client, filename, serial);
  if (!ref.has_value()) {
    // Authenticate first so an attacker cannot probe the namespace with a
    // bad password.
    Result<PrivacyLevel> auth = metadata_->authenticate(client, password);
    if (!auth.ok()) return auth.status();
    return Status::NotFound("chunk " + filename + "#" +
                            std::to_string(serial));
  }
  Result<PrivacyLevel> auth = authorize(client, password, ref->privacy_level);
  if (!auth.ok()) return auth.status();
  Result<ChunkEntry> entry = live_row(md, ref->chunk_index);
  if (!entry.ok()) return entry.status();

  OpScope op(telemetry_.get(), "get_chunk", client, filename,
             config_.watchdog.get(), config_.retry.deadline.count());
  op.chunk_serial = serial;
  StripeReadStats rstats;
  Result<Bytes> padded =
      read_stripe(entry.value().layout, entry.value().stripe,
                  entry.value().shard_digests, entry.value().padded_size,
                  op.times, ReadMode::kEager, op.ctx(), &rstats);
  op.parity_reads = rstats.parity_reads;
  op.retries = rstats.retries;
  op.hedges = rstats.hedges;
  op.chunks = 1;
  op.shards = entry.value().stripe.size();
  op.bytes_stored = entry.value().padded_size;
  if (!padded.ok()) {
    return op.finish(padded.status(), report, config_.worker_threads);
  }
  remove_protection(padded.value(), entry.value().protection,
                    entry.value().layout, entry.value().protect_nonce,
                    entry.value().protect_bytes);
  Bytes plain = MisleadingCodec::strip(padded.value(),
                                       entry.value().misleading);
  op.bytes_logical = plain.size();
  (void)op.finish(Status::Ok(), report, config_.worker_threads);
  return plain;
}

Result<Bytes> CloudDataDistributor::get_file(const std::string& client,
                                             const std::string& password,
                                             const std::string& filename,
                                             OpReport* report) {
  MetadataStore& md = plane_->store(plane_->shard_of(client, filename));
  std::vector<ChunkRef> refs = md.file_chunks(client, filename);
  if (refs.empty()) {
    Result<PrivacyLevel> auth = metadata_->authenticate(client, password);
    if (!auth.ok()) return auth.status();
    return Status::NotFound("file " + filename + " for client " + client);
  }
  Result<PrivacyLevel> auth =
      authorize(client, password, refs.front().privacy_level);
  if (!auth.ok()) return auth.status();
  for (const ChunkRef& ref : refs) {
    if (!privileged_for(auth.value(), ref.privacy_level)) {
      return Status::PermissionDenied("chunk " + std::to_string(ref.serial) +
                                      " above password privilege");
    }
  }

  OpScope op(telemetry_.get(), "get_file", client, filename,
             config_.watchdog.get(), config_.retry.deadline.count());
  struct ChunkRead {
    Status status = Status::Ok();
    Bytes plain;
    std::size_t padded_size = 0;
    std::size_t shards = 0;
    std::vector<SimDuration> times;
    StripeReadStats rstats;
  };
  std::vector<ChunkRead> reads(refs.size());
  auto read_one = [&](std::size_t i, ReadMode mode) {
    ChunkRead& out = reads[i];
    obs::SpanRecord proto;
    proto.op_id = op.ctx().op_id;
    proto.parent_id = op.ctx().parent;
    proto.name = "chunk_get";
    proto.chunk = refs[i].serial;
    obs::ScopedSpan chunk_span(op.armed() ? telemetry_.get() : nullptr,
                               std::move(proto));
    auto close_span = [&] {
      if (!chunk_span.armed()) return;
      SimDuration chunk_sim{0};
      for (const SimDuration& t : out.times) chunk_sim += t;
      chunk_span.rec().sim_ns = chunk_sim.count();
      chunk_span.rec().bytes = out.plain.size();
      chunk_span.rec().outcome = out.status.code();
    };
    Result<ChunkEntry> entry = live_row(md, refs[i].chunk_index);
    if (!entry.ok()) {
      out.status = entry.status();
      close_span();
      return;
    }
    Result<Bytes> padded =
        read_stripe(entry.value().layout, entry.value().stripe,
                    entry.value().shard_digests, entry.value().padded_size,
                    out.times, mode, chunk_span.ctx(), &out.rstats);
    if (!padded.ok()) {
      out.status = padded.status();
      close_span();
      return;
    }
    remove_protection(padded.value(), entry.value().protection,
                      entry.value().layout, entry.value().protect_nonce,
                      entry.value().protect_bytes);
    out.plain = MisleadingCodec::strip(padded.value(),
                                       entry.value().misleading);
    out.padded_size = entry.value().padded_size;
    out.shards = entry.value().stripe.size();
    close_span();
  };

  if (config_.pipelined && refs.size() > 1) {
    // All chunk stripes in flight at once; reassembly below restores
    // serial order.
    std::vector<std::future<void>> futures;
    futures.reserve(refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
      futures.push_back(
          pool_.submit([&read_one, i] { read_one(i, ReadMode::kLazyParity); }));
    }
    for (auto& f : futures) f.get();
  } else {
    for (std::size_t i = 0; i < refs.size(); ++i) {
      read_one(i, ReadMode::kEager);
      if (!reads[i].status.ok()) break;
    }
  }

  Bytes out;
  Status first_error = Status::Ok();
  for (ChunkRead& r : reads) {
    op.times.insert(op.times.end(), r.times.begin(), r.times.end());
    op.parity_reads += r.rstats.parity_reads;
    op.retries += r.rstats.retries;
    op.hedges += r.rstats.hedges;
    if (!r.status.ok()) {
      if (first_error.ok()) first_error = r.status;
      continue;
    }
    op.bytes_stored += r.padded_size;
    op.shards += r.shards;
    ++op.chunks;
    append(out, r.plain);
  }
  if (!first_error.ok()) {
    return op.finish(first_error, report, config_.worker_threads);
  }
  op.bytes_logical = out.size();
  (void)op.finish(Status::Ok(), report, config_.worker_threads);
  return out;
}

Result<std::vector<CloudDataDistributor::FileInfo>>
CloudDataDistributor::list_files(const std::string& client,
                                 const std::string& password) {
  Result<PrivacyLevel> auth = metadata_->authenticate(client, password);
  if (!auth.ok()) return auth.status();
  // The store's filename index does the per-file aggregation (and the
  // privilege filtering) without scanning every ref per file. A client's
  // files scatter across partitions, so the inventory unions all of them;
  // the final sort restores the per-partition map order (a no-op on a
  // 1-shard plane).
  std::vector<FileInfo> files;
  for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
    for (FileSummary& f : plane_->store(s).list_files(client, auth.value())) {
      files.push_back(
          FileInfo{std::move(f.filename), f.privacy_level, f.chunks});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const FileInfo& a, const FileInfo& b) {
              return a.filename < b.filename;
            });
  return files;
}

Status CloudDataDistributor::update_chunk(const std::string& client,
                                          const std::string& password,
                                          const std::string& filename,
                                          std::uint64_t serial,
                                          BytesView new_data,
                                          OpReport* report) {
  const std::size_t shard = plane_->shard_of(client, filename);
  std::optional<ChunkRef> ref =
      plane_->store(shard).find_chunk(client, filename, serial);
  if (!ref.has_value()) {
    return Status::NotFound("chunk " + filename + "#" +
                            std::to_string(serial));
  }
  Result<PrivacyLevel> auth = authorize(client, password, ref->privacy_level);
  if (!auth.ok()) return auth.status();

  OpScope op(telemetry_.get(), "update_chunk", client, filename,
             config_.watchdog.get(), config_.retry.deadline.count());
  op.chunk_serial = serial;

  // Read the pre-state (chaff included), write it to a NEW snapshot stripe
  // -- "snapshot provider stores the pre-state and cloud provider stores
  // the post-state of a chunk after each modification" (Table III) -- then
  // chaff, re-protect (same mode as the original put, fresh nonce) and
  // write the post-state under fresh virtual ids. The old stripe and old
  // snapshot are retired only after the new row has committed to the
  // journal, so a crash anywhere in between loses only fresh orphans, never
  // referenced shards.
  auto rewrite = [&](RowEdit& edit) -> Status {
    ChunkEntry& row = edit.row;
    StripeReadStats rstats;
    Result<Bytes> pre_state =
        read_stripe(row.layout, row.stripe, row.shard_digests,
                    row.padded_size, op.times, ReadMode::kEager, op.ctx(),
                    &rstats);
    op.parity_reads += rstats.parity_reads;
    op.retries += rstats.retries;
    op.hedges += rstats.hedges;
    CS_RETURN_IF_ERROR(pre_state.status());
    auto write = [&](BytesView payload) -> Result<StripeWriteResult> {
      Result<std::vector<ProviderIndex>> targets = [&] {
        std::lock_guard<std::mutex> lock(mu_);
        return placement_.choose(registry_, row.privacy_level,
                                 row.layout.total_shards());
      }();
      CS_RETURN_IF_ERROR(targets.status());
      Result<StripeWriteResult> written =
          write_stripe(payload, row.layout, targets.value(),
                       row.privacy_level, op.times, op.ctx(), shard);
      if (written.ok()) {
        op.retries += written.value().retries;
        op.replaced_shards += written.value().replaced;
        edit.placed.insert(edit.placed.end(),
                           written.value().locations.begin(),
                           written.value().locations.end());
      }
      return written;
    };
    Result<StripeWriteResult> snap = write(pre_state.value());
    CS_RETURN_IF_ERROR(snap.status());

    MisleadingCodec::Encoded chaffed;
    std::uint64_t protect_nonce = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      chaffed = MisleadingCodec::inject(new_data, chaff_fraction_of(row),
                                        chaff_rng_);
      protect_nonce = chaff_rng_.next();
    }
    const std::size_t protect_bytes =
        apply_protection(chaffed.data, row.protection, row.privacy_level,
                         row.layout, protect_nonce);
    Result<StripeWriteResult> written = write(chaffed.data);
    if (!written.ok()) {
      op.rolled_back = true;  // commit_row deletes the snapshot stripe
      return written.status();
    }

    edit.retired = row.stripe;
    edit.retired.insert(edit.retired.end(), row.snapshot.begin(),
                        row.snapshot.end());
    // The snapshot stripe stores the pre-state exactly as it was protected;
    // its original transform parameters move with it.
    row.snapshot = std::move(snap.value().locations);
    row.snapshot_digests = std::move(snap.value().digests);
    row.snapshot_misleading = std::move(row.misleading);
    row.snapshot_padded_size = row.padded_size;
    row.snapshot_protection = row.protection;
    row.snapshot_protect_nonce = row.protect_nonce;
    row.snapshot_protect_bytes = row.protect_bytes;
    row.has_snapshot = true;
    row.stripe = std::move(written.value().locations);
    row.shard_digests = std::move(written.value().digests);
    row.misleading = std::move(chaffed.positions);
    row.padded_size = chaffed.data.size();
    row.protect_nonce = protect_nonce;
    row.protect_bytes = protect_bytes;
    op.shards = row.layout.total_shards() * 2;
    op.bytes_stored = chaffed.data.size();
    return Status::Ok();
  };
  Result<std::vector<ShardLocation>> retired =
      commit_row(RowTarget{shard, ref->chunk_index,
                           ChunkKey{client, filename, serial}},
                 rewrite, &op.times);
  if (!retired.ok()) {
    return op.finish(retired.status(), report, config_.worker_threads);
  }
  drop_stripe(retired.value(), &op.times, shard);
  op.chunks = 1;
  op.bytes_logical = new_data.size();
  return op.finish(Status::Ok(), report, config_.worker_threads);
}

Result<Bytes> CloudDataDistributor::get_chunk_snapshot(
    const std::string& client, const std::string& password,
    const std::string& filename, std::uint64_t serial) {
  MetadataStore& md = plane_->store(plane_->shard_of(client, filename));
  std::optional<ChunkRef> ref = md.find_chunk(client, filename, serial);
  if (!ref.has_value()) {
    return Status::NotFound("chunk " + filename + "#" +
                            std::to_string(serial));
  }
  Result<PrivacyLevel> auth = authorize(client, password, ref->privacy_level);
  if (!auth.ok()) return auth.status();
  Result<ChunkEntry> entry = live_row(md, ref->chunk_index);
  if (!entry.ok()) return entry.status();
  if (!entry.value().has_snapshot) {
    return Status::NotFound("chunk has no snapshot (never modified)");
  }
  std::vector<SimDuration> times;
  Result<Bytes> padded = read_stripe(
      entry.value().layout, entry.value().snapshot,
      entry.value().snapshot_digests, entry.value().snapshot_padded_size,
      times);
  if (!padded.ok()) return padded.status();
  remove_protection(padded.value(), entry.value().snapshot_protection,
                    entry.value().layout,
                    entry.value().snapshot_protect_nonce,
                    entry.value().snapshot_protect_bytes);
  return MisleadingCodec::strip(padded.value(),
                                entry.value().snapshot_misleading);
}

Status CloudDataDistributor::remove_chunk(const std::string& client,
                                          const std::string& password,
                                          const std::string& filename,
                                          std::uint64_t serial) {
  const std::size_t shard = plane_->shard_of(client, filename);
  std::optional<ChunkRef> ref =
      plane_->store(shard).find_chunk(client, filename, serial);
  if (!ref.has_value()) {
    return Status::NotFound("chunk " + filename + "#" +
                            std::to_string(serial));
  }
  Result<PrivacyLevel> auth = authorize(client, password, ref->privacy_level);
  if (!auth.ok()) return auth.status();

  OpScope op(telemetry_.get(), "remove_chunk", client, filename,
             config_.watchdog.get(), config_.retry.deadline.count());
  op.chunk_serial = serial;
  op.chunks = 1;

  // Commit the removal (tombstone + unlink + journal) before any provider-
  // side delete: a crash mid-drop must leave orphans, not a live chunk row
  // pointing at vanished shards.
  Result<std::vector<ShardLocation>> retired =
      commit_row(RowTarget{shard, ref->chunk_index,
                           ChunkKey{client, filename, serial}},
                 tombstone, &op.times);
  if (!retired.ok()) {
    return op.finish(retired.status(), nullptr, config_.worker_threads);
  }
  op.shards = retired.value().size();
  drop_stripe(retired.value(), &op.times, shard);
  return op.finish(Status::Ok(), nullptr, config_.worker_threads);
}

Status CloudDataDistributor::remove_file(const std::string& client,
                                         const std::string& password,
                                         const std::string& filename) {
  const std::size_t shard = plane_->shard_of(client, filename);
  std::vector<ChunkRef> refs = plane_->store(shard).file_chunks(client,
                                                                filename);
  if (refs.empty()) {
    Result<PrivacyLevel> auth = metadata_->authenticate(client, password);
    if (!auth.ok()) return auth.status();
    return Status::NotFound("file " + filename + " for client " + client);
  }
  // Authorize once against the file's highest chunk PL instead of
  // re-authenticating the password for every chunk.
  PrivacyLevel required = refs.front().privacy_level;
  for (const ChunkRef& ref : refs) {
    if (level_index(ref.privacy_level) > level_index(required)) {
      required = ref.privacy_level;
    }
  }
  Result<PrivacyLevel> auth = authorize(client, password, required);
  if (!auth.ok()) return auth.status();

  OpScope op(telemetry_.get(), "remove_file", client, filename,
             config_.watchdog.get(), config_.retry.deadline.count());
  op.chunks = refs.size();

  // Commit the removal first -- tombstone + unlink every ref, then one
  // journal record covering the rows this call retired -- and only then
  // delete at providers. A crash mid-drop leaves orphans for reconcile,
  // never a referenced-but-deleted shard. A row a concurrent remover got
  // to first is theirs to journal and drop.
  std::vector<std::vector<ShardLocation>> retired(refs.size());
  JournalRecord rec;
  rec.op = JournalOp::kRemoveFile;
  rec.client = client;
  rec.filename = filename;
  Status first_error = Status::Ok();
  for (std::size_t i = 0; i < refs.size(); ++i) {
    Result<std::vector<ShardLocation>> r = commit_row(
        RowTarget{shard, refs[i].chunk_index,
                  ChunkKey{client, filename, refs[i].serial},
                  /*journal=*/false},
        tombstone, &op.times);
    if (!r.ok()) {
      if (first_error.ok() && r.status().code() != ErrorCode::kNotFound) {
        first_error = r.status();
      }
      continue;
    }
    retired[i] = std::move(r).value();
    rec.chunks.push_back(
        JournalChunk{refs[i].serial, refs[i].chunk_index, {}});
  }
  if (rec.chunks.empty()) {
    return op.finish(first_error.ok()
                         ? Status::NotFound("file " + filename +
                                            " for client " + client)
                         : first_error,
                     nullptr, config_.worker_threads);
  }
  if (Status st = journal_append(rec, shard); !st.ok()) {
    return op.finish(st, nullptr, config_.worker_threads);
  }

  // Drop all stripes through the pool. Each task owns its slot in
  // `drop_times`, so no lock is needed; the futures are joined before the
  // slots merge into the op accumulator.
  std::vector<std::vector<SimDuration>> drop_times(refs.size());
  auto drop_one = [&](std::size_t i) {
    drop_stripe(retired[i], &drop_times[i], shard);
  };
  if (config_.pipelined && refs.size() > 1) {
    std::vector<std::future<void>> futures;
    futures.reserve(refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
      futures.push_back(pool_.submit([&drop_one, i] { drop_one(i); }));
    }
    for (auto& f : futures) f.get();
  } else {
    for (std::size_t i = 0; i < refs.size(); ++i) drop_one(i);
  }
  for (std::size_t i = 0; i < refs.size(); ++i) {
    op.shards += drop_times[i].size();
    op.times.insert(op.times.end(), drop_times[i].begin(),
                    drop_times[i].end());
  }
  return op.finish(first_error, nullptr, config_.worker_threads);
}

Result<std::vector<ShardLocation>> CloudDataDistributor::commit_row(
    const RowTarget& target, const std::function<Status(RowEdit&)>& work,
    std::vector<SimDuration>* times) {
  MetadataStore& md = plane_->store(target.shard);
  constexpr int kAttempts = 8;
  Status last = Status::Ok();
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    Result<MetadataStore::VersionedChunk> read =
        md.chunk_entry_versioned(target.local);
    if (!read.ok()) return read.status();
    if (read.value().entry.deleted) {
      return Status::NotFound("chunk index " + std::to_string(target.local) +
                              " removed");
    }
    const std::uint64_t version = read.value().version;
    RowEdit edit{std::move(read.value().entry), {}, {}};
    last = work(edit);
    if (last.ok()) {
      const bool tombstone = edit.row.deleted;
      if (edit.placed.empty() && !tombstone) {
        return std::vector<ShardLocation>{};
      }
      JournalRecord rec;
      if (target.journal && journaling()) {
        rec.op = tombstone ? JournalOp::kRemoveChunk : JournalOp::kUpdateChunk;
        rec.client = target.key.client;
        rec.filename = target.key.filename;
        rec.chunks.push_back(JournalChunk{target.key.serial, target.local,
                                          tombstone ? ChunkEntry{} : edit.row});
      }
      last = md.update_chunk_if(target.local, std::move(edit.row), version,
                                edit.retired, edit.placed,
                                tombstone ? &target.key : nullptr);
      if (last.ok()) {
        if (!rec.chunks.empty()) {
          CS_RETURN_IF_ERROR(journal_append(rec, target.shard));
        }
        return std::move(edit.retired);
      }
    }
    // The attempt's own copies never became referenced.
    drop_stripe(edit.placed, times, target.shard);
    if (last.code() != ErrorCode::kFailedPrecondition) {
      // A failure on a row that changed meanwhile (its stripe retired under
      // the read, say) is a lost race too.
      Result<MetadataStore::VersionedChunk> now =
          md.chunk_entry_versioned(target.local);
      if (!now.ok() || now.value().version == version) return last;
    }
  }
  return last;  // every attempt lost its race: a row too hot to commit
}

Status CloudDataDistributor::tombstone(RowEdit& edit) {
  edit.retired = std::move(edit.row.stripe);
  edit.retired.insert(edit.retired.end(), edit.row.snapshot.begin(),
                      edit.row.snapshot.end());
  edit.row.bury();
  return Status::Ok();
}

void CloudDataDistributor::probe_shards(
    const std::vector<ShardLocation>& stripe,
    const std::vector<crypto::Digest>& digests,
    const std::vector<std::size_t>& members, std::size_t budget,
    StripeView& view) {
  // Leaf tasks only, so caller threads, pool workers and the scrubber
  // thread can all block on the futures. The digest is checked inside the
  // task; a provider that answered with bad bytes leaves `data` empty.
  struct Probe {
    std::optional<Bytes> data;
    bool corrupt = false;
  };
  std::vector<std::future<Probe>> fetches;
  fetches.reserve(members.size());
  for (std::size_t s : members) {
    fetches.push_back(io_pool_.submit(
        [this, loc = stripe[s], digest = digests[s], budget] {
          Probe p;
          RequestLayer::GetOutcome got =
              rt_.get(loc.provider, loc.virtual_id, budget);
          if (!got.data.has_value()) return p;
          p.corrupt = crypto::sha256(*got.data) != digest;
          if (!p.corrupt) p.data = std::move(got.data);
          return p;
        }));
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    Probe p = fetches[i].get();
    view.asked[members[i]] = true;
    view.intact[members[i]] = std::move(p.data);
    if (p.corrupt) view.corrupt.push_back(members[i]);
  }
}

Result<Bytes> CloudDataDistributor::shard_or_rebuild(
    const raid::StripeLayout& layout, const std::vector<ShardLocation>& stripe,
    const std::vector<crypto::Digest>& digests, std::size_t s,
    std::size_t budget, StripeView& view) {
  if (!view.asked[s]) probe_shards(stripe, digests, {s}, budget, view);
  if (view.intact[s].has_value()) return *view.intact[s];
  std::vector<std::size_t> rest;
  for (std::size_t t = 0; t < stripe.size(); ++t) {
    if (!view.asked[t]) rest.push_back(t);
  }
  probe_shards(stripe, digests, rest, budget, view);
  return raid::reconstruct_shard(layout, view.intact, s);
}

Result<CloudDataDistributor::StripeHealStats>
CloudDataDistributor::heal_chunk(std::size_t index) {
  // `index` is a global chunk index; a sparse global (no row in its
  // partition) reads as NotFound -- skipped. The scrubber/repair walk runs
  // alongside live client updates and the background migrator, so the
  // write-back goes through commit_row: a stale heal result never
  // overwrites a newer row, and a row too hot to commit is left for the
  // next scrub pass.
  StripeHealStats stats;
  auto heal_stripe = [&](RowEdit& edit, std::vector<ShardLocation>& stripe,
                         const std::vector<crypto::Digest>& digests)
      -> Status {
    // Probes take a single attempt through the request layer: a quarantined
    // provider's open breaker rejects without I/O, so its shards read as
    // broken and get re-homed -- this is how repair heals quarantined
    // stripes.
    StripeView view(stripe.size());
    std::vector<std::size_t> all(stripe.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    probe_shards(stripe, digests, all, 1, view);
    for (std::size_t s : view.corrupt) {
      stats.corrupt.push_back(stripe[s].provider);
    }
    for (std::size_t s = 0; s < stripe.size(); ++s) {
      if (view.intact[s].has_value()) continue;
      Result<Bytes> shard =
          shard_or_rebuild(edit.row.layout, stripe, digests, s, 1, view);
      CS_RETURN_IF_ERROR(shard.status());
      // New home: eligible, online, healthy, not already a stripe member.
      const ProviderIndex home =
          replacement_target(edit.row.privacy_level, stripe);
      if (home == kNoProvider) {
        return Status::ResourceExhausted(
            "repair: no healthy provider outside the stripe");
      }
      const VirtualId id = next_virtual_id();
      CS_RETURN_IF_ERROR(rt_.put(home, id, shard.value()).status);
      edit.retired.push_back(stripe[s]);
      edit.placed.push_back(ShardLocation{home, id});
      stripe[s] = ShardLocation{home, id};
      view.intact[s] = std::move(shard).value();
      ++stats.fixed;
    }
    return Status::Ok();
  };
  Result<std::vector<ShardLocation>> committed = commit_row(
      RowTarget{plane_->shard_of_index(index), plane_->local_index(index), {}},
      [&](RowEdit& edit) {
        stats = StripeHealStats{};
        CS_RETURN_IF_ERROR(
            heal_stripe(edit, edit.row.stripe, edit.row.shard_digests));
        if (!edit.row.has_snapshot) return Status::Ok();
        return heal_stripe(edit, edit.row.snapshot, edit.row.snapshot_digests);
      });
  if (committed.ok()) return stats;
  // Removed (or never there), or every attempt outraced: nothing healed;
  // the next scrub/repair pass revisits.
  if (committed.status().code() == ErrorCode::kNotFound ||
      committed.status().code() == ErrorCode::kFailedPrecondition) {
    return StripeHealStats{};
  }
  return committed.status();
}

Result<std::size_t> CloudDataDistributor::repair() {
  OpScope op(telemetry_.get(), "repair", "", "", config_.watchdog.get(),
             config_.retry.deadline.count());
  std::atomic<std::size_t> repaired{0};
  const Status first_error = ChunkWalker(config_.worker_threads)
      .walk(chunk_index_bound(), [&](std::size_t idx) -> Status {
        Result<StripeHealStats> healed = heal_chunk(idx);
        if (!healed.ok()) return healed.status();
        repaired.fetch_add(healed.value().fixed, std::memory_order_relaxed);
        return Status::Ok();
      });
  op.shards = repaired.load();
  if (op.shards != 0 && telemetry_->enabled()) {
    telemetry_->metrics().counter("cdd.repaired_shards").inc(op.shards);
  }
  CS_RETURN_IF_ERROR(op.finish(first_error, nullptr, config_.worker_threads));
  return op.shards;
}

Result<CloudDataDistributor::ReconcileReport>
CloudDataDistributor::reconcile(
    const std::vector<std::pair<std::string, std::string>>& in_flight) {
  OpScope op(telemetry_.get(), "reconcile", "", "", config_.watchdog.get(),
             config_.retry.deadline.count());
  ReconcileReport report;

  // 1. The referenced set: every (provider, id) a live chunk row points at,
  //    unioned across ALL partitions -- a shard referenced by any partition
  //    must survive the sweep. Everything else -- at a provider or in a
  //    provider table -- is a crash leftover.
  std::vector<std::unordered_set<VirtualId>> referenced(registry_.size());
  for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
    const MetadataStore& part = plane_->store(s);
    const std::size_t n = part.total_chunks();
    for (std::size_t idx = 0; idx < n; ++idx) {
      Result<ChunkEntry> entry = part.chunk_entry(idx);
      if (!entry.ok()) continue;
      for (const std::vector<ShardLocation>* locs :
           {&entry.value().stripe, &entry.value().snapshot}) {
        for (const ShardLocation& loc : *locs) {
          if (loc.provider < referenced.size()) {
            referenced[loc.provider].insert(loc.virtual_id);
          }
        }
      }
    }
  }

  // 2. Sweep provider-side objects no row references: shards of
  //    uncommitted puts, or drops the crash interrupted after their
  //    removal record committed. record_removal goes to every partition --
  //    only the (unknown) owning one has the id, and erasure is a no-op
  //    elsewhere.
  for (ProviderIndex p = 0; p < registry_.size(); ++p) {
    for (VirtualId id : registry_.at(p).list_ids()) {
      if (referenced[p].count(id) != 0) continue;
      RequestLayer::Outcome rpc = rt_.remove(p, id);
      op.times.push_back(rpc.time);
      for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
        plane_->store(s).record_removal(p, id);
      }
      if (rpc.status.ok()) ++report.orphans_removed;
    }
  }

  // 3. Per-partition provider-table ids with neither a referencing row nor
  //    an object (placements of writes whose shards never survived the
  //    crash). An id lives in exactly one partition's table, so the count
  //    does not double.
  for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
    MetadataStore& part = plane_->store(s);
    const auto provider_rows = part.provider_table();
    for (ProviderIndex p = 0; p < provider_rows.size(); ++p) {
      for (VirtualId id : provider_rows[p].virtual_ids) {
        if (p < referenced.size() && referenced[p].count(id) != 0) continue;
        part.record_removal(p, id);
        ++report.stale_ids;
      }
    }
  }

  // 4. Abort the puts the crash caught mid-flight: their claims block the
  //    filename forever otherwise. Shards they uploaded were swept above.
  //    Claim and abort record both live in the file's owning partition.
  for (const auto& [client, filename] : in_flight) {
    const std::size_t shard = plane_->shard_of(client, filename);
    plane_->store(shard).release_file(client, filename);
    JournalRecord rec;
    rec.op = JournalOp::kAbortPut;
    rec.client = client;
    rec.filename = filename;
    if (Status st = journal_append(rec, shard); !st.ok()) {
      return op.finish(st, nullptr, config_.worker_threads);
    }
    ++report.aborted_files;
  }

  // 5. Heal any stripe the crash degraded (e.g. an update that journaled
  //    its commit but died before every superseded-stripe drop, or a
  //    provider that lost writes).
  Result<std::size_t> repaired = repair();
  if (!repaired.ok()) {
    return op.finish(repaired.status(), nullptr, config_.worker_threads);
  }
  report.repaired_shards = repaired.value();

  if (telemetry_->enabled()) {
    obs::MetricsRegistry& m = telemetry_->metrics();
    if (report.orphans_removed != 0) {
      m.counter("cdd.recovery_orphans_removed").inc(report.orphans_removed);
    }
    if (report.aborted_files != 0) {
      m.counter("cdd.recovery_aborted_puts").inc(report.aborted_files);
    }
  }
  (void)op.finish(Status::Ok(), nullptr, config_.worker_threads);
  return report;
}

Result<std::size_t> CloudDataDistributor::rebalance() {
  OpScope op(telemetry_.get(), "rebalance", "", "", config_.watchdog.get(),
             config_.retry.deadline.count());
  // A shard leaves a holder no longer trusted at its chunk's sensitivity
  // (it is not *offline*, just demoted) for a qualifying home outside the
  // stripe. A demotion changes no provider lifecycle, so there is no
  // migration intent to journal: an interrupted rebalance is simply re-run.
  const ShardMove demoted = [this](const ChunkEntry& row,
                                   const std::vector<ShardLocation>& stripe,
                                   std::size_t s)
      -> std::optional<ProviderIndex> {
    const auto& holder = registry_.at(stripe[s].provider).descriptor();
    if (privileged_for(holder.privacy_level, row.privacy_level)) {
      return std::nullopt;
    }
    return replacement_target(row.privacy_level, stripe);
  };
  std::atomic<std::size_t> migrated{0};
  std::atomic<std::size_t> errors{0};
  Status status = ChunkWalker(config_.worker_threads)
      .walk(chunk_index_bound(), [&](std::size_t idx) -> Status {
        Result<ChunkMigrateStats> moved = move_shards(idx, demoted);
        if (!moved.ok()) return moved.status();
        migrated.fetch_add(moved.value().moved, std::memory_order_relaxed);
        errors.fetch_add(moved.value().errors, std::memory_order_relaxed);
        return Status::Ok();
      });
  op.shards = migrated.load();
  if (op.shards != 0 && telemetry_->enabled()) {
    telemetry_->metrics().counter("cdd.migrated_shards").inc(op.shards);
  }
  if (status.ok() && errors.load() != 0) {
    status = Status::ResourceExhausted(
        "rebalance: " + std::to_string(errors.load()) +
        " shards found no trusted home this pass");
  }
  CS_RETURN_IF_ERROR(
      op.finish(std::move(status), nullptr, config_.worker_threads));
  return op.shards;
}

// --- dynamic provider topology ------------------------------------------

void CloudDataDistributor::ring_insert(ProviderIndex p,
                                       std::string_view name) {
  std::lock_guard<std::mutex> lock(ring_mu_);
  if (ring_members_.insert(p).second) {
    ring_.add_provider(p, name);
  }
}

void CloudDataDistributor::ring_erase(ProviderIndex p) {
  std::lock_guard<std::mutex> lock(ring_mu_);
  if (ring_members_.erase(p) != 0) {
    ring_.remove_provider(p);
  }
}

ProviderIndex CloudDataDistributor::ring_owner(VirtualId key) const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  if (ring_.empty()) return kNoProvider;
  return ring_.lookup(key);
}

ProviderIndex CloudDataDistributor::drain_home(
    PrivacyLevel pl, const std::vector<ShardLocation>& stripe, VirtualId key,
    ProviderIndex subject) const {
  std::vector<ProviderIndex> preference;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    if (!ring_.empty()) {
      preference = ring_.lookup_many(key, registry_.size());
    }
  }
  for (ProviderIndex cand : preference) {
    if (cand == subject) continue;  // removed from the ring, but be safe
    if (registry_.lifecycle(cand) != ProviderLifecycle::kActive) continue;
    if (!privileged_for(registry_.at(cand).descriptor().privacy_level, pl)) {
      continue;
    }
    if (!registry_.at(cand).online()) continue;
    if (registry_.quarantined(cand)) continue;
    if (!holds(stripe, cand)) return cand;
  }
  // Ring exhausted (small fleets, quarantine storms): any healthy
  // trust-eligible provider outside the stripe.
  return replacement_target(pl, stripe);
}

Result<ProviderIndex> CloudDataDistributor::add_provider(
    storage::ProviderDescriptor descriptor,
    const storage::LatencyModel& latency, std::uint64_t seed) {
  if (descriptor.name.empty()) {
    return Status::InvalidArgument("add_provider: empty provider name");
  }
  if (registry_.find(descriptor.name) != kNoProvider) {
    return Status::AlreadyExists("add_provider: " + descriptor.name);
  }
  const std::string name = descriptor.name;
  const PrivacyLevel pl = descriptor.privacy_level;
  const CostLevel cl = descriptor.cost_level;
  // seed 0: the registry derives one from the fleet size under its lock.
  const ProviderIndex p = registry_.add(std::move(descriptor), latency, seed,
                                        ProviderLifecycle::kJoining);
  // Provider rows are broadcast: every partition's checkpoint+journal pair
  // must know the fleet to replay its own record_placements.
  for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
    plane_->store(s).register_provider(name, pl, cl,
                                       ProviderLifecycle::kJoining);
  }
  JournalRecord rec;
  rec.op = JournalOp::kRegisterProvider;
  rec.provider_index = p;
  rec.client = name;
  rec.level = static_cast<std::uint8_t>(pl);
  rec.cost = static_cast<std::uint8_t>(cl);
  rec.lifecycle = static_cast<std::uint8_t>(ProviderLifecycle::kJoining);
  CS_RETURN_IF_ERROR(journal_append_all(rec));
  return p;
}

Status CloudDataDistributor::begin_migration(MigrationKind kind,
                                             ProviderIndex subject) {
  if (subject >= registry_.size()) {
    return Status::InvalidArgument("begin_migration: no such provider");
  }
  const std::string name = registry_.at(subject).descriptor().name;
  switch (kind) {
    case MigrationKind::kJoin: {
      if (registry_.lifecycle(subject) != ProviderLifecycle::kJoining) {
        return Status::FailedPrecondition(
            "begin_migration: " + name + " is " +
            std::string(
                provider_lifecycle_name(registry_.lifecycle(subject))) +
            ", not joining");
      }
      // The joiner enters the ring *before* any shard moves: the migration
      // itself computes the stolen arcs from this post-join ring, and
      // placement still ignores the provider until commit activates it.
      ring_insert(subject, name);
      break;
    }
    case MigrationKind::kDrain:
    case MigrationKind::kDecommission: {
      // Draining a provider must leave at least one active member or
      // placement (and the migration itself) has nowhere to go. The
      // registry enforces that atomically with the transition, so two
      // concurrent drains of the last two active providers cannot both
      // slip through a check-then-act window.
      CS_RETURN_IF_ERROR(registry_.drain(subject));
      for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
        plane_->store(s).set_provider_lifecycle(subject,
                                                ProviderLifecycle::kDraining);
      }
      ring_erase(subject);
      break;
    }
  }
  // Migration intents are broadcast so any single shard's recovery alone
  // can resume the interrupted migration.
  JournalRecord rec;
  rec.op = JournalOp::kBeginMigrate;
  rec.provider_index = subject;
  rec.client = name;
  rec.level = static_cast<std::uint8_t>(kind);
  return journal_append_all(rec);
}

Status CloudDataDistributor::commit_migration(MigrationKind kind,
                                              ProviderIndex subject) {
  if (subject >= registry_.size()) {
    return Status::InvalidArgument("commit_migration: no such provider");
  }
  switch (kind) {
    case MigrationKind::kJoin:
      CS_RETURN_IF_ERROR(registry_.activate(subject));
      for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
        plane_->store(s).set_provider_lifecycle(subject,
                                                ProviderLifecycle::kActive);
      }
      break;
    case MigrationKind::kDrain:
      // The provider stays kDraining -- emptied, still serving reads --
      // until an explicit decommission retires it.
      break;
    case MigrationKind::kDecommission:
      CS_RETURN_IF_ERROR(registry_.decommission(subject));
      for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
        plane_->store(s).set_provider_lifecycle(
            subject, ProviderLifecycle::kDecommissioned);
      }
      break;
  }
  JournalRecord rec;
  rec.op = JournalOp::kCommitMigrate;
  rec.provider_index = subject;
  rec.client = registry_.at(subject).descriptor().name;
  rec.level = static_cast<std::uint8_t>(kind);
  return journal_append_all(rec);
}

Result<CloudDataDistributor::ChunkMigrateStats>
CloudDataDistributor::move_shards(std::size_t index, const ShardMove& move) {
  // Old copies are deleted at their source only once the new locations have
  // committed (metadata + journal), so a crash mid-chunk leaves duplicates
  // (orphans reconcile() sweeps), never a hole. commit_row applies the
  // provider-id deltas atomically with the row write and, on a lost race
  // (a client rewrote the row mid-move), deletes this pass's fresh copies
  // and redoes the chunk from the new row.
  const std::size_t shard = plane_->shard_of_index(index);
  ChunkMigrateStats stats;
  bool unreadable = false;  // the last attempt met a stripe it could not read
  auto move_stripe = [&](RowEdit& edit, std::vector<ShardLocation>& stripe,
                         const std::vector<crypto::Digest>& digests)
      -> Status {
    StripeView view(stripe.size());
    for (std::size_t s = 0; s < stripe.size(); ++s) {
      const std::optional<ProviderIndex> home = move(edit.row, stripe, s);
      if (!home.has_value()) continue;
      if (*home == kNoProvider) {
        ++stats.errors;  // no qualifying member this pass
        continue;
      }
      // Through the request layer (retries, breaker gating), digest-
      // checked: a missing or corrupt source is rebuilt from the stripe
      // survivors instead of being copied.
      Result<Bytes> shard =
          shard_or_rebuild(edit.row.layout, stripe, digests, s, 0, view);
      if (!shard.ok()) {
        // Below RAID tolerance: either a writer retired the stripe under
        // this read (commit_row redoes the chunk from the new row) or it
        // really is degraded right now (left for the next pass).
        unreadable = true;
        return shard.status();
      }
      const VirtualId id = next_virtual_id();
      if (!rt_.put(*home, id, shard.value()).status.ok()) {
        ++stats.errors;
        continue;
      }
      edit.retired.push_back(stripe[s]);
      edit.placed.push_back(ShardLocation{*home, id});
      stripe[s] = ShardLocation{*home, id};
      ++stats.moved;
      stats.bytes += shard.value().size();
      view.intact[s] = std::move(shard).value();
    }
    return Status::Ok();
  };
  Result<std::vector<ShardLocation>> retired = commit_row(
      RowTarget{shard, plane_->local_index(index), {}}, [&](RowEdit& edit) {
        stats = ChunkMigrateStats{};
        unreadable = false;
        CS_RETURN_IF_ERROR(
            move_stripe(edit, edit.row.stripe, edit.row.shard_digests));
        if (!edit.row.has_snapshot) return Status::Ok();
        return move_stripe(edit, edit.row.snapshot, edit.row.snapshot_digests);
      });
  if (!retired.ok()) {
    const ErrorCode code = retired.status().code();
    if (code == ErrorCode::kNotFound) return ChunkMigrateStats{};  // removed
    // Too hot, or unreadable right now: a later pass retries the chunk.
    if (code == ErrorCode::kFailedPrecondition || unreadable) {
      return ChunkMigrateStats{0, 0, 1};
    }
    return retired.status();
  }
  drop_stripe(retired.value(), nullptr, shard);  // the new homes are durable
  return stats;
}

Result<CloudDataDistributor::ChunkMigrateStats>
CloudDataDistributor::migrate_chunk(std::size_t index, MigrationKind kind,
                                    ProviderIndex subject) {
  CS_REQUIRE(subject < registry_.size(),
             "migrate_chunk: provider index out of range");
  ShardMove move;
  if (kind == MigrationKind::kJoin) {
    // The arc the joiner stole, at the sensitivities it is trusted with.
    // Stripe members must stay on distinct providers (placement rule 4), so
    // a stripe yields the joiner at most one shard; a re-run after a crash
    // sees the moved shard already on the joiner and skips the stripe.
    move = [this, subject](const ChunkEntry& row,
                           const std::vector<ShardLocation>& stripe,
                           std::size_t s) -> std::optional<ProviderIndex> {
      const bool steals =
          privileged_for(registry_.at(subject).descriptor().privacy_level,
                         row.privacy_level) &&
          !holds(stripe, subject) &&
          ring_owner(stripe[s].virtual_id) == subject;
      if (!steals) return std::nullopt;
      return subject;
    };
  } else {
    // Drain/decommission: everything resident on the subject, re-homed to
    // ring successors. A re-run finds the moved shards gone -- idempotent.
    move = [this, subject](const ChunkEntry& row,
                           const std::vector<ShardLocation>& stripe,
                           std::size_t s) -> std::optional<ProviderIndex> {
      if (stripe[s].provider != subject) return std::nullopt;
      return drain_home(row.privacy_level, stripe, stripe[s].virtual_id,
                        subject);
    };
  }
  Result<ChunkMigrateStats> stats = move_shards(index, move);
  if (stats.ok() && telemetry_->enabled()) {
    obs::MetricsRegistry& m = telemetry_->metrics();
    if (stats.value().moved != 0) {
      m.counter("migration.shards_moved").inc(stats.value().moved);
      m.counter("migration.bytes_moved").inc(stats.value().bytes);
    }
    if (stats.value().errors != 0) {
      m.counter("migration.errors").inc(stats.value().errors);
    }
  }
  return stats;
}

}  // namespace cshield::core
