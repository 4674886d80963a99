// Workload runner: deploy, preload, closed-loop clients, restart, verify.
//
// Every client thread is a distinct CloudShield client with its own
// password, files and expected-bytes model. Inputs (payloads, op choices,
// file picks) come from a per-client generator seeded from --seed, so the
// distributor only ever sees generated inputs.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "core/journal.hpp"
#include "core/metadata_io.hpp"
#include "crypto/gf256_kernels.hpp"
#include "util/hash.hpp"
#include "util/wire.hpp"

namespace cloudbench {

namespace fs = std::filesystem;
using core::CloudDataDistributor;
using core::MetadataPlane;

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec bulk;
    bulk.name = "bulk_pl0";
    bulk.mix = Mix::kBulk;
    bulk.pl = PrivacyLevel::kPublic;
    bulk.file_bytes = 4u << 20;  // 64 chunks of 64 KiB
    bulk.chaff = 0.2;
    bulk.protection = ProtectionMode::kMisleadingBytes;
    bulk.cpus = 1;
    bulk.clients = 1;
    bulk.preload_files = 4;
    bulk.live_bound = 16;
    bulk.tail_ops = 2;
    v.push_back(bulk);

    WorkloadSpec small;
    small.name = "small_sharded";
    small.mix = Mix::kSmall;
    small.pl = PrivacyLevel::kModerate;
    small.file_bytes = 4u << 10;  // one 4 KiB chunk = one 3+1 stripe
    small.chaff = 0.1;
    small.protection = ProtectionMode::kMisleadingBytes;
    small.realtime = true;
    small.meta_shards = 4;
    small.group_commit_ops = 64;
    // Each of the N commit lanes sees 1/N of the stream, so the window
    // scales with N (the repository's own shard-plane bench does the same).
    small.group_commit_wait = std::chrono::microseconds(250 * 4);
    small.rpc_batch_shards = 16;
    small.rpc_batch_wait = std::chrono::microseconds(500);
    small.clients = 4;
    small.preload_files = 32;
    small.live_bound = 64;
    small.tail_ops = 64;
    v.push_back(small);

    WorkloadSpec mix;
    mix.name = "pl3_update_mix";
    mix.mix = Mix::kUpdate;
    mix.pl = PrivacyLevel::kHigh;
    mix.file_bytes = 64u << 10;  // 64 chunks of 1 KiB
    mix.chaff = 0.2;
    mix.protection = ProtectionMode::kPartialAes;
    mix.cpus = 1;
    // Four clients keep the one CPU busy while one of them waits on its
    // update's fsync; with two, the CPU idled whenever both did, and the
    // rates followed the disk's latency as well as the CPU's speed.
    mix.clients = 4;
    mix.preload_files = 16;
    mix.live_bound = 16;
    mix.tail_ops = 64;
    v.push_back(mix);
    return v;
  }();
  return specs;
}

void ReportSums::add(const ReportSums& o) {
  ops += o.ops;
  chunks_put += o.chunks_put;
  chunks_read += o.chunks_read;
  chunks_updated += o.chunks_updated;
  bytes_put += o.bytes_put;
  parity_reads += o.parity_reads;
  retries += o.retries;
  hedges += o.hedges;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v, std::span<const double> ladder) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (double q : ladder) {
    // Nearest rank: the value at rank ceil(q*n) has n - rank samples above.
    const double rank = std::ceil(q * n);
    if (rank >= 1 && n - rank >= 10) {
      return {v[static_cast<std::size_t>(rank) - 1], q * 100.0};
    }
  }
  // Too few samples for any step: the maximum, recorded as p100.
  return v.empty() ? Tail{} : Tail{v.back(), 100.0};
}

namespace {

constexpr const char* kPassword = "bench-pw";
constexpr const char* kJournalFile = "plane.wal";
constexpr const char* kCheckpointFile = "plane.ckpt";
constexpr double kRestartBudgetS = 4.0;
constexpr std::size_t kMaxRestarts = 15;

/// Process user+sys CPU, without the KeepAwake spinners.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime) - KeepAwake::spun_seconds();
}

std::size_t rss_bytes() {
  std::ifstream in("/proc/self/statm");
  std::size_t pages = 0, resident = 0;
  in >> pages >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

std::size_t host_cores() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// One deployment: the provider fleet (plays the external clouds and
/// outlives restarts), the metadata plane and a distributor front-end.
struct World {
  const WorkloadSpec* spec = nullptr;
  fs::path dir;
  storage::ProviderRegistry registry;
  std::shared_ptr<MetadataPlane> plane;
  std::unique_ptr<CloudDataDistributor> cdd;
  std::shared_ptr<obs::Telemetry> sink;
  std::size_t workers = 1, io_threads = 1;  ///< distributor pool sizes

  [[nodiscard]] fs::path journal_base() const { return dir / kJournalFile; }
  [[nodiscard]] fs::path checkpoint_base() const { return dir / kCheckpointFile; }

  /// Opens every shard's journal (appending to what is there) over the
  /// given stores.
  void open_plane(std::vector<std::shared_ptr<core::MetadataStore>> stores) {
    const std::size_t n = spec->meta_shards;
    std::vector<MetadataPlane::Partition> parts(n);
    for (std::size_t k = 0; k < n; ++k) {
      Result<std::unique_ptr<core::Journal>> j = core::Journal::open(
          core::shard_file_path(journal_base(), k),
          static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(n));
      CS_REQUIRE(j.ok(), "journal open: " + j.status().to_string());
      parts[k].journal = std::shared_ptr<core::Journal>(std::move(j.value()));
      if (spec->group_commit_ops > 1) {
        parts[k].journal->set_group_commit(core::GroupCommitConfig{
            spec->group_commit_ops, spec->group_commit_wait});
      }
      parts[k].store = stores.empty() ? std::make_shared<core::MetadataStore>()
                                      : std::move(stores[k]);
      parts[k].checkpoint_path = core::shard_file_path(checkpoint_base(), k);
    }
    plane = std::make_shared<MetadataPlane>(std::move(parts));
  }

  void start_distributor(std::uint64_t seed) {
    core::DistributorConfig config;
    config.default_raid = raid::RaidLevel::kRaid5;
    config.stripe_data_shards = 3;
    config.misleading_fraction = spec->chaff;
    config.protection_by_pl.fill(spec->protection);
    config.worker_threads = workers;
    config.io_threads = io_threads;
    config.rpc_batch_shards = spec->rpc_batch_shards;
    config.rpc_batch_wait = spec->rpc_batch_wait;
    config.telemetry = true;
    config.telemetry_sink = sink;
    config.plane = plane;
    config.seed = seed;
    cdd = std::make_unique<CloudDataDistributor>(registry, config);
  }

  /// Stops the front-end and closes every journal, as a process exit would.
  void stop() {
    cdd.reset();
    plane.reset();
  }

  [[nodiscard]] Boundary boundary() const {
    Boundary b;
    auto& n = b.n;
    for (ProviderIndex i = 0; i < registry.size(); ++i) {
      const storage::ProviderCounters& c = registry.at(i).counters();
      n[Boundary::kProvPuts] += c.puts.load();
      n[Boundary::kProvGets] += c.gets.load();
      n[Boundary::kProvRemoves] += c.removes.load();
      n[Boundary::kProvBatches] += c.batch_requests.load();
      n[Boundary::kProvBytesIn] += c.bytes_in.load();
      n[Boundary::kProvBytesOut] += c.bytes_out.load();
      n[Boundary::kProvErrors] += c.injected_failures.load() + c.io_errors.load();
    }
    if (plane != nullptr) {
      for (std::size_t k = 0; k < plane->shard_count(); ++k) {
        const core::Journal* j = plane->journal(k);
        n[Boundary::kJournalAppended] += j->total_appended();
        n[Boundary::kJournalFlushes] += j->flushes();
        n[Boundary::kJournalBytes] += j->bytes();
      }
    }
    const auto gf = gf256::kernels::work_stats();
    n[Boundary::kGfXor] = gf.xor_bytes;
    n[Boundary::kGfMul] = gf.mul_bytes;
    n[Boundary::kPlacements] = sink->metrics().counter("placement.decisions").value();
    b.cpu_s = cpu_seconds();
    return b;
  }
};

/// Alternating untraced/traced windows of a traced run (untraced first).
struct WindowClock {
  double t0 = 0.0;
  double window_s = 0.0;  ///< 0 = no windows: nothing is traced
  [[nodiscard]] bool traced_at(double t) const {
    if (window_s <= 0.0) return false;
    return static_cast<long>((t - t0) / window_s) % 2 == 1;
  }
};

/// One acknowledged op of the timed phase.
struct Completion {
  double t_end = 0.0;
  OpKind kind = OpKind::kPut;
  double ms = 0.0;
  std::uint64_t bytes = 0;  ///< logical bytes written or read
};

/// One closed-loop client: its identity, generator, expected bytes and
/// what it measured.
struct Client {
  std::string name;
  Rng rng;
  std::vector<std::string> live;  ///< oldest first
  std::unordered_map<std::string, Bytes> model;  ///< last acknowledged bytes
  std::uint64_t next_file = 0;

  // Measurements (reset at the start of each phase).
  bool timed = false;
  const WindowClock* clock = nullptr;
  std::vector<Completion> completions;  ///< untraced timed ops
  ReportSums untraced_sums, traced_sums;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  double last_end = 0.0;

  void reset_stats() {
    completions.clear();
    untraced_sums = traced_sums = ReportSums{};
    attempted = failed = 0;
    errors.clear();
  }

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 4) errors.push_back(name + ": " + what);
  }
};

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = rng.next();
    std::memcpy(b.data() + i, &w, 8);
  }
  if (i < n) {
    const std::uint64_t w = rng.next();
    std::memcpy(b.data() + i, &w, n - i);
  }
  return b;
}

/// Runs client ops against one distributor and checks every answer.
class Runner {
 public:
  Runner(const WorkloadSpec& spec, World& world)
      : spec_(spec), world_(world),
        chunk_bytes_(core::ChunkSizePolicy{}.chunk_size(spec.pl)) {}

  void put(Client& c) {
    if (c.live.size() >= spec_.live_bound) remove(c, 0);
    const std::string file = "f" + std::to_string(c.next_file++);
    Bytes data = random_bytes(c.rng, spec_.file_bytes);
    core::PutOptions po;
    po.privacy_level = spec_.pl;
    core::OpReport rep;
    const double t = begin(c);
    obs::ScopedSpan span = op_span(c, "bench.put_file", file);
    const Status st = world_.cdd->put_file(c.name, kPassword, file, data, po,
                                           &rep);
    ReportSums s;
    s.chunks_put = rep.chunks;
    s.bytes_put = data.size();
    if (!end(c, OpKind::kPut, t, st, rep, s, data.size())) return;
    c.live.push_back(file);
    c.model.emplace(file, std::move(data));
  }

  void get_file(Client& c) {
    if (c.live.empty()) return put(c);
    const std::string& file = c.live[c.rng.below(c.live.size())];
    core::OpReport rep;
    const double t = begin(c);
    obs::ScopedSpan span = op_span(c, "bench.get_file", file);
    Result<Bytes> got = world_.cdd->get_file(c.name, kPassword, file, &rep);
    ReportSums s;
    s.chunks_read = rep.chunks;
    if (!end(c, OpKind::kGetFile, t, got.status(), rep, s,
             got.ok() ? got.value().size() : 0)) {
      return;
    }
    if (got.value() != c.model.at(file)) c.fail("get_file " + file + ": wrong bytes");
  }

  void get_chunk(Client& c) {
    const std::string& file = c.live[c.rng.below(c.live.size())];
    const Bytes& want = c.model.at(file);
    const std::uint64_t chunks = (want.size() + chunk_bytes_ - 1) / chunk_bytes_;
    const std::uint64_t serial = c.rng.below(chunks);
    core::OpReport rep;
    const double t = begin(c);
    obs::ScopedSpan span = op_span(c, "bench.get_chunk", file);
    Result<Bytes> got =
        world_.cdd->get_chunk(c.name, kPassword, file, serial, &rep);
    ReportSums s;
    s.chunks_read = 1;
    if (!end(c, OpKind::kGetChunk, t, got.status(), rep, s,
             got.ok() ? got.value().size() : 0)) {
      return;
    }
    const std::size_t off = serial * chunk_bytes_;
    const std::size_t len = std::min(chunk_bytes_, want.size() - off);
    if (got.value().size() != len ||
        !std::equal(got.value().begin(), got.value().end(), want.begin() + off)) {
      c.fail("get_chunk " + file + "#" + std::to_string(serial) +
             ": wrong bytes");
    }
  }

  void update(Client& c) {
    const std::string& file = c.live[c.rng.below(c.live.size())];
    Bytes& want = c.model.at(file);
    const std::uint64_t chunks = (want.size() + chunk_bytes_ - 1) / chunk_bytes_;
    const std::uint64_t serial = c.rng.below(chunks);
    const std::size_t off = serial * chunk_bytes_;
    const std::size_t len = std::min(chunk_bytes_, want.size() - off);
    Bytes data = random_bytes(c.rng, len);
    core::OpReport rep;
    const double t = begin(c);
    obs::ScopedSpan span = op_span(c, "bench.update_chunk", file);
    const Status st = world_.cdd->update_chunk(c.name, kPassword, file, serial,
                                               data, &rep);
    ReportSums s;
    s.chunks_updated = 1;
    if (!end(c, OpKind::kUpdate, t, st, rep, s, len)) return;
    std::copy(data.begin(), data.end(), want.begin() + off);
  }

  /// Removes live file `idx` (0 = the oldest).
  void remove(Client& c, std::size_t idx) {
    const std::string file = c.live[idx];
    core::OpReport rep;
    const double t = begin(c);
    obs::ScopedSpan span = op_span(c, "bench.remove_file", file);
    const Status st = world_.cdd->remove_file(c.name, kPassword, file);
    if (!end(c, OpKind::kRemove, t, st, rep, ReportSums{}, 0)) return;
    c.live.erase(c.live.begin() + static_cast<std::ptrdiff_t>(idx));
    c.model.erase(file);
  }

  /// One step of the workload's closed loop.
  void step(Client& c) {
    switch (spec_.mix) {
      case Mix::kBulk:
        put(c);
        get_file(c);
        return;
      case Mix::kSmall: {
        const double r = c.rng.uniform();
        if (r < 0.6) return get_file(c);
        if (r < 0.9 || c.live.empty()) return put(c);
        return remove(c, c.rng.below(c.live.size()));
      }
      case Mix::kUpdate:
        if (c.rng.uniform() < 0.7) return get_chunk(c);
        return update(c);
    }
  }

  /// Reads back every live file of `c` and compares it with the model.
  void verify_all(Client& c) {
    for (const std::string& file : c.live) {
      ++c.attempted;
      Result<Bytes> got = world_.cdd->get_file(c.name, kPassword, file);
      if (!got.ok()) {
        c.fail("read-back " + file + ": " + got.status().to_string());
      } else if (got.value() != c.model.at(file)) {
        c.fail("read-back " + file + ": wrong bytes");
      }
    }
  }

 private:
  /// The benchmark's own span around one client call (inert while
  /// telemetry is off).
  obs::ScopedSpan op_span(const Client& c, const char* name,
                          const std::string& file) {
    obs::SpanRecord proto;
    proto.name = name;
    proto.client = c.name;
    proto.file = file;
    if (world_.sink->enabled()) {
      proto.span_id = proto.op_id = world_.sink->tracer().next_id();
    }
    return obs::ScopedSpan(world_.sink.get(), std::move(proto));
  }

  double begin(Client& c) {
    ++c.attempted;
    return now_s();
  }

  /// Books a finished op; false when it failed.
  bool end(Client& c, OpKind kind, double t, const Status& st,
           const core::OpReport& rep, ReportSums s, std::uint64_t bytes) {
    const double t_end = now_s();
    if (!st.ok()) {
      c.fail(std::string("op ") + std::to_string(static_cast<int>(kind)) +
             ": " + st.to_string());
      return false;
    }
    c.last_end = t_end;
    if (!c.timed) return true;
    s.ops = 1;
    s.parity_reads = rep.parity_reads;
    s.retries = rep.retries;
    s.hedges = rep.hedges;
    const bool traced = c.clock != nullptr && c.clock->traced_at(t);
    (traced ? c.traced_sums : c.untraced_sums).add(s);
    if (!traced) c.completions.push_back({t_end, kind, (t_end - t) * 1e3, bytes});
    return true;
  }

  const WorkloadSpec& spec_;
  World& world_;
  std::size_t chunk_bytes_;
};

/// Runs `fn(client)` on one thread per client and joins them all.
template <class Fn>
void on_clients(std::vector<Client>& clients, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (Client& c : clients) threads.emplace_back([&fn, &c] { fn(c); });
  for (std::thread& t : threads) t.join();
}

std::vector<Client> make_clients(std::size_t n, std::uint64_t seed) {
  std::vector<Client> clients(n);
  for (std::size_t i = 0; i < n; ++i) {
    clients[i].name = "client" + std::to_string(i);
    clients[i].rng = Rng(mix64(seed * 0x9E3779B97F4A7C15ULL + i + 1));
  }
  return clients;
}

/// Deploy + register + preload: the set-up a new deployment pays.
void set_up(World& w, std::vector<Client>& clients, std::uint64_t seed) {
  w.registry = storage::make_default_registry(12);
  if (w.spec->realtime) {
    for (ProviderIndex i = 0; i < w.registry.size(); ++i) {
      w.registry.at(i).set_realtime_scale(1.0);
    }
  }
  fs::create_directories(w.dir);
  w.open_plane({});
  w.start_distributor(seed);
  for (Client& c : clients) {
    CS_REQUIRE(w.cdd->register_client(c.name).ok(), "register_client");
    CS_REQUIRE(w.cdd->add_password(c.name, kPassword, PrivacyLevel::kHigh).ok(),
               "add_password");
  }
  Runner d(*w.spec, w);
  on_clients(clients, [&](Client& c) {
    for (std::size_t i = 0; i < w.spec->preload_files; ++i) d.put(c);
  });
}

/// Chunk-row shape over the live rows of every partition.
RowShape row_shape(const WorkloadSpec& spec, const MetadataPlane& plane) {
  RowShape s;
  s.chunk_bytes = core::ChunkSizePolicy{}.chunk_size(spec.pl);
  double row = 0.0, mis = 0.0, padded = 0.0, prot = 0.0, pos = 0.0;
  for (std::size_t k = 0; k < plane.shard_count(); ++k) {
    const core::MetadataStore& store = plane.store(k);
    for (std::size_t i = 0; i < store.total_chunks(); ++i) {
      Result<core::ChunkEntry> e = store.chunk_entry(i);
      if (!e.ok() || e.value().deleted) continue;
      const core::ChunkEntry& ce = e.value();
      Bytes enc;
      wire::Writer wr(enc);
      core::write_chunk_entry(wr, ce);
      row += static_cast<double>(enc.size());
      const double p = static_cast<double>(ce.misleading.size() +
                                           ce.snapshot_misleading.size());
      pos += p;
      mis += 4.0 * p;
      padded += static_cast<double>(ce.padded_size);
      prot += static_cast<double>(ce.protect_bytes);
      ++s.live_chunks;
    }
  }
  if (s.live_chunks == 0) return s;
  const double n = static_cast<double>(s.live_chunks);
  s.row_bytes = row / n;
  s.misleading_row_bytes = mis / n;
  s.padded_bytes = static_cast<std::size_t>(padded / n + 0.5);
  s.protect_bytes = static_cast<std::size_t>(prot / n + 0.5);
  s.positions = static_cast<std::size_t>(pos / n + 0.5);
  return s;
}

void put_metric(Metrics& m, const std::string& name, double v,
                const std::string& unit) {
  m[name] = Metric{v, unit};
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Runs this program again as `--recovery-rss <dir> <shards>` and returns
/// the child's resident growth per live chunk; 0 with a failure noted when
/// the child could not tell.
double recovery_rss_per_chunk(const fs::path& dir, std::size_t shards,
                              RunResult& out) {
  const std::string report = (dir / "rss.txt").string();
  const std::string dir_s = dir.string();
  const std::string shards_s = std::to_string(shards);
  std::string exe = "/proc/self/exe";
  char* argv[] = {exe.data(), const_cast<char*>("--recovery-rss"),
                  const_cast<char*>(dir_s.c_str()),
                  const_cast<char*>(shards_s.c_str()), nullptr};
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, report.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const int err = posix_spawn(&pid, exe.c_str(), &fa, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&fa);
  int status = 0;
  if (err != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    out.failures.push_back("recovery RSS child failed");
    return 0.0;
  }
  std::ifstream in(report);
  double grown = 0.0, live = 0.0;
  in >> grown >> live;
  return live > 0.0 ? grown / live : 0.0;
}

}  // namespace

RunResult run_workload(const RunOptions& opt) {
  const WorkloadSpec& spec = *opt.spec;
  RunResult out;
  const std::size_t n_clients = std::min(spec.clients, host_cores());
  // Pools match the CPU budget. I/O threads that sleep out a modeled round
  // trip leave their CPU free, so there are four per CPU; I/O threads that
  // only copy bytes get one.
  const std::size_t budget = spec.cpus > 0 ? std::min(spec.cpus, host_cores())
                                           : host_cores();
  const std::size_t workers = budget;
  const std::size_t io_threads = spec.realtime ? 4 * budget : budget;
  out.info["clients"] = std::to_string(n_clients);
  out.info["worker_threads"] = std::to_string(workers);
  out.info["io_threads"] = std::to_string(io_threads);

  // Untraced and traced windows share one code path: telemetry is wired in
  // and switched at run time. The process-global sink carries the RAID
  // kernel histograms.
  auto sink = std::make_shared<obs::Telemetry>(false, 1u << 19);
  obs::Telemetry::global()->set_enabled(false);
  obs::Telemetry::global()->reset();

  // --- set-up, several times; the last deployment serves the run --------
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  std::vector<Client> clients;
  for (std::size_t rep = 0; rep < opt.setup_reps; ++rep) {
    if (world != nullptr) {
      world->stop();
      fs::remove_all(world->dir);
    }
    world = std::make_unique<World>();
    world->spec = &spec;
    world->sink = sink;
    world->workers = workers;
    world->io_threads = io_threads;
    world->dir = fs::path(opt.work_dir) / ("deploy" + std::to_string(rep));
    clients = make_clients(n_clients, opt.seed);
    const double t = now_s();
    set_up(*world, clients, opt.seed);
    setup_s.push_back(now_s() - t);
  }
  World& w = *world;
  Runner runner(spec, w);
  for (Client& c : clients) {
    out.attempted += c.attempted;
    out.failed += c.failed;
    for (const std::string& e : c.errors) out.failures.push_back(e);
  }

  // --- timed phase ------------------------------------------------------
  WindowClock clock;
  TraceCapture cap;
  const Boundary b0 = w.boundary();
  for (Client& c : clients) {
    c.reset_stats();
    c.timed = true;
    c.clock = &clock;
  }
  std::barrier start_line(static_cast<std::ptrdiff_t>(clients.size() + 1));
  std::vector<std::thread> threads;
  double deadline = 0.0;
  for (Client& c : clients) {
    threads.emplace_back([&, cp = &c] {
      start_line.arrive_and_wait();
      while (now_s() < deadline) runner.step(*cp);
    });
  }
  clock.t0 = now_s();
  clock.window_s = opt.trace ? std::max(0.5, opt.seconds / 10.0) : 0.0;
  deadline = clock.t0 + opt.seconds;
  start_line.arrive_and_wait();
  const double t0 = clock.t0;
  if (opt.trace) {
    // Flip telemetry at every window edge, booking boundary deltas of the
    // traced windows, and sample the batcher's queue depth meanwhile. The
    // depth gauge only moves while telemetry is on, so it restarts from 0
    // at each traced window (samples are clamped at 0).
    Boundary at_edge = w.boundary();
    bool traced = false;
    long window = 0;
    obs::Gauge& depth = sink->metrics().gauge("cdd.shard_batch_queue_depth");
    while (now_s() < deadline) {
      const long wnow = static_cast<long>((now_s() - t0) / clock.window_s);
      if (wnow != window) {
        const Boundary b = w.boundary();
        if (traced) cap.delta += b - at_edge;
        at_edge = b;
        window = wnow;
        traced = window % 2 == 1;
        if (traced) depth.set(0);
        sink->set_enabled(traced);
        obs::Telemetry::global()->set_enabled(traced);
      }
      if (traced) {
        cap.queue_depth_samples.push_back(
            std::max<double>(0.0, static_cast<double>(depth.value())));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (std::thread& t : threads) t.join();
    if (traced) cap.delta += w.boundary() - at_edge;
    sink->set_enabled(false);
    obs::Telemetry::global()->set_enabled(false);
    // Window time inside [t0, deadline]: odd windows are the traced ones.
    for (long k = 0; k * clock.window_s < opt.seconds; ++k) {
      const double len =
          std::min(opt.seconds, (k + 1) * clock.window_s) - k * clock.window_s;
      (k % 2 == 1 ? cap.traced_s : cap.untraced_s) += len;
    }
  } else {
    for (std::thread& t : threads) t.join();
  }
  const Boundary b1 = w.boundary();
  double t_end = t0;
  for (Client& c : clients) t_end = std::max(t_end, c.last_end);
  const double wall = t_end - t0;

  ReportSums untraced, traced;
  std::vector<Completion> done;
  for (Client& c : clients) {
    untraced.add(c.untraced_sums);
    traced.add(c.traced_sums);
    done.insert(done.end(), c.completions.begin(), c.completions.end());
    out.attempted += c.attempted;
    out.failed += c.failed;
    for (const std::string& e : c.errors) out.failures.push_back(e);
    c.timed = false;
    c.clock = nullptr;
  }
  const std::uint64_t ops = untraced.ops + traced.ops;

  // Bytes at providers against live logical bytes; the live set.
  std::uint64_t stored = 0, live_bytes = 0, live_files = 0;
  for (ProviderIndex i = 0; i < w.registry.size(); ++i) {
    stored += w.registry.at(i).bytes_stored();
  }
  for (const Client& c : clients) {
    live_files += c.live.size();
    for (const auto& [f, b] : c.model) live_bytes += b.size();
  }
  const RowShape shape = row_shape(spec, *w.plane);
  out.info["live_files"] = std::to_string(live_files);
  out.info["live_chunks"] = std::to_string(shape.live_chunks);
  out.info["live_bytes"] = std::to_string(live_bytes);

  if (opt.trace) {
    cap.traced_ops = traced.ops;
    cap.untraced_ops = untraced.ops;
    cap.sums = traced;
    cap.spans = sink->tracer().snapshot();
    cap.metrics = sink->metrics().snapshot();
    cap.metrics_text = sink->metrics().to_prometheus();
    cap.raid_text = obs::Telemetry::global()->metrics().to_prometheus();
  }

  auto join = [](const std::vector<double>& v) {
    std::string s;
    for (double x : v) s += (s.empty() ? "" : ",") + fmt(x);
    return s;
  };

  // --- end-to-end metrics (untraced runs only) ---------------------------
  if (!opt.trace) {
    auto is_write = [](OpKind k) { return k == OpKind::kPut || k == OpKind::kUpdate; };
    auto is_read = [](OpKind k) { return k == OpKind::kGetFile || k == OpKind::kGetChunk; };
    std::vector<double> writes, reads, puts, updates;
    std::uint64_t bytes_written = 0;
    for (const Completion& c : done) {
      if (is_write(c.kind)) {
        writes.push_back(c.ms);
        bytes_written += c.bytes;
      }
      if (is_read(c.kind)) reads.push_back(c.ms);
      if (c.kind == OpKind::kPut) puts.push_back(c.ms);
      if (c.kind == OpKind::kUpdate) updates.push_back(c.ms);
    }
    // Rates are the median over equal windows of the timed phase, so a
    // burst of contention on a shared host costs one window, not the run.
    // A window holds at least ~50 writes and ~50 reads (fewer windows,
    // down to one, when ops are slow) so per-window counts are not coarse;
    // a single window is the whole run, ops overrunning the deadline
    // included.
    const std::size_t min_kind = std::min(writes.size(), reads.size());
    const std::size_t windows = std::clamp<std::size_t>(
        min_kind / 50, 1, static_cast<std::size_t>(std::max(1.0, std::floor(opt.seconds))));
    const double win_s = opt.seconds / static_cast<double>(windows);
    auto rate = [&](auto amount) {
      if (windows == 1) {
        double total = 0.0;
        for (const Completion& c : done) total += amount(c);
        return wall > 0 ? total / wall : 0.0;
      }
      std::vector<double> per(windows, 0.0);
      for (const Completion& c : done) {
        const auto k = static_cast<std::size_t>(std::max(0.0, c.t_end - t0) / win_s);
        if (k < windows) per[k] += amount(c);
      }
      return median_of(per) / win_s;
    };
    auto write_mb = [&](const Completion& c) { return is_write(c.kind) ? c.bytes / 1e6 : 0.0; };
    auto read_mb = [&](const Completion& c) { return is_read(c.kind) ? c.bytes / 1e6 : 0.0; };
    Metrics& e = out.e2e;
    put_metric(e, "write_mbps", rate(write_mb), "MB/s");
    put_metric(e, "read_mbps", rate(read_mb), "MB/s");
    put_metric(e, "ops_per_s", rate([](const Completion&) { return 1.0; }), "ops/s");
    put_metric(e, "write_p50_ms", median_of(writes), "ms");
    put_metric(e, "read_p50_ms", median_of(reads), "ms");
    put_metric(e, "cpu_ms_per_op",
               ops > 0 ? (b1.cpu_s - b0.cpu_s) * 1e3 / static_cast<double>(ops) : 0.0,
               "ms");
    put_metric(e, "stored_bytes_per_user_byte",
               live_bytes > 0 ? static_cast<double>(stored) / static_cast<double>(live_bytes) : 0.0,
               "ratio");
    put_metric(e, "meta_bytes_per_user_byte",
               bytes_written > 0 ? (b1[Boundary::kJournalBytes] - b0[Boundary::kJournalBytes]) /
                                       static_cast<double>(bytes_written)
                                 : 0.0,
               "ratio");
    out.info["rate_windows"] = std::to_string(windows);
    out.info["write_samples"] = std::to_string(writes.size());
    out.info["read_samples"] = std::to_string(reads.size());
    // The per-op-type view of the same samples, under the names the
    // operator's questions use (put / get / update), with the tails. Tails
    // are reported, not gated: on a shared host they move with neighbours'
    // load far more than medians do (see README.md).
    Metrics& n = out.named;
    auto by_type = [&](const std::string& name, const std::vector<double>& v) {
      if (v.empty()) return;
      const Tail t = tail_of(v);
      put_metric(n, name + "_p50_ms", median_of(v), "ms");
      put_metric(n, name + "_tail_ms", t.value, "ms");
      out.info[name + "_tail_percentile"] = fmt(t.percentile);
      for (double q : {0.95, 0.99}) {
        const Tail hi = tail_of(v, std::span<const double>(&q, 1));
        if (hi.percentile < 100) out.info[name + "_p" + fmt(q * 100) + "_ms"] = fmt(hi.value);
      }
      out.info[name + "_samples"] = std::to_string(v.size());
    };
    by_type("put", puts);
    by_type("get", reads);
    by_type("update", updates);
    if (!puts.empty()) {
      put_metric(n, "put_mbps", rate([](const Completion& c) {
                   return c.kind == OpKind::kPut ? c.bytes / 1e6 : 0.0;
                 }), "MB/s");
    }
    if (!reads.empty()) put_metric(n, "get_mbps", rate(read_mb), "MB/s");
    out.info["wall_s"] = fmt(wall);
  }

  // --- checkpoint, a fixed journal tail, then restart --------------------
  const double tc = now_s();
  const Status ck = w.cdd->checkpoint();
  const double checkpoint_s = now_s() - tc;
  if (!ck.ok()) out.failures.push_back("checkpoint: " + ck.to_string());
  on_clients(clients, [&](Client& c) {
    for (std::size_t i = 0; i < spec.tail_ops; ++i) runner.step(c);
  });
  if (opt.corrupt_expected) {
    // Self-test of the checker: poison one expected byte of a live file.
    Client& c = clients.front();
    if (!c.live.empty()) c.model.at(c.live.back())[0] ^= 0x5A;
  }
  w.stop();
  const double rss_per_chunk =
      opt.trace ? recovery_rss_per_chunk(w.dir, spec.meta_shards, out) : 0.0;

  // Restart several times over the same journals: recovery is read-only on
  // the journal files, and reconcile after a clean restart must find
  // nothing to do, so every repetition does equal work. At least
  // recover_reps restarts; cheap ones repeat until the budget is spent,
  // since a sub-second restart is the most exposed to host jitter.
  std::vector<double> replay_s, reconcile_s, recover_s;
  std::size_t replayed = 0;
  bool recovered = true;
  const double restart_t0 = now_s();
  for (std::size_t rep = 0;
       recovered && rep < kMaxRestarts &&
       (rep < opt.recover_reps || now_s() - restart_t0 < kRestartBudgetS);
       ++rep) {
    w.stop();
    const double tr = now_s();
    Result<core::PlaneRecovery> rec = core::recover_plane(
        w.checkpoint_base(), w.journal_base(), spec.meta_shards);
    replay_s.push_back(now_s() - tr);
    if (!rec.ok()) {
      out.failures.push_back("recover_plane: " + rec.status().to_string());
      ++out.failed;
      recovered = false;
      break;
    }
    replayed = rec.value().replayed_records;
    std::vector<std::shared_ptr<core::MetadataStore>> stores;
    for (auto& sh : rec.value().shards) stores.push_back(sh.metadata);
    w.open_plane(std::move(stores));
    w.start_distributor(opt.seed ^ (0x5EC0DULL + rep));
    const double tq = now_s();
    Result<CloudDataDistributor::ReconcileReport> rr =
        w.cdd->reconcile(rec.value().in_flight);
    reconcile_s.push_back(now_s() - tq);
    recover_s.push_back(now_s() - tr);
    if (!rr.ok()) {
      out.failures.push_back("reconcile: " + rr.status().to_string());
      ++out.failed;
      continue;
    }
    const auto& r = rr.value();
    const std::size_t anomalies =
        r.orphans_removed + r.stale_ids + r.aborted_files + r.repaired_shards;
    if (anomalies != 0) {
      out.failures.push_back(
          "reconcile after a clean restart: " + std::to_string(r.orphans_removed) +
          " orphans, " + std::to_string(r.stale_ids) + " stale ids, " +
          std::to_string(r.aborted_files) + " aborted puts, " +
          std::to_string(r.repaired_shards) + " repaired");
      out.failed += anomalies;
    }
  }
  if (recovered) {
    // Read back every acknowledged live file. Provider sleeps are off here:
    // this is a check, not a measurement.
    for (ProviderIndex i = 0; i < w.registry.size(); ++i) {
      w.registry.at(i).set_realtime_scale(0.0);
    }
    for (Client& c : clients) c.reset_stats();
    on_clients(clients, [&](Client& c) { runner.verify_all(c); });
  }
  for (Client& c : clients) {
    out.attempted += c.attempted;
    out.failed += c.failed;
    for (const std::string& e : c.errors) out.failures.push_back(e);
  }
  if (!opt.trace) {
    put_metric(out.e2e, "setup_s", median_of(setup_s), "s");
    put_metric(out.e2e, "recover_s", median_of(recover_s), "s");
  }
  out.info["recovered_records"] = std::to_string(replayed);
  out.info["setup_samples_s"] = join(setup_s);
  out.info["recover_samples_s"] = join(recover_s);
  out.info["reconcile_samples_s"] = join(reconcile_s);

  if (opt.trace) {
    Metrics& l = out.layers;
    put_metric(l, "metadata.checkpoint_s", checkpoint_s, "s");
    put_metric(l, "metadata.rss_bytes_per_chunk", rss_per_chunk, "B");
    put_metric(l, "recovery.replay_s", median_of(replay_s), "s");
    put_metric(l, "recovery.reconcile_s", median_of(reconcile_s), "s");
    put_metric(l, "recovery.records", static_cast<double>(replayed), "count");
    layer_metrics(spec, opt, w.registry, cap, shape, l);
  }
  w.stop();
  fs::remove_all(w.dir);

  out.correct = out.failed == 0 && out.failures.empty();
  if (!out.correct && out.failed == 0) out.failed = 1;
  return out;
}

int recovery_rss_child(const std::string& dir, std::size_t shards) {
  const fs::path d(dir);
  const std::size_t rss0 = rss_bytes();
  Result<core::PlaneRecovery> rec =
      core::recover_plane(d / kCheckpointFile, d / kJournalFile, shards);
  if (!rec.ok()) {
    std::fprintf(stderr, "recover_plane: %s\n", rec.status().to_string().c_str());
    return 1;
  }
  const std::size_t rss1 = rss_bytes();
  std::size_t live = 0;
  for (const auto& sh : rec.value().shards) {
    const core::MetadataStore& store = *sh.metadata;
    for (std::size_t i = 0; i < store.total_chunks(); ++i) {
      Result<core::ChunkEntry> e = store.chunk_entry(i);
      if (e.ok() && !e.value().deleted) ++live;
    }
  }
  std::printf("%zu %zu\n", rss1 > rss0 ? rss1 - rss0 : 0, live);
  return 0;
}

}  // namespace cloudbench
