// Per-layer numbers of a traced run, taken from outside the program.
//
// Two sources, as README.md explains:
//   (1) counts at boundaries the benchmark owns -- provider counters,
//       journal counters, GF(256) kernel work, OpReport fields, chunk rows
//       -- taken over the traced windows only;
//   (2) replays: each layer's public function timed here on inputs shaped
//       like the run's chunks, then multiplied by the per-op counts of (1).
// The distributor's own spans (root, chunk, shard) and the benchmark's
// replay spans are dumped as JSONL for reading by hand.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <unordered_map>

#include "bench.hpp"
#include "core/chunker.hpp"
#include "core/misleading.hpp"
#include "core/placement.hpp"
#include "core/tables.hpp"
#include "crypto/aes.hpp"
#include "crypto/sha256.hpp"
#include "raid/raid.hpp"

namespace cloudbench {

namespace {

/// Keeps replayed calls' results observable so none is optimised away.
volatile std::size_t g_replay_sink = 0;

/// Median ns per call of `fn` (which returns something derived from its
/// result) over several batches, each recorded as a replay span in `tel`.
template <class Fn>
double replay_ns(obs::Telemetry& tel, const std::string& layer, Fn fn) {
  // Size a batch to ~20 ms so timer overhead and one-off stalls vanish.
  std::size_t calls = 1;
  for (;;) {
    const double t = now_s();
    for (std::size_t i = 0; i < calls; ++i) g_replay_sink = g_replay_sink + fn();
    if (now_s() - t > 0.02 || calls >= (1u << 20)) break;
    calls *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < 5; ++b) {
    obs::SpanRecord proto;
    proto.name = "replay." + layer;
    obs::ScopedSpan span(&tel, std::move(proto));
    span.rec().op_id = span.id();
    const double t = now_s();
    for (std::size_t i = 0; i < calls; ++i) g_replay_sink = g_replay_sink + fn();
    per_call.push_back((now_s() - t) * 1e9 / static_cast<double>(calls));
    span.rec().bytes = calls;  // calls in this batch
  }
  return median_of(per_call);
}

Bytes pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

struct Interval {
  std::int64_t a = 0, b = 0;
};

/// Length of the union of `v`'s intervals.
std::int64_t union_len(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(), [](const Interval& x, const Interval& y) { return x.a < y.a; });
  std::int64_t total = 0, cur_a = 0, cur_b = -1;
  bool open = false;
  for (const Interval& i : v) {
    if (!open || i.a > cur_b) {
      if (open) total += cur_b - cur_a;
      cur_a = i.a;
      cur_b = i.b;
      open = true;
    } else {
      cur_b = std::max(cur_b, i.b);
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

bool is_root_op(const std::string& name) {
  return name == "put_file" || name == "get_file" || name == "get_chunk" ||
         name == "update_chunk" || name == "remove_file";
}

/// Span-tree totals over the distributor's root spans.
struct SpanTotals {
  double root_ns = 0.0;        ///< sum of root wall
  double child_ns = 0.0;       ///< sum of direct-child wall
  double child_union_ns = 0.0; ///< sum over roots of the direct-child union
  double shard_union_ns = 0.0; ///< sum over roots of the shard-span union
  std::uint64_t roots = 0;
};

SpanTotals span_totals(const std::vector<obs::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, const obs::SpanRecord*> roots;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id == 0 && is_root_op(s.name)) roots[s.op_id] = &s;
  }
  std::unordered_map<std::uint64_t, std::vector<Interval>> direct, shard;
  SpanTotals t;
  for (const obs::SpanRecord& s : spans) {
    auto it = roots.find(s.op_id);
    if (it == roots.end() || &s == it->second) continue;
    const Interval iv{s.start_ns, s.start_ns + s.wall_ns};
    if (s.parent_id == it->second->span_id) {
      direct[s.op_id].push_back(iv);
      t.child_ns += static_cast<double>(s.wall_ns);
    }
    if (s.name.rfind("shard_", 0) == 0) shard[s.op_id].push_back(iv);
  }
  for (const auto& [op, root] : roots) {
    t.root_ns += static_cast<double>(root->wall_ns);
    ++t.roots;
    if (auto d = direct.find(op); d != direct.end()) {
      t.child_union_ns += static_cast<double>(union_len(d->second));
    }
    if (auto s = shard.find(op); s != shard.end()) {
      t.shard_union_ns += static_cast<double>(union_len(s->second));
    }
  }
  return t;
}

const obs::Histogram::Snapshot* hist(const obs::MetricsRegistry::Snapshot& m,
                                     const std::string& name) {
  auto it = m.histograms.find(name);
  return it == m.histograms.end() || it->second.count == 0 ? nullptr : &it->second;
}

/// Tail rule on a histogram: the highest percentile of kTailLadder with at
/// least ten samples beyond it, as tail_of() takes it on samples.
double hist_tail(const obs::Histogram::Snapshot& h) {
  const double n = static_cast<double>(h.count);
  for (double q : kTailLadder) {
    if (n - std::ceil(q * n) >= 10) return h.percentile(q);
  }
  return h.max;
}

void put(Metrics& m, const std::string& name, double v, const std::string& unit) {
  m[name] = Metric{std::isfinite(v) ? v : 0.0, unit};
}

}  // namespace

void layer_metrics(const WorkloadSpec& spec, const RunOptions& opt,
                   storage::ProviderRegistry& registry,
                   const TraceCapture& cap, const RowShape& shape,
                   Metrics& out) {
  obs::Telemetry tel(true, 4096);
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, cap.sums.ops));
  const Boundary& d = cap.delta;
  const ReportSums& s = cap.sums;

  // --- replays on inputs shaped like the run's rows -----------------------
  const std::size_t chunk = std::max<std::size_t>(1, shape.chunk_bytes);
  const std::size_t padded = std::max(chunk, shape.padded_bytes);
  const raid::StripeLayout layout = raid::StripeLayout::make(raid::RaidLevel::kRaid5, 3);
  const Bytes file = pattern(spec.file_bytes, opt.seed);
  const Bytes plain = pattern(chunk, opt.seed + 1);
  const Bytes payload = pattern(padded, opt.seed + 2);

  const double split_ns = replay_ns(tel, "chunker.split_file", [&] {
    return core::split_file(file, spec.pl, core::ChunkSizePolicy{}).size();
  });
  Rng chaff_rng(opt.seed + 3);
  const core::MisleadingCodec::Encoded enc =
      core::MisleadingCodec::inject(plain, spec.chaff, chaff_rng);
  const double inject_ns = replay_ns(tel, "misleading.inject", [&] {
    return core::MisleadingCodec::inject(plain, spec.chaff, chaff_rng).data.size();
  });
  const double strip_ns = replay_ns(tel, "misleading.strip", [&] {
    return core::MisleadingCodec::strip(enc.data, enc.positions).size();
  });
  const raid::EncodedStripe stripe = raid::encode(layout, payload);
  const Bytes shard(stripe.shard(0).begin(), stripe.shard(0).end());
  const double sha_ns = replay_ns(tel, "crypto.sha256", [&] {
    return static_cast<std::size_t>(crypto::sha256(shard)[0]);
  });
  const crypto::AesKey key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  const double aes_ns = replay_ns(tel, "crypto.aes128_ctr", [&] {
    return static_cast<std::size_t>(crypto::aes128_ctr(key, 42, payload).back());
  });
  const double encode_ns = replay_ns(tel, "raid.encode", [&] {
    return static_cast<std::size_t>(raid::encode(layout, payload).arena.back());
  });
  const std::vector<std::optional<Bytes>> shards = raid::shard_copies(stripe);
  const double decode_ns = replay_ns(tel, "raid.decode", [&] {
    return raid::decode(layout, shards, payload.size()).value().size();
  });
  core::PlacementPolicy policy(opt.seed);
  const double choose_ns = replay_ns(tel, "placement.choose", [&] {
    return policy.choose(registry, spec.pl, layout.total_shards()).value().size();
  });
  // add_chunk with a row shaped like the run's: stripe, digests and chaff
  // positions of the measured size. Rows are built before the clock runs.
  double commit_ns = 0.0;
  {
    core::ChunkEntry row;
    row.privacy_level = spec.pl;
    row.layout = layout;
    row.stripe.assign(layout.total_shards(), core::ShardLocation{0, 1});
    row.shard_digests.assign(layout.total_shards(), crypto::Digest{});
    row.misleading.assign(shape.positions, 7);
    row.padded_size = padded;
    // Up to ~16 MiB of rows per batch: a bulk row carries ~52 KB of chaff
    // positions.
    const std::size_t n_rows = std::clamp<std::size_t>(
        (16u << 20) / (4 * shape.positions + 256), 64, 4096);
    std::vector<double> per_row;
    for (int b = 0; b < 5; ++b) {
      core::MetadataStore store;
      (void)store.register_client("c");
      (void)store.claim_file("c", "f");
      std::vector<core::ChunkEntry> rows(n_rows, row);
      obs::SpanRecord proto;
      proto.name = "replay.metadata.add_chunk";
      obs::ScopedSpan span(&tel, std::move(proto));
      const double t = now_s();
      for (std::size_t i = 0; i < n_rows; ++i) {
        g_replay_sink = g_replay_sink + store.add_chunk("c", "f", i, std::move(rows[i])).value();
      }
      per_row.push_back((now_s() - t) * 1e9 / static_cast<double>(n_rows));
    }
    commit_ns = median_of(per_row);
  }

  // --- per-op work from boundary counts ---------------------------------
  const double bytes_put = static_cast<double>(s.bytes_put);
  const double chunks_written = static_cast<double>(s.chunks_put + s.chunks_updated);
  const double chunks_read = static_cast<double>(s.chunks_read);
  const double prov_in = d[Boundary::kProvBytesIn];
  const double prov_out = d[Boundary::kProvBytesOut];
  const double aes_bytes =
      (chunks_written + chunks_read) * static_cast<double>(shape.protect_bytes);
  const double k_share = 3.0 / 4.0;  // data share of a 3+1 stripe's bytes
  const double placements = d[Boundary::kPlacements];

  put(out, "chunker.split_ns_per_byte", split_ns / static_cast<double>(file.size()), "ns/B");
  put(out, "chunker.chunks_per_op", static_cast<double>(s.chunks_put) / ops, "count");
  put(out, "misleading.inject_ns_per_byte", inject_ns / static_cast<double>(chunk), "ns/B");
  put(out, "misleading.strip_ns_per_byte", strip_ns / static_cast<double>(enc.data.size()), "ns/B");
  put(out, "misleading.row_bytes_per_chunk", shape.misleading_row_bytes, "B");
  put(out, "sha256.ns_per_byte", sha_ns / static_cast<double>(shard.size()), "ns/B");
  // Every shard stored or fetched is digested exactly once.
  put(out, "sha256.bytes_per_op", (prov_in + prov_out) / ops, "B");
  put(out, "aes.ns_per_byte", aes_ns / static_cast<double>(payload.size()), "ns/B");
  put(out, "aes.bytes_per_op", aes_bytes / ops, "B");
  put(out, "raid.encode_ns_per_byte", encode_ns / static_cast<double>(payload.size()), "ns/B");
  put(out, "raid.decode_ns_per_byte", decode_ns / static_cast<double>(payload.size()), "ns/B");
  put(out, "gf256.xor_bytes_per_op", d[Boundary::kGfXor] / ops, "B");
  put(out, "gf256.mul_bytes_per_op", d[Boundary::kGfMul] / ops, "B");
  put(out, "placement.choose_ns", choose_ns, "ns");
  put(out, "placement.decisions_per_op", placements / ops, "count");

  double modeled_ns = 0.0;
  for (const auto& [name, h] : cap.metrics.histograms) {
    if (name.rfind("provider.", 0) != 0) continue;
    if (name.ends_with(".put_ns") || name.ends_with(".get_ns") || name.ends_with(".remove_ns")) {
      modeled_ns += h.sum;
    }
  }
  put(out, "provider.requests_per_op",
      (d[Boundary::kProvPuts] + d[Boundary::kProvGets] + d[Boundary::kProvRemoves]) / ops, "count");
  put(out, "provider.batch_requests_per_op", d[Boundary::kProvBatches] / ops, "count");
  put(out, "provider.bytes_in_per_op", prov_in / ops, "B");
  put(out, "provider.bytes_out_per_op", prov_out / ops, "B");
  put(out, "provider.modeled_ms_per_op", modeled_ns / 1e6 / ops, "ms");
  put(out, "provider.errors", d[Boundary::kProvErrors], "count");

  put(out, "rt.retries_per_op", static_cast<double>(s.retries) / ops, "count");
  put(out, "rt.hedges_per_op", static_cast<double>(s.hedges) / ops, "count");
  put(out, "rt.parity_reads_per_op", static_cast<double>(s.parity_reads) / ops, "count");

  const obs::Histogram::Snapshot* bsize = hist(cap.metrics, "cdd.shard_batch_size");
  const obs::Histogram::Snapshot* bflush = hist(cap.metrics, "cdd.shard_batch_flush_ns");
  put(out, "batcher.shards_per_rpc", bsize ? bsize->mean() : 0.0, "count");
  // With batching off every shard write is a batch of one, flushed at once
  // as its own RPC: its wait is the shard_put span.
  double flush_p50_ms = bflush ? bflush->percentile(0.5) / 1e6 : 0.0;
  if (spec.rpc_batch_shards <= 1) {
    std::vector<double> shard_puts;
    for (const obs::SpanRecord& r : cap.spans) {
      if (r.name == "shard_put") shard_puts.push_back(static_cast<double>(r.wall_ns) / 1e6);
    }
    flush_p50_ms = median_of(shard_puts);
  }
  put(out, "batcher.flush_wait_ms_p50", flush_p50_ms, "ms");
  double depth = 0.0;
  for (double v : cap.queue_depth_samples) depth += v;
  if (!cap.queue_depth_samples.empty()) {
    depth /= static_cast<double>(cap.queue_depth_samples.size());
  }
  put(out, "batcher.queue_depth", depth, "count");

  const obs::Histogram::Snapshot* jflush = hist(cap.metrics, "journal.flush_ns");
  const double fsyncs = d[Boundary::kJournalFlushes];
  const double per_fsync = fsyncs > 0 ? d[Boundary::kJournalAppended] / fsyncs : 0.0;
  put(out, "journal.appends_per_op", d[Boundary::kJournalAppended] / ops, "count");
  put(out, "journal.fsyncs_per_op", fsyncs / ops, "count");
  put(out, "journal.records_per_fsync", per_fsync, "count");
  put(out, "journal.bytes_per_op", d[Boundary::kJournalBytes] / ops, "B");
  put(out, "journal.flush_ms_p50", jflush ? jflush->percentile(0.5) / 1e6 : 0.0, "ms");
  put(out, "journal.flush_ms_tail", jflush ? hist_tail(*jflush) / 1e6 : 0.0, "ms");

  put(out, "metadata.commit_ns", commit_ns, "ns");
  put(out, "metadata.row_bytes_per_chunk", shape.row_bytes, "B");

  // --- attribution against the distributor's root spans ------------------
  // CPU layers are charged their replay cost times their call count,
  // divided by the fan-out the op's child spans show (the pipeline runs
  // chunks side by side). Provider RPCs are charged the union of the op's
  // shard spans, which also covers the put-side digests computed inside
  // them; batched shard puts have no shard span and are charged their
  // batch's flush. The journal is charged each record's share of its
  // flush: a record waits for the whole fsync it rides on.
  const SpanTotals t = span_totals(cap.spans);
  const double fan_out = t.child_union_ns > 0 ? t.child_ns / t.child_union_ns : 1.0;
  const bool batched = spec.rpc_batch_shards > 1;
  const double sha_bytes = prov_out + (batched ? prov_in : 0.0);
  const double cpu_ns = split_ns / static_cast<double>(file.size()) * bytes_put +
                        inject_ns * chunks_written +
                        strip_ns * chunks_read +
                        sha_ns / static_cast<double>(shard.size()) * sha_bytes +
                        aes_ns / static_cast<double>(payload.size()) * aes_bytes +
                        encode_ns / static_cast<double>(payload.size()) * prov_in * k_share +
                        decode_ns / static_cast<double>(payload.size()) * prov_out +
                        choose_ns * placements + commit_ns * chunks_written;
  const double journal_ns = jflush ? jflush->sum * per_fsync : 0.0;
  const double batch_ns = batched && bflush ? bflush->mean() * chunks_written : 0.0;
  const double attributed = cpu_ns / std::max(1.0, fan_out) + t.shard_union_ns +
                            journal_ns + batch_ns;
  put(out, "cdd.unattributed_frac", t.root_ns > 0 ? 1.0 - attributed / t.root_ns : 0.0,
      "fraction");
  const double traced_rate = cap.traced_s > 0 ? static_cast<double>(cap.traced_ops) / cap.traced_s : 0.0;
  const double untraced_rate =
      cap.untraced_s > 0 ? static_cast<double>(cap.untraced_ops) / cap.untraced_s : 0.0;
  put(out, "trace.overhead_frac", untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0,
      "fraction");

  // --- spans and metrics dumps -----------------------------------------------
  if (!opt.metrics_path.empty()) {
    std::ofstream os(opt.metrics_path, std::ios::trunc);
    os << "# distributor sink (traced windows)\n" << cap.metrics_text
       << "# process-global sink: RAID kernel histograms (traced windows)\n"
       << cap.raid_text;
  }
  if (!opt.spans_path.empty()) {
    std::ofstream os(opt.spans_path, std::ios::trunc);
    for (const obs::SpanRecord& r : cap.spans) os << obs::Tracer::to_json(r) << "\n";
    for (const obs::SpanRecord& r : tel.tracer().snapshot()) {
      os << obs::Tracer::to_json(r) << "\n";
    }
  }
}

}  // namespace cloudbench
