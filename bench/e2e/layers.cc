#include "layers.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "agg/spilling_aggregator.h"
#include "cluster/exchange.h"
#include "cluster/node_context.h"
#include "net/transport.h"
#include "storage/disk.h"
#include "workload/generator.h"

namespace adaptagg {
namespace e2e {
namespace {

/// Timed passes per layer, after one untimed warm-up pass.
constexpr int kPasses = 5;

/// Scan batches between inbox drains in the scatter timer: the engine's
/// poll-while-scanning cadence, so payload buffers recycle through the
/// sender's page pool as they do in a run.
constexpr int kDrainEvery = 8;

/// Keeps measured loops from being optimised away.
volatile int64_t g_sink = 0;

/// Runs `pass` once to warm up, then kPasses times; returns the median
/// of the seconds each timed pass reports.
Result<double> MedianPass(const std::function<Result<double>()>& pass) {
  ADAPTAGG_RETURN_IF_ERROR(pass().status());
  std::vector<double> secs;
  for (int i = 0; i < kPasses; ++i) {
    ADAPTAGG_ASSIGN_OR_RETURN(double s, pass());
    secs.push_back(s);
  }
  return Median(std::move(secs));
}

/// Node 0's share of the relation, copied out of its partition once,
/// plus its projected records cut into hashed scan batches.
struct NodeShare {
  explicit NodeShare(const AggregationSpec* spec) : spec(spec) {}

  const AggregationSpec* spec;
  int64_t tuples = 0;
  int tuple_bytes = 0;
  std::vector<uint8_t> records;
  std::vector<uint8_t> projected;
  std::vector<TupleBatch> batches;
};

void CutBatches(const AggregationSpec* spec, const uint8_t* recs,
                int width, int64_t n, std::vector<TupleBatch>* out) {
  for (int64_t off = 0; off < n; off += kBatchWidth) {
    const int run = static_cast<int>(std::min<int64_t>(n - off, kBatchWidth));
    out->emplace_back(spec);
    out->back().BindView(recs + static_cast<size_t>(off) * width, width, run);
    out->back().ComputeHashes();
  }
}

Status LoadShare(PartitionedRelation& rel, NodeShare* share) {
  const Schema& schema = rel.schema();
  share->tuple_bytes = schema.tuple_size();
  HeapFileScanner scanner(&rel.partition(0));
  const uint8_t* run[kBatchWidth];
  int got = 0;
  while ((got = scanner.NextRun(run, kBatchWidth)) > 0) {
    for (int i = 0; i < got; ++i) {
      share->records.insert(share->records.end(), run[i],
                            run[i] + share->tuple_bytes);
    }
  }
  ADAPTAGG_RETURN_IF_ERROR(scanner.status());
  share->tuples =
      static_cast<int64_t>(share->records.size()) / share->tuple_bytes;
  const int w = share->spec->projected_width();
  share->projected.resize(static_cast<size_t>(share->tuples * w));
  for (int64_t i = 0; i < share->tuples; ++i) {
    share->spec->ProjectRaw(
        TupleView(share->records.data() + i * share->tuple_bytes, &schema),
        share->projected.data() + i * w);
  }
  CutBatches(share->spec, share->projected.data(), w, share->tuples,
             &share->batches);
  return Status::OK();
}

/// The partial records node 0 merges in a two-phase run: every node's
/// local aggregate of its own partition, keeping the groups that route
/// to node 0.
Status LoadPartials(PartitionedRelation& rel, const AggregationSpec& spec,
                    int64_t groups, std::vector<uint8_t>* partials) {
  const int nodes = rel.num_nodes();
  const int pw = spec.partial_width();
  for (int node = 0; node < nodes; ++node) {
    SimDisk disk(kDefaultPageSize);
    SpillingAggregator agg(&spec, &disk, groups + 1);
    TupleBatch batch(&spec);
    HeapFileScanner scanner(&rel.partition(node));
    const uint8_t* run[kBatchWidth];
    int got = 0;
    while ((got = scanner.NextRun(run, kBatchWidth)) > 0) {
      batch.Clear();
      for (int i = 0; i < got; ++i) {
        batch.Gather(TupleView(run[i], &rel.schema()));
      }
      batch.ComputeHashes();
      ADAPTAGG_RETURN_IF_ERROR(agg.AddProjectedBatch(batch));
    }
    ADAPTAGG_RETURN_IF_ERROR(scanner.status());
    ADAPTAGG_RETURN_IF_ERROR(
        agg.Finish([&](const uint8_t* key, const uint8_t* state) {
          if (DestOfKeyHash(spec.HashKey(key), nodes) != 0) return;
          const size_t at = partials->size();
          partials->resize(at + static_cast<size_t>(pw));
          std::memcpy(partials->data() + at, key,
                      static_cast<size_t>(spec.key_width()));
          std::memcpy(partials->data() + at + spec.key_width(), state,
                      static_cast<size_t>(spec.state_width()));
        }));
  }
  return Status::OK();
}

Result<double> TimeAggregation(const AggregationSpec& spec, int64_t m,
                               const std::vector<TupleBatch>& batches,
                               bool partial) {
  SimDisk disk(kDefaultPageSize);
  SpillingAggregator agg(&spec, &disk, m);
  int64_t groups = 0;
  const double t0 = NowSeconds();
  for (const TupleBatch& b : batches) {
    ADAPTAGG_RETURN_IF_ERROR(partial ? agg.AddPartialBatch(b)
                                     : agg.AddProjectedBatch(b));
  }
  ADAPTAGG_RETURN_IF_ERROR(
      agg.Finish([&](const uint8_t*, const uint8_t*) { ++groups; }));
  const double secs = NowSeconds() - t0;
  g_sink = g_sink + groups;
  return secs;
}

/// Node 0 of an in-process mesh, sending through a real NodeContext.
struct Sender {
  Sender(const SystemParams& params, const AggregationSpec& spec)
      : mesh(MakeInprocMesh(params.num_nodes)), net(params) {
    options.obs = ObsConfig::Disabled();
    ctx = std::make_unique<NodeContext>(0, params, spec, options, nullptr,
                                        nullptr, mesh[0].get(), &net);
  }

  /// Empties every inbox, returning payload buffers to the sender's
  /// pool; keeps copies of the pages when `captured` is given.
  void Drain(std::vector<Message>* captured) {
    for (auto& endpoint : mesh) {
      while (std::optional<Message> msg = endpoint->TryRecv()) {
        if (captured != nullptr) captured->push_back(*msg);
        ctx->ReleasePageBuffer(std::move(msg->payload));
      }
    }
  }

  std::vector<std::unique_ptr<Transport>> mesh;
  NetworkModel net;
  AlgorithmOptions options;
  std::unique_ptr<NodeContext> ctx;
};

Result<double> TimeScatter(Sender& sender, const NodeShare& share,
                           std::vector<Message>* captured) {
  Exchange exchange(sender.ctx.get(), MessageType::kRawPage,
                    share.spec->projected_width(), /*phase=*/1);
  double timed = 0;
  const size_t n = share.batches.size();
  for (size_t from = 0; from < n; from += kDrainEvery) {
    const size_t to = std::min(n, from + kDrainEvery);
    const double t0 = NowSeconds();
    for (size_t b = from; b < to; ++b) {
      ADAPTAGG_RETURN_IF_ERROR(exchange.AddBatch(share.batches[b]));
    }
    timed += NowSeconds() - t0;
    sender.Drain(captured);
  }
  const double t0 = NowSeconds();
  ADAPTAGG_RETURN_IF_ERROR(exchange.FlushAll());
  timed += NowSeconds() - t0;
  sender.Drain(captured);
  return timed;
}

}  // namespace

Status AddLayerTimings(const WorkloadConfig& config,
                       PartitionedRelation& rel, const SystemParams& params,
                       const ExprPtr& where, RunOutcome* out) {
  ADAPTAGG_ASSIGN_OR_RETURN(AggregationSpec spec,
                            MakeBenchQuery(&rel.schema()));
  ADAPTAGG_RETURN_IF_ERROR(ValidatePredicate(*where, rel.schema()));
  NodeShare share(&spec);
  ADAPTAGG_RETURN_IF_ERROR(LoadShare(rel, &share));
  const double tuples = static_cast<double>(share.tuples);

  // storage: HeapFileScanner::NextRun over the partition.
  auto scan_pass = [&]() -> Result<double> {
    HeapFileScanner scanner(&rel.partition(0));
    const uint8_t* run[kBatchWidth];
    int64_t n = 0;
    int got = 0;
    const double t0 = NowSeconds();
    while ((got = scanner.NextRun(run, kBatchWidth)) > 0) n += got;
    const double secs = NowSeconds() - t0;
    ADAPTAGG_RETURN_IF_ERROR(scanner.status());
    g_sink = g_sink + n;
    return secs;
  };
  ADAPTAGG_ASSIGN_OR_RETURN(double scan_s, MedianPass(scan_pass));
  out->Add("storage.scan_ns_per_tuple", scan_s * 1e9 / tuples, "ns");

  // exec: the WHERE predicate over batches of tuples.
  auto where_pass = [&]() -> Result<double> {
    int64_t kept = 0;
    const double t0 = NowSeconds();
    for (int64_t off = 0; off < share.tuples; off += kBatchWidth) {
      const int64_t end = std::min<int64_t>(share.tuples, off + kBatchWidth);
      for (int64_t i = off; i < end; ++i) {
        kept += EvalPredicate(
            *where, TupleView(share.records.data() + i * share.tuple_bytes,
                              &rel.schema()));
      }
    }
    const double secs = NowSeconds() - t0;
    g_sink = g_sink + kept;
    return secs;
  };
  ADAPTAGG_ASSIGN_OR_RETURN(double where_s, MedianPass(where_pass));
  out->Add("exec.where_ns_per_tuple", where_s * 1e9 / tuples, "ns");

  // agg: local aggregation at the workload's M.
  ADAPTAGG_ASSIGN_OR_RETURN(double local_s, MedianPass([&]() {
    return TimeAggregation(spec, config.max_hash_entries, share.batches,
                           /*partial=*/false);
  }));
  out->Add("agg.local_ns_per_tuple", local_s * 1e9 / tuples, "ns");

  // agg: merging the partial records node 0 owns.
  std::vector<uint8_t> partials;
  ADAPTAGG_RETURN_IF_ERROR(LoadPartials(rel, spec, config.groups, &partials));
  const int64_t partial_count =
      static_cast<int64_t>(partials.size()) / spec.partial_width();
  std::vector<TupleBatch> partial_batches;
  CutBatches(&spec, partials.data(), spec.partial_width(), partial_count,
             &partial_batches);
  ADAPTAGG_ASSIGN_OR_RETURN(double merge_s, MedianPass([&]() {
    return TimeAggregation(spec, config.max_hash_entries, partial_batches,
                           /*partial=*/true);
  }));
  out->Add("agg.partial_merge_ns_per_record",
           merge_s * 1e9 / static_cast<double>(std::max<int64_t>(
                               1, partial_count)),
           "ns");

  // exchange: scatter of the projected records to every node.
  Sender sender(params, spec);
  std::vector<Message> pages;
  ADAPTAGG_RETURN_IF_ERROR(TimeScatter(sender, share, &pages).status());
  ADAPTAGG_ASSIGN_OR_RETURN(double scatter_s, MedianPass([&]() {
    return TimeScatter(sender, share, nullptr);
  }));
  out->Add("exchange.scatter_ns_per_record", scatter_s * 1e9 / tuples, "ns");

  // exchange: wire-page header validation of the received pages. One
  // pass over the pages is microseconds, so a pass repeats it.
  constexpr int kDecodeRepeats = 64;
  const int width = spec.projected_width();
  auto decode_pass = [&]() -> Result<double> {
    int64_t records = 0;
    const double t0 = NowSeconds();
    for (int r = 0; r < kDecodeRepeats; ++r) {
      for (const Message& m : pages) {
        ADAPTAGG_ASSIGN_OR_RETURN(
            int count, ValidateWirePage(m.payload.data(), m.payload.size(),
                                        params.message_page_bytes, width));
        records += count;
      }
    }
    const double secs = NowSeconds() - t0;
    g_sink = g_sink + records;
    return secs;
  };
  ADAPTAGG_ASSIGN_OR_RETURN(double decode_s, MedianPass(decode_pass));
  out->Add("exchange.decode_ns_per_page",
           decode_s * 1e9 /
               static_cast<double>(std::max<size_t>(1, pages.size()) *
                                   kDecodeRepeats),
           "ns");

  // net: the socket transport's frame codec (CRC-32C included).
  double frame_bytes = 0;
  auto codec_pass = [&]() -> Result<double> {
    double bytes = 0;
    const double t0 = NowSeconds();
    for (const Message& m : pages) {
      const std::vector<uint8_t> frame = m.Serialize();
      ADAPTAGG_ASSIGN_OR_RETURN(
          Message back, Message::Deserialize(frame.data() + 4,
                                             frame.size() - 4));
      bytes += static_cast<double>(frame.size());
      g_sink = g_sink + static_cast<int64_t>(back.payload.size());
    }
    const double secs = NowSeconds() - t0;
    frame_bytes = bytes;
    return secs;
  };
  ADAPTAGG_ASSIGN_OR_RETURN(double codec_s, MedianPass(codec_pass));
  out->Add("net.codec_ns_per_kib",
           codec_s * 1e9 / std::max(1.0, frame_bytes / 1024.0), "ns");
  return Status::OK();
}

void AddTracedMetrics(const TracedWork& work, int nodes, RunOutcome* out) {
  const MetricsSnapshot& m = work.metrics;
  const double queries =
      static_cast<double>(std::max<int64_t>(1, work.executed_queries));
  const double node_queries = queries * nodes;
  const double tuples =
      static_cast<double>(std::max<int64_t>(1, m.Value("scan.tuples")));
  for (const char* phase : {"scan", "sample", "merge", "emit"}) {
    const std::string name = std::string("phase.") + phase;
    out->Add(name + ".wall_ms",
             static_cast<double>(m.Value(name + ".wall_us")) / 1e3 /
                 node_queries,
             "ms");
  }
  out->Add("agg.ht_probes_per_tuple",
           static_cast<double>(m.Value("agg.ht.probes")) / tuples, "count");
  out->Add("agg.spill_records_per_query",
           static_cast<double>(m.Value("agg.spill.records")) / queries,
           "count");
  out->Add("net.bytes_per_tuple",
           static_cast<double>(m.Value("net.bytes_sent")) / tuples, "B");
  out->Add("net.msgs_per_query",
           static_cast<double>(m.Value("net.msgs_sent")) / queries, "count");
  const double hits = static_cast<double>(m.Value("net.page_pool_hits"));
  const double allocs = static_cast<double>(m.Value("net.page_pool_allocs"));
  out->Add("net.page_pool_hit_ratio",
           hits + allocs > 0 ? hits / (hits + allocs) : 0, "ratio");
  out->Add("core.switches_per_query",
           static_cast<double>(m.Value("core.switches")) / queries, "count");
  const double crashes =
      static_cast<double>(std::max<int64_t>(1, work.crash_queries));
  out->Add("recovery.checkpoint_bytes_per_query",
           static_cast<double>(
               work.crash_metrics.Value("recovery.checkpoint_bytes")) /
               crashes,
           "B");
  out->Add("recovery.pages_deduped",
           static_cast<double>(
               work.crash_metrics.Value("recovery.pages_deduped")) /
               crashes,
           "count");
}

}  // namespace e2e
}  // namespace adaptagg
