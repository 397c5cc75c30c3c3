#ifndef ADAPTAGG_AGG_HASH_TABLE_H_
#define ADAPTAGG_AGG_HASH_TABLE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "agg/agg_spec.h"
#include "agg/batch_kernels.h"
#include "common/status.h"

namespace adaptagg {

/// Plain (non-atomic) operation counters of one AggHashTable. The table
/// is single-threaded by contract, so these are bare int64 fields; the
/// batch entry points update them once per batch, never per tuple, to
/// keep the hot loops untouched. Cumulative across Clear() so a spilling
/// aggregator's recursive passes add up.
struct HashTableStats {
  /// Probe sequences started (one per upsert; pure Find() is not counted).
  int64_t probes = 0;
  /// Probes that landed on an existing group.
  int64_t hits = 0;
  /// New groups created.
  int64_t inserts = 0;
  /// Slot-arena growth events (doubling).
  int64_t resizes = 0;
  /// Tuples consumed through the batch entry points.
  int64_t batch_tuples = 0;
  /// Batch tuples handled by a fused (non-generic) update kernel.
  int64_t fused_tuples = 0;

  void Accumulate(const HashTableStats& other) {
    probes += other.probes;
    hits += other.hits;
    inserts += other.inserts;
    resizes += other.resizes;
    batch_tuples += other.batch_tuples;
    fused_tuples += other.fused_tuples;
  }
};

/// Memory-bounded open-addressing aggregation hash table (the paper's
/// in-memory hash table with a maximum of M entries, Table 1: M = 10K).
///
/// Slots are fixed-width [key bytes][state bytes] blocks stored in one
/// flat arena; probing is linear over a power-of-two bucket array kept at
/// <= 70% load. The table refuses inserts beyond `max_entries` — detecting
/// that condition is exactly the adaptive algorithms' switch signal — but
/// existing groups can always continue to update in place.
///
/// EnableRadixPartitioning(P) turns on cache-sized radix
/// pre-partitioning for high-cardinality inputs: batch upserts
/// scatter records (with their hash and a global arrival sequence
/// number) into P per-partition staging buffers keyed by the top
/// bits of the masked hash, so each partition owns a contiguous
/// bucket range. Partitions drain — at a staging soft cap and at
/// FlushRadixStaging() — through the normal batch upsert over only
/// their L2-sized region. ForEach then emits groups sorted by each
/// group's first-occurrence sequence, which is exactly the insertion
/// order the non-partitioned path would have produced, so results
/// stay byte-identical. Records refused by a full table surface
/// through DrainRadixOverflow() instead of the caller's overflow
/// vector.
///
/// Not thread-safe: one table per node phase.
class AggHashTable {
 public:
  /// Outcome of an upsert attempt.
  enum class UpsertResult {
    kUpdated,   ///< key existed; state updated/merged
    kInserted,  ///< key was new and fit
    kFull,      ///< key was new but the table is at max_entries
  };

  /// `spec` must outlive the table.
  AggHashTable(const AggregationSpec* spec, int64_t max_entries);

  int64_t size() const { return size_; }
  int64_t max_entries() const { return max_entries_; }
  bool full() const { return size_ >= max_entries_; }
  const AggregationSpec& spec() const { return *spec_; }

  /// Bytes held by the table: actual allocated slot-arena bytes plus the
  /// bucket index, plus — in radix mode — the staging buffers, the
  /// per-slot sequence index, and the pending-overflow buffer. (PR 2
  /// fixed an undercount of grown arenas; the radix additions keep the
  /// table-size switch decision honest the same way.)
  int64_t MemoryBytes() const;

  /// Finds the slot for `key` (with its precomputed hash), inserting an
  /// initialized state when absent and capacity remains. On success,
  /// `*state` points at the slot's mutable state block; on kFull, `*state`
  /// is nullptr. Not available in radix mode (staged records would be
  /// invisible).
  UpsertResult FindOrInsert(const uint8_t* key, uint64_t hash,
                            uint8_t** state);

  /// Upserts a projected raw record: init+update on insert, update on hit.
  UpsertResult UpsertProjected(const uint8_t* proj, uint64_t hash);

  /// Upserts a partial record: init+merge on insert, merge on hit.
  UpsertResult UpsertPartial(const uint8_t* partial, uint64_t hash);

  // --- batch entry points (prefetched probes, fused update kernels) ---

  /// Upserts batch records [from, batch.size()) in order, stopping at
  /// the first record that would need a new slot while the table is at
  /// max_entries. Returns the number of records consumed; the stopping
  /// record (index `from` + return value) is left entirely unprocessed,
  /// so adaptive algorithms can switch strategy at the precise tuple
  /// where the table filled — bit-identical to the tuple-at-a-time loop.
  /// Not available in radix mode (staging would blur the stop point).
  int UpsertProjectedBatch(const TupleBatch& batch, int from);

  /// Upserts every batch record in [from, batch.size()). Records hitting
  /// a full table (UpsertResult::kFull) are appended to `overflow` (as
  /// batch indices, in order) instead of stopping the batch; existing
  /// groups still update in place. Used by the spill and Graefe
  /// forwarding paths, which handle misses record by record. In radix
  /// mode the batch is staged instead, `overflow` stays untouched, and
  /// refused records surface later through DrainRadixOverflow().
  void UpsertProjectedBatchOverflow(const TupleBatch& batch, int from,
                                    std::vector<int>& overflow);

  /// Partial-record form of UpsertProjectedBatch: the batch views
  /// *partial* records (key + state, e.g. a received kPartialPage run)
  /// and hits/inserts *merge* states instead of folding raw values,
  /// through a fused kernel when the spec's FusedMergeKind allows.
  /// Behaviorally identical to calling UpsertPartial per record.
  int UpsertPartialBatch(const TupleBatch& batch, int from);

  /// Overflow form of UpsertPartialBatch (see
  /// UpsertProjectedBatchOverflow).
  void UpsertPartialBatchOverflow(const TupleBatch& batch, int from,
                                  std::vector<int>& overflow);

  /// Pure lookup: state block of `key`, or nullptr. Not available in
  /// radix mode.
  const uint8_t* Find(const uint8_t* key, uint64_t hash) const;

  // --- radix pre-partitioning (cache-sized local aggregation) ---

  /// Switches the batch-overflow entry points to radix staging with
  /// `partitions` (a power of two >= 2; silently capped at the bucket
  /// count) partition regions. Must be called on an empty table, before
  /// any records; the mode persists across Clear().
  void EnableRadixPartitioning(int partitions);

  bool radix_partitioning() const { return radix_enabled_; }
  int radix_partitions() const { return radix_partitions_; }

  /// Bytes currently parked in radix staging buffers (0 after
  /// FlushRadixStaging).
  int64_t radix_staged_bytes() const { return radix_staged_bytes_; }

  /// Drains every staged record into the table. Must run before ForEach
  /// or size() reflect all added records; refused records accumulate for
  /// DrainRadixOverflow().
  void FlushRadixStaging();

  /// Hands every record refused by the full table (in refusal order) to
  /// `fn(is_partial, hash, record)` and clears the pending buffer. Stops
  /// and returns the first non-OK status, dropping the remainder.
  template <typename Fn>
  Status DrainRadixOverflow(const Fn& fn) {
    const int64_t entry = radix_entry_width_;
    Status status = Status::OK();
    for (int64_t off = 0;
         status.ok() && off < static_cast<int64_t>(radix_overflow_.size());
         off += entry) {
      const uint8_t* e = radix_overflow_.data() + off;
      uint64_t hash;
      uint64_t seq_tag;
      std::memcpy(&hash, e, 8);
      std::memcpy(&seq_tag, e + 8, 8);
      status = fn((seq_tag >> 63) != 0, hash, e + kRadixEntryHeader);
    }
    radix_overflow_.clear();
    return status;
  }

  /// Calls `fn(key_ptr, state_ptr)` for every entry: in slot order
  /// normally, in first-occurrence (= scalar insertion) order in radix
  /// mode. Radix staging must be flushed first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (!radix_enabled_) {
      for (int64_t i = 0; i < size_; ++i) {
        const uint8_t* slot = arena_.data() + i * slot_width_;
        fn(slot, slot + key_width_);
      }
      return;
    }
    const std::vector<int64_t> order = RadixEmitOrder();
    for (int64_t i : order) {
      const uint8_t* slot = arena_.data() + i * slot_width_;
      fn(slot, slot + key_width_);
    }
  }

  /// Empties the table, keeping capacity (and the radix mode). Stats are
  /// cumulative across clears.
  void Clear();

  const HashTableStats& stats() const { return stats_; }

 private:
  /// [hash:8][seq | is_partial << 63 : 8] prefix of every *overflow*
  /// entry (DrainRadixOverflow hands the stored hash to its callback, so
  /// overflow keeps it). Staged entries carry only the 8-byte seq/tag
  /// word — their hash is recomputed vectorized at drain time, which is
  /// cheaper than writing and re-reading 8 bytes per record through the
  /// staging round trip.
  static constexpr int64_t kRadixEntryHeader = 16;

  /// [seq | is_partial << 63 : 8] prefix of every *staged* entry; the
  /// record follows, padded to 8 bytes. Projected and partial records
  /// use their own exact strides (radix_stride_proj_ / radix_stride_part_)
  /// instead of both paying the wider of the two layouts.
  static constexpr int64_t kRadixStageHeader = 8;

  /// Folds one batch's outcome into stats_ at batch granularity.
  void NoteBatch(int consumed, int64_t size_before, int64_t overflowed,
                 bool fused) {
    stats_.batch_tuples += consumed;
    stats_.probes += consumed;
    const int64_t inserted = size_ - size_before;
    stats_.inserts += inserted;
    stats_.hits += consumed - inserted - overflowed;
    if (fused) stats_.fused_tuples += consumed;
  }

  int64_t Probe(const uint8_t* key, uint64_t hash, bool* found) const;

  /// Grows the arena (doubling, capped at max_entries) until it holds at
  /// least `slots` slots, so inserts never resize mid-batch.
  void EnsureSlotCapacity(int64_t slots);

  /// The shared probe/insert skeleton of every batch upsert, over raw
  /// arrays so staged radix runs reuse it without re-copying: records
  /// start at `recs` with `stride` bytes between them, record i's hash
  /// sits at `hash_base + i * hash_stride`. Two-stage prefetch
  /// pipeline, linear probing, stop-at-full or overflow collection.
  /// `update(state, rec)` folds one record into its slot's (initialized)
  /// state — a fused raw-update, a fused partial-merge, or the
  /// interpreted fallback; `fused` only feeds the stats. Works for
  /// projected and partial records alike because both carry the group
  /// key as their prefix. `HashStrideCT` folds a compile-time hash
  /// stride into the hot loop's address math (0 = use the runtime
  /// `hash_stride`).
  template <bool Key8, bool StopAtFull, int HashStrideCT, typename UpdateFn>
  int UpsertBatchImpl(const uint8_t* recs, int stride,
                      const uint8_t* hash_base, int hash_stride, int from,
                      int n, std::vector<int>* overflow, bool fused,
                      const UpdateFn& update);

  template <bool StopAtFull, int HashStrideCT>
  int DispatchUpsertBatch(const uint8_t* recs, int stride,
                          const uint8_t* hash_base, int hash_stride,
                          int from, int n, std::vector<int>* overflow);

  template <bool StopAtFull, int HashStrideCT>
  int DispatchMergeBatch(const uint8_t* recs, int stride,
                         const uint8_t* hash_base, int hash_stride,
                         int from, int n, std::vector<int>* overflow);

  /// Scatters batch records [from, size) into the per-partition staging
  /// buffers, draining any partition that crosses the soft cap.
  void StageBatch(const TupleBatch& batch, int from, bool partial);

  /// Upserts one partition's staged entries (in staged order, split into
  /// same-tag runs), records first-occurrence sequences for the new
  /// slots, and moves refused entries to the pending-overflow buffer.
  void DrainPartition(int pid);

  /// Slot indices sorted by first-occurrence sequence — the emit
  /// permutation that restores scalar insertion order. CHECKs that
  /// staging is flushed.
  std::vector<int64_t> RadixEmitOrder() const;

  const AggregationSpec* spec_;
  int64_t max_entries_;
  int key_width_;
  int state_width_;
  int slot_width_;
  // arena_ is pre-sized to `capacity_slots_` slots (of which the first
  // `size_` are live); buckets_ maps hash positions to slot indices
  // (-1 = empty).
  std::vector<uint8_t> arena_;
  int64_t capacity_slots_ = 0;
  std::vector<int64_t> buckets_;
  uint64_t bucket_mask_ = 0;
  int64_t size_ = 0;
  HashTableStats stats_;

  // --- radix mode state ---
  bool radix_enabled_ = false;
  int radix_partitions_ = 0;
  /// Bucket position >> radix_shift_ = owning partition, so partition p
  /// owns the contiguous bucket range [p << shift, (p + 1) << shift).
  int radix_shift_ = 0;
  /// Overflow entries only: kRadixEntryHeader + the wider of the two
  /// record layouts, padded to 8 bytes.
  int64_t radix_entry_width_ = 0;
  /// Staged-entry strides: kRadixStageHeader + the record, padded to 8.
  int64_t radix_stride_proj_ = 0;
  int64_t radix_stride_part_ = 0;
  /// Per-partition staging buffers: allocated lazily (first staged
  /// record) at the full soft-cap capacity and never resized — growing
  /// vectors would re-copy and value-initialize the whole buffer on
  /// every doubling, which costs more memory traffic than the staged
  /// data itself. The live prefix of radix_stage_[p] is
  /// radix_stage_used_[p] bytes.
  std::vector<std::unique_ptr<uint8_t[]>> radix_stage_;
  std::vector<size_t> radix_stage_used_;
  size_t radix_stage_cap_ = 0;
  /// Drain-time hash recomputation scratch (one cache-resident chunk).
  std::vector<uint64_t> drain_hash_scratch_;
  int64_t radix_staged_bytes_ = 0;
  /// Global arrival counter feeding the per-entry sequence numbers.
  uint64_t radix_seq_ = 0;
  /// Per live slot: arrival sequence of the group's first occurrence.
  std::vector<uint64_t> slot_seq_;
  /// Entries refused by the full table, pending DrainRadixOverflow.
  std::vector<uint8_t> radix_overflow_;
  std::vector<int> radix_ovf_scratch_;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_AGG_HASH_TABLE_H_
