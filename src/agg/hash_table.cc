#include "agg/hash_table.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "common/simd.h"

namespace adaptagg {
namespace {

int64_t NextPow2(int64_t v) {
  int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Slots allocated up front; tables bounded below this never resize at
/// all, larger ones grow by doubling from here.
constexpr int64_t kInitialSlots = int64_t{1} << 16;

/// A radix partition drains once its staging buffer crosses this many
/// bytes (and again at FlushRadixStaging). Large on purpose: each drain
/// walks the partition's bucket region, so more records per drain means
/// more upserts amortizing the same cache lines.
constexpr int64_t kRadixStageSoftCapBytes = int64_t{4} << 20;

inline bool KeysEqual(const uint8_t* a, const uint8_t* b, int width,
                      bool key8) {
  if (key8) {
    uint64_t x;
    uint64_t y;
    std::memcpy(&x, a, 8);
    std::memcpy(&y, b, 8);
    return x == y;
  }
  return std::memcmp(a, b, static_cast<size_t>(width)) == 0;
}

// Per-record update functors plugged into UpsertBatchImpl. Each folds
// one record into its slot's state; the fused ones hoist the per-op
// dispatch of UpdateFromProjected/MergeState out of the probe loop and
// must stay behaviorally identical to it (InitState has already
// zeroed/initialized the state on insert). Their arithmetic runs through
// the SIMD layer (common/simd.h), bit-identical to the scalar loops.

/// Interpreted raw-value fallback.
struct GenericUpdate {
  const AggregationSpec* spec;
  void operator()(uint8_t* state, const uint8_t* rec) const {
    spec->UpdateFromProjected(state, rec);
  }
};

/// COUNT(*), SUM(int64): state [count:int64][sum:int64]; the single SUM
/// input is the 8-byte value slot right after the key.
struct CountSumInt64Update {
  int key_width;
  void operator()(uint8_t* state, const uint8_t* rec) const {
    int64_t v;
    std::memcpy(&v, rec + key_width, 8);
    simd::AddInt64PairInPlace(state, 1, v);
  }
};

/// Duplicate elimination: reaching the slot is the whole update.
struct DistinctUpdate {
  void operator()(uint8_t*, const uint8_t*) const {}
};

/// Interpreted partial-merge fallback: `rec` is a partial record, its
/// state block sits right after the key.
struct GenericMerge {
  const AggregationSpec* spec;
  int key_width;
  void operator()(uint8_t* state, const uint8_t* rec) const {
    spec->MergeState(state, rec + key_width);
  }
};

/// All states are int64 words merged by addition (COUNT / SUM(int64) /
/// AVG(int64), in any mix): one flat vector add over the state block.
struct AddInt64Merge {
  int key_width;
  int words;  // state_width / 8
  void operator()(uint8_t* state, const uint8_t* rec) const {
    simd::AddInt64Words(state, rec + key_width, words);
  }
};

/// All ops are MIN/MAX(int64): per-op [extremum:int64][seen:int64]
/// blocks. Mirrors AggregateOp::MergePartial exactly: an unseen other is
/// skipped, the extremum compare-stores, seen is set to 1. `merge` is
/// the dispatched SIMD kernel, resolved once per batch.
struct MinMaxInt64Merge {
  int key_width;
  const uint8_t* is_min;  // per-op flag, 1 = MIN
  int num_ops;
  simd::MinMaxMergeFn merge;
  void operator()(uint8_t* state, const uint8_t* rec) const {
    merge(state, rec + key_width, is_min, num_ops);
  }
};

}  // namespace

AggHashTable::AggHashTable(const AggregationSpec* spec, int64_t max_entries)
    : spec_(spec),
      max_entries_(max_entries),
      key_width_(spec->key_width()),
      state_width_(spec->state_width()),
      slot_width_(spec->key_width() + spec->state_width()) {
  ADAPTAGG_CHECK(max_entries_ > 0) << "hash table needs capacity";
  // Bucket array sized for <= ~70% load at max occupancy.
  int64_t buckets = NextPow2(max_entries_ + max_entries_ / 2 + 1);
  buckets_.assign(static_cast<size_t>(buckets), -1);
  bucket_mask_ = static_cast<uint64_t>(buckets - 1);
  // Pre-size the slot arena so the insert path never resizes per record
  // (EnsureSlotCapacity doubles beyond this for very large bounds).
  capacity_slots_ = std::min<int64_t>(max_entries_, kInitialSlots);
  arena_.resize(static_cast<size_t>(capacity_slots_ * slot_width_));
}

int64_t AggHashTable::MemoryBytes() const {
  int64_t bytes =
      capacity_slots_ * slot_width_ +
      static_cast<int64_t>(buckets_.size() * sizeof(int64_t));
  if (radix_enabled_) {
    bytes += static_cast<int64_t>(slot_seq_.capacity() * sizeof(uint64_t));
    bytes += static_cast<int64_t>(radix_overflow_.capacity());
    bytes +=
        static_cast<int64_t>(drain_hash_scratch_.capacity() * sizeof(uint64_t));
    for (const std::unique_ptr<uint8_t[]>& buf : radix_stage_) {
      if (buf != nullptr) bytes += static_cast<int64_t>(radix_stage_cap_);
    }
  }
  return bytes;
}

void AggHashTable::EnsureSlotCapacity(int64_t slots) {
  if (slots <= capacity_slots_) return;
  int64_t grown = capacity_slots_;
  while (grown < slots) grown *= 2;
  capacity_slots_ = std::min<int64_t>(grown, max_entries_);
  arena_.resize(static_cast<size_t>(capacity_slots_ * slot_width_));
  if (radix_enabled_) {
    slot_seq_.resize(static_cast<size_t>(capacity_slots_));
  }
  ++stats_.resizes;
}

int64_t AggHashTable::Probe(const uint8_t* key, uint64_t hash,
                            bool* found) const {
  uint64_t pos = hash & bucket_mask_;
  while (true) {
    int64_t slot = buckets_[pos];
    if (slot < 0) {
      *found = false;
      return static_cast<int64_t>(pos);
    }
    const uint8_t* slot_key = arena_.data() + slot * slot_width_;
    if (std::memcmp(slot_key, key, static_cast<size_t>(key_width_)) == 0) {
      *found = true;
      return slot;
    }
    pos = (pos + 1) & bucket_mask_;
  }
}

AggHashTable::UpsertResult AggHashTable::FindOrInsert(const uint8_t* key,
                                                      uint64_t hash,
                                                      uint8_t** state) {
  ADAPTAGG_CHECK(!radix_enabled_)
      << "scalar upserts cannot see radix-staged records";
  bool found = false;
  int64_t pos = Probe(key, hash, &found);
  ++stats_.probes;
  if (found) {
    ++stats_.hits;
    *state = arena_.data() + pos * slot_width_ + key_width_;
    return UpsertResult::kUpdated;
  }
  if (size_ >= max_entries_) {
    *state = nullptr;
    return UpsertResult::kFull;
  }
  ++stats_.inserts;
  int64_t slot = size_++;
  EnsureSlotCapacity(size_);
  uint8_t* slot_ptr = arena_.data() + slot * slot_width_;
  std::memcpy(slot_ptr, key, static_cast<size_t>(key_width_));
  spec_->InitState(slot_ptr + key_width_);
  buckets_[static_cast<size_t>(pos)] = slot;
  *state = slot_ptr + key_width_;
  return UpsertResult::kInserted;
}

AggHashTable::UpsertResult AggHashTable::UpsertProjected(const uint8_t* proj,
                                                         uint64_t hash) {
  uint8_t* state = nullptr;
  UpsertResult r = FindOrInsert(spec_->KeyOfProjected(proj), hash, &state);
  if (r != UpsertResult::kFull) {
    spec_->UpdateFromProjected(state, proj);
  }
  return r;
}

AggHashTable::UpsertResult AggHashTable::UpsertPartial(const uint8_t* partial,
                                                       uint64_t hash) {
  uint8_t* state = nullptr;
  UpsertResult r = FindOrInsert(spec_->KeyOfPartial(partial), hash, &state);
  if (r != UpsertResult::kFull) {
    spec_->MergeState(state, spec_->StateOfPartial(partial));
  }
  return r;
}

template <bool Key8, bool StopAtFull, int HashStrideCT, typename UpdateFn>
int AggHashTable::UpsertBatchImpl(const uint8_t* recs, int stride,
                                  const uint8_t* hash_base, int hash_stride,
                                  int from, int n, std::vector<int>* overflow,
                                  bool fused, const UpdateFn& update) {
  // Make room for the worst case up front: pointers into the arena stay
  // stable for the whole batch and no insert pays a resize check.
  EnsureSlotCapacity(std::min<int64_t>(max_entries_, size_ + (n - from)));
  uint8_t* arena = arena_.data();
  const int64_t size_before = size_;
  const int64_t ovf_before =
      overflow != nullptr ? static_cast<int64_t>(overflow->size()) : 0;

  const auto hash_at = [&](int i) {
    // HashStrideCT folds the common dense-hash-array case (the batch
    // entry points) back to a constant-stride load; 0 = runtime stride
    // (the radix drains, whose hashes sit inside staged entries).
    const int hs = HashStrideCT != 0 ? HashStrideCT : hash_stride;
    uint64_t h;
    std::memcpy(&h, hash_base + static_cast<int64_t>(i) * hs, 8);
    return h;
  };

  // Streaming loop: the probe body stays inline so the compiler and the
  // out-of-order core can overlap each iteration's prefetches with the
  // previous probe's dependent loads — on tables that outgrow cache this
  // overlap is worth ~25% of the whole pass.
  for (int i = from; i < n; ++i) {
    // Two-stage software pipeline: pull the bucket-array line for probe
    // i+D, and the slot line for probe i+D/2 (whose bucket head is, by
    // then, usually resident). Pure prefetches — collisions and inserts
    // between now and then only waste the hint, never correctness.
    if (i + kPrefetchDistance < n) {
      PrefetchRead(&buckets_[hash_at(i + kPrefetchDistance) & bucket_mask_]);
    }
    if (i + kPrefetchDistance / 2 < n) {
      const int64_t ahead =
          buckets_[hash_at(i + kPrefetchDistance / 2) & bucket_mask_];
      if (ahead >= 0) PrefetchRead(arena + ahead * slot_width_);
    }

    const uint8_t* rec = recs + static_cast<int64_t>(i) * stride;
    const uint64_t hash = hash_at(i);
    uint64_t pos = hash & bucket_mask_;
    uint8_t* hit_state = nullptr;
    uint64_t insert_pos = 0;
    bool found = false;
    while (true) {
      int64_t slot = buckets_[pos];
      if (slot < 0) {
        insert_pos = pos;
        break;
      }
      uint8_t* slot_ptr = arena + slot * slot_width_;
      if (KeysEqual(slot_ptr, rec, key_width_, Key8)) {
        hit_state = slot_ptr + key_width_;
        found = true;
        break;
      }
      pos = (pos + 1) & bucket_mask_;
    }

    if (found) {
      update(hit_state, rec);
      continue;
    }
    if (size_ >= max_entries_) {
      if constexpr (StopAtFull) {
        NoteBatch(i - from, size_before, 0, fused);
        return i - from;
      } else {
        overflow->push_back(i);
        continue;
      }
    }
    int64_t slot = size_++;
    uint8_t* slot_ptr = arena + slot * slot_width_;
    std::memcpy(slot_ptr, rec, static_cast<size_t>(key_width_));
    spec_->InitState(slot_ptr + key_width_);
    buckets_[static_cast<size_t>(insert_pos)] = slot;
    update(slot_ptr + key_width_, rec);
  }
  const int64_t overflowed =
      overflow != nullptr ? static_cast<int64_t>(overflow->size()) - ovf_before
                          : 0;
  NoteBatch(n - from, size_before, overflowed, fused);
  return n - from;
}

template <bool StopAtFull, int HashStrideCT>
int AggHashTable::DispatchUpsertBatch(const uint8_t* recs, int stride,
                                      const uint8_t* hash_base,
                                      int hash_stride, int from, int n,
                                      std::vector<int>* overflow) {
  const bool key8 = key_width_ == 8;
  // Instantiates the impl over the key8 runtime split (the functor and
  // StopAtFull are compile-time already).
  auto run = [&](bool fused, const auto& update) {
    return key8 ? UpsertBatchImpl<true, StopAtFull, HashStrideCT>(
                      recs, stride, hash_base, hash_stride, from, n,
                      overflow, fused, update)
                : UpsertBatchImpl<false, StopAtFull, HashStrideCT>(
                      recs, stride, hash_base, hash_stride, from, n,
                      overflow, fused, update);
  };
  switch (spec_->fused_kernel()) {
    case FusedKernelKind::kCountSumInt64:
      return run(true, CountSumInt64Update{key_width_});
    case FusedKernelKind::kDistinct:
      return run(true, DistinctUpdate{});
    case FusedKernelKind::kGeneric:
      break;
  }
  return run(false, GenericUpdate{spec_});
}

template <bool StopAtFull, int HashStrideCT>
int AggHashTable::DispatchMergeBatch(const uint8_t* recs, int stride,
                                     const uint8_t* hash_base,
                                     int hash_stride, int from, int n,
                                     std::vector<int>* overflow) {
  const bool key8 = key_width_ == 8;
  auto run = [&](bool fused, const auto& update) {
    return key8 ? UpsertBatchImpl<true, StopAtFull, HashStrideCT>(
                      recs, stride, hash_base, hash_stride, from, n,
                      overflow, fused, update)
                : UpsertBatchImpl<false, StopAtFull, HashStrideCT>(
                      recs, stride, hash_base, hash_stride, from, n,
                      overflow, fused, update);
  };
  switch (spec_->fused_merge_kernel()) {
    case FusedMergeKind::kAddInt64:
      return run(true, AddInt64Merge{key_width_, state_width_ / 8});
    case FusedMergeKind::kMinMaxInt64:
      return run(true,
                 MinMaxInt64Merge{key_width_, spec_->merge_is_min().data(),
                                  static_cast<int>(spec_->ops().size()),
                                  simd::ResolveMinMaxMerge()});
    case FusedMergeKind::kDistinct:
      return run(true, DistinctUpdate{});
    case FusedMergeKind::kGeneric:
      break;
  }
  return run(false, GenericMerge{spec_, key_width_});
}

int AggHashTable::UpsertProjectedBatch(const TupleBatch& batch, int from) {
  ADAPTAGG_CHECK(!radix_enabled_)
      << "stop-at-full upserts cannot run in radix mode";
  return DispatchUpsertBatch<true, sizeof(uint64_t)>(
      batch.records(), batch.stride(),
      reinterpret_cast<const uint8_t*>(batch.hashes()), sizeof(uint64_t),
      from, batch.size(), nullptr);
}

void AggHashTable::UpsertProjectedBatchOverflow(const TupleBatch& batch,
                                                int from,
                                                std::vector<int>& overflow) {
  if (radix_enabled_) {
    StageBatch(batch, from, /*partial=*/false);
    return;
  }
  DispatchUpsertBatch<false, sizeof(uint64_t)>(
      batch.records(), batch.stride(),
      reinterpret_cast<const uint8_t*>(batch.hashes()), sizeof(uint64_t),
      from, batch.size(), &overflow);
}

int AggHashTable::UpsertPartialBatch(const TupleBatch& batch, int from) {
  ADAPTAGG_CHECK(!radix_enabled_)
      << "stop-at-full upserts cannot run in radix mode";
  return DispatchMergeBatch<true, sizeof(uint64_t)>(
      batch.records(), batch.stride(),
      reinterpret_cast<const uint8_t*>(batch.hashes()), sizeof(uint64_t),
      from, batch.size(), nullptr);
}

void AggHashTable::UpsertPartialBatchOverflow(const TupleBatch& batch,
                                              int from,
                                              std::vector<int>& overflow) {
  if (radix_enabled_) {
    StageBatch(batch, from, /*partial=*/true);
    return;
  }
  DispatchMergeBatch<false, sizeof(uint64_t)>(
      batch.records(), batch.stride(),
      reinterpret_cast<const uint8_t*>(batch.hashes()), sizeof(uint64_t),
      from, batch.size(), &overflow);
}

const uint8_t* AggHashTable::Find(const uint8_t* key, uint64_t hash) const {
  ADAPTAGG_CHECK(!radix_enabled_)
      << "Find cannot see radix-staged records";
  bool found = false;
  int64_t pos = Probe(key, hash, &found);
  if (!found) return nullptr;
  return arena_.data() + pos * slot_width_ + key_width_;
}

void AggHashTable::EnableRadixPartitioning(int partitions) {
  ADAPTAGG_CHECK(size_ == 0 && radix_staged_bytes_ == 0 &&
                 radix_overflow_.empty())
      << "radix partitioning must be enabled on an empty table";
  ADAPTAGG_CHECK(partitions >= 2 &&
                 (partitions & (partitions - 1)) == 0)
      << "radix partition count must be a power of two >= 2";
  const int64_t buckets = static_cast<int64_t>(buckets_.size());
  const int64_t p = std::min<int64_t>(partitions, buckets);
  radix_enabled_ = true;
  radix_partitions_ = static_cast<int>(p);
  int shift = 0;
  while ((int64_t{1} << shift) * p < buckets) ++shift;
  radix_shift_ = shift;
  const int rec_width =
      std::max(spec_->projected_width(), spec_->partial_width());
  radix_entry_width_ = kRadixEntryHeader + ((rec_width + 7) / 8) * 8;
  radix_stride_proj_ =
      kRadixStageHeader + ((spec_->projected_width() + 7) / 8) * 8;
  radix_stride_part_ =
      kRadixStageHeader + ((spec_->partial_width() + 7) / 8) * 8;
  radix_stage_cap_ = static_cast<size_t>(kRadixStageSoftCapBytes);
  ADAPTAGG_CHECK(std::max(radix_stride_proj_, radix_stride_part_) <=
                 static_cast<int64_t>(radix_stage_cap_))
      << "staged entry wider than the staging soft cap";
  radix_stage_.clear();
  radix_stage_.resize(static_cast<size_t>(p));
  radix_stage_used_.assign(static_cast<size_t>(p), 0);
  slot_seq_.resize(static_cast<size_t>(capacity_slots_));
  radix_seq_ = 0;
}

void AggHashTable::StageBatch(const TupleBatch& batch, int from,
                              bool partial) {
  const int n = batch.size();
  const uint8_t* recs = batch.records();
  const int stride = batch.stride();
  const uint64_t* hashes = batch.hashes();
  const size_t entry = static_cast<size_t>(partial ? radix_stride_part_
                                                   : radix_stride_proj_);
  const size_t rec_width = static_cast<size_t>(
      partial ? spec_->partial_width() : spec_->projected_width());
  const uint64_t tag_bit = partial ? uint64_t{1} << 63 : 0;
  // The record copy is the hot store of the whole staging pass; fold the
  // dominant layouts to constant-size copies.
  const auto stage_all = [&](const auto& copy_rec) {
    for (int i = from; i < n; ++i) {
      const uint64_t hash = hashes[i];
      const int pid =
          static_cast<int>((hash & bucket_mask_) >> radix_shift_);
      std::unique_ptr<uint8_t[]>& buf =
          radix_stage_[static_cast<size_t>(pid)];
      if (buf == nullptr) buf.reset(new uint8_t[radix_stage_cap_]);
      size_t& used = radix_stage_used_[static_cast<size_t>(pid)];
      if (used + entry > radix_stage_cap_) DrainPartition(pid);
      uint8_t* e = buf.get() + used;
      used += entry;
      const uint64_t seq_tag = radix_seq_++ | tag_bit;
      std::memcpy(e, &seq_tag, 8);
      copy_rec(e + kRadixStageHeader,
               recs + static_cast<int64_t>(i) * stride);
      radix_staged_bytes_ += static_cast<int64_t>(entry);
    }
  };
  if (rec_width == 16) {
    stage_all(
        [](uint8_t* dst, const uint8_t* rec) { std::memcpy(dst, rec, 16); });
  } else if (rec_width == 24) {
    stage_all(
        [](uint8_t* dst, const uint8_t* rec) { std::memcpy(dst, rec, 24); });
  } else {
    stage_all([rec_width](uint8_t* dst, const uint8_t* rec) {
      std::memcpy(dst, rec, rec_width);
    });
  }
}

void AggHashTable::DrainPartition(int pid) {
  uint8_t* buf = radix_stage_[static_cast<size_t>(pid)].get();
  const size_t used = radix_stage_used_[static_cast<size_t>(pid)];
  if (used == 0) return;
  // Same-tag runs drain as batches, in chunks small enough that the
  // recomputed-hash scratch stays cache-resident next to the partition's
  // bucket region.
  constexpr int kChunk = 2048;
  drain_hash_scratch_.resize(kChunk);
  size_t off = 0;
  while (off < used) {
    uint64_t first_tag;
    std::memcpy(&first_tag, buf + off, 8);
    const bool partial = (first_tag >> 63) != 0;
    const size_t stride = static_cast<size_t>(
        partial ? radix_stride_part_ : radix_stride_proj_);
    const size_t rec_width = static_cast<size_t>(
        partial ? spec_->partial_width() : spec_->projected_width());
    size_t end = off + stride;
    while (end < used) {
      uint64_t tag;
      std::memcpy(&tag, buf + end, 8);
      if (((tag >> 63) != 0) != partial) break;
      end += stride;
    }
    const int64_t run = static_cast<int64_t>((end - off) / stride);
    for (int64_t c = 0; c < run; c += kChunk) {
      const int cn = static_cast<int>(std::min<int64_t>(kChunk, run - c));
      const uint8_t* base = buf + off + static_cast<size_t>(c) * stride;
      const uint8_t* chunk_recs = base + kRadixStageHeader;
      // Recompute the key hashes (vectorized, bit-identical to the
      // staged batch's ComputeHashes) instead of having stored them:
      // 8 fewer bytes per record through the staging round trip.
      spec_->HashKeys(chunk_recs, static_cast<int>(stride), cn,
                      drain_hash_scratch_.data());
      const uint8_t* hash_base =
          reinterpret_cast<const uint8_t*>(drain_hash_scratch_.data());
      const int64_t s0 = size_;
      radix_ovf_scratch_.clear();
      if (partial) {
        DispatchMergeBatch<false, sizeof(uint64_t)>(
            chunk_recs, static_cast<int>(stride), hash_base,
            sizeof(uint64_t), 0, cn, &radix_ovf_scratch_);
      } else {
        DispatchUpsertBatch<false, sizeof(uint64_t)>(
            chunk_recs, static_cast<int>(stride), hash_base,
            sizeof(uint64_t), 0, cn, &radix_ovf_scratch_);
      }
      // Recover the arrival sequence of every slot this chunk created.
      // Slots [s0, size_) were appended in order of each new key's first
      // occurrence within the chunk, so one forward cursor walk matches
      // each new slot to exactly the entry that created it: an entry
      // whose key equals the cursor slot's key must be that key's first
      // occurrence (any earlier occurrence would have advanced the
      // cursor already).
      int64_t next_new = s0;
      for (int k = 0; k < cn && next_new < size_; ++k) {
        const uint8_t* e = base + static_cast<size_t>(k) * stride;
        if (std::memcmp(arena_.data() + next_new * slot_width_,
                        e + kRadixStageHeader,
                        static_cast<size_t>(key_width_)) == 0) {
          uint64_t seq_tag;
          std::memcpy(&seq_tag, e, 8);
          slot_seq_[static_cast<size_t>(next_new)] =
              seq_tag & ~(uint64_t{1} << 63);
          ++next_new;
        }
      }
      // Refused entries spill in the wider overflow format, which keeps
      // the hash (DrainRadixOverflow hands it to the callback).
      for (int k : radix_ovf_scratch_) {
        const uint8_t* e = base + static_cast<size_t>(k) * stride;
        const size_t pos = radix_overflow_.size();
        radix_overflow_.resize(pos +
                               static_cast<size_t>(radix_entry_width_));
        std::memcpy(radix_overflow_.data() + pos, &drain_hash_scratch_[k],
                    8);
        std::memcpy(radix_overflow_.data() + pos + 8, e, 8);
        std::memcpy(radix_overflow_.data() + pos + kRadixEntryHeader,
                    e + kRadixStageHeader, rec_width);
      }
    }
    off = end;
  }
  radix_staged_bytes_ -= static_cast<int64_t>(used);
  radix_stage_used_[static_cast<size_t>(pid)] = 0;
}

void AggHashTable::FlushRadixStaging() {
  ADAPTAGG_CHECK(radix_enabled_)
      << "FlushRadixStaging without radix partitioning";
  for (int pid = 0; pid < radix_partitions_; ++pid) {
    DrainPartition(pid);
  }
}

std::vector<int64_t> AggHashTable::RadixEmitOrder() const {
  ADAPTAGG_CHECK(radix_staged_bytes_ == 0)
      << "ForEach on a radix table with staged records; call "
         "FlushRadixStaging first";
  std::vector<int64_t> order(static_cast<size_t>(size_));
  std::iota(order.begin(), order.end(), int64_t{0});
  std::sort(order.begin(), order.end(), [this](int64_t a, int64_t b) {
    return slot_seq_[static_cast<size_t>(a)] <
           slot_seq_[static_cast<size_t>(b)];
  });
  return order;
}

void AggHashTable::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), -1);
  size_ = 0;
  if (radix_enabled_) {
    std::fill(radix_stage_used_.begin(), radix_stage_used_.end(),
              size_t{0});
    radix_staged_bytes_ = 0;
    radix_overflow_.clear();
    radix_seq_ = 0;
  }
}

}  // namespace adaptagg
