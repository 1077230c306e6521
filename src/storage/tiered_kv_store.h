// TieredKVStore: hot-RAM / cold-disk KV cache hierarchy — the paper's
// dedicated-storage-server deployment grown a second tier.
//
// The wrapped ShardedKVStore is the hot tier. Where a bare sharded store
// ERASES a context on LRU capacity eviction (turning every future request
// for it into a full text-recompute miss), the tiered store DEMOTES it: the
// evicted bitstreams are captured via the shard's eviction sink and handed
// to a capacity-bounded persistent cold tier (a FileKVStore plus an
// in-memory LRU manifest). A lookup that misses the hot tier consults the
// manifest and PROMOTES on hit — the context moves back into hot RAM,
// pinned, and streams at KV quality; the serving layer charges a modeled
// cold-read latency instead of a re-prefill. Losing the fast tier degrades
// latency, not data.
//
//   LookupAndPin ──hot hit──────────────▶ stream from RAM      (KVTier::kHot)
//        │ miss
//        ├──cold manifest hit──promote──▶ stream, cold-priced  (KVTier::kCold)
//        │ miss
//        └───────────────────────────────▶ text + re-prefill    (KVTier::kMiss)
//
//   hot LRU eviction ──demote──▶ cold tier
//   cold LRU eviction ─────────▶ gone for real
//
// Concurrency & determinism:
//   * The manifest entry for a demotion is registered synchronously (under
//     the evicting shard's lock via the sink, then the cold mutex), so a
//     lookup racing the eviction still sees the context as cold.
//   * The sink never touches the disk: it queues the persist (and any cold
//     erase) with the bytes buffered in the manifest entry. Every public
//     method that can evict, promote or erase performs the queued disk work
//     in FIFO order before it returns, on the calling thread, outside every
//     shard lock. Disk work is thus part of the call that caused it, and
//     which contexts reach disk depends only on the call sequence, never on
//     disk or scheduler speed. Flush() performs anything a throwing call
//     left queued.
//   * Context content is immutable per id in this system, so the rare
//     hot/cold duplication windows (e.g. a write-back racing a demotion of
//     the same context) waste budget but never serve stale data.
//
// Restart: the constructor adopts contexts already present under cold_root
// that carry the per-context completion sentinel written after the last
// chunk (directories without it are mid-persist debris from a crash and are
// reclaimed). A small on-disk manifest (rewritten once per call that changed
// persisted state) maps each directory back to its original context id and
// LRU stamp, so '%'-mangled ids and recency survive process churn; a row is
// trusted only for the directory its id sanitizes to. Sentinel-complete
// directories that are neither in the manifest nor round-trippable through
// SanitizeContextId are unreachable forever and are reclaimed.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "storage/cache_tier.h"
#include "storage/kv_store.h"
#include "storage/sharded_kv_store.h"

namespace cachegen {

// KVTier (which tier satisfied a lookup) lives in storage/cache_tier.h.

class TieredKVStore final : public KVStore, public CacheTier {
 public:
  struct Options {
    ShardedKVStore::Options hot;
    // Directory backing the cold tier (required).
    std::filesystem::path cold_root;
    // Cold-tier byte budget; 0 = unbounded. Like the hot tier, the cold
    // tier never evicts its last context.
    uint64_t cold_capacity_bytes = 0;
  };

  struct Stats {
    // Tiered-level lookup outcome counters (authoritative: the hot tier's
    // own hit/miss counters additionally see promotion-internal traffic).
    uint64_t hot_hits = 0;
    uint64_t cold_hits = 0;
    uint64_t misses = 0;
    uint64_t demotions = 0;
    uint64_t demoted_bytes = 0;
    uint64_t promotions = 0;
    uint64_t promoted_bytes = 0;
    uint64_t cold_evictions = 0;
    uint64_t cold_evicted_bytes = 0;
    uint64_t hot_bytes = 0;   // current
    // Current manifest accounting, including entries whose disk write
    // failed and which stay memory-resident.
    uint64_t cold_bytes = 0;
    ShardedKVStore::Stats hot_tier;  // raw hot-tier counters
  };

  explicit TieredKVStore(Options opts,
                         ShardedKVStore::BackendFactory hot_factory = nullptr);
  ~TieredKVStore() override;

  // --- KVStore interface ---------------------------------------------------
  // Writes land in the hot tier; reads fall through to the cold tier
  // (read-only, no promotion) so Engine::GetKV works wherever the bytes are.
  // Reads racing an in-flight promotion of the same context wait for it
  // rather than reporting a spurious absence.
  void Put(const ChunkKey& key, std::span<const uint8_t> bytes) override;
  void PutBatch(const std::string& context_id,
                std::span<const ChunkView> chunks) override;
  std::optional<std::vector<uint8_t>> Get(const ChunkKey& key) const override;
  bool ContainsContext(const std::string& context_id) const override;
  // Removes the context from both tiers (the hot tier still refuses while
  // pinned; the cold copy goes regardless).
  void EraseContext(const std::string& context_id) override;
  uint64_t TotalBytes() const override;  // hot + cold
  uint64_t ContextBytes(const std::string& context_id) const override;

  // --- cluster-facing cache operations -------------------------------------
  // Hot tier first (counts + pins exactly like ShardedKVStore::LookupAndPin);
  // on hot miss, a cold-manifest hit promotes the context into the hot tier
  // — pinned, LRU-stamped at t_s, evicting (demoting) colder hot contexts as
  // needed — and reports kCold. The caller owns one Unpin either way.
  KVTier LookupAndPin(const std::string& context_id, double t_s);

  // CacheTier view of the same operation: all-or-nothing coverage, kHot or
  // kCold on hit. `spec` is only used to report token totals.
  TierLookup LookupAndPin(const std::string& context_id, const ContextSpec& spec,
                          double t_s) override;

  // Pin/Unpin/Touch operate on the hot tier (a promoted context is hot).
  void Pin(const std::string& context_id) override;
  void Unpin(const std::string& context_id) override;
  void Touch(const std::string& context_id, double t_s) override;

  // Perform disk work a throwing call left queued. Every other call already
  // leaves the disk settled when it returns, so this is usually a no-op.
  void Flush() override;

  KVStore& kv() override { return *this; }
  const ShardedKVStore* hot_tier() const override { return hot_.get(); }
  const TieredKVStore* tiered() const override { return this; }

  Stats stats() const;
  ShardedKVStore& hot() { return *hot_; }
  const ShardedKVStore& hot() const { return *hot_; }
  uint64_t cold_capacity_bytes() const { return opts_.cold_capacity_bytes; }
  const std::filesystem::path& cold_root() const { return opts_.cold_root; }

 private:
  // Every ColdEntry field is protected by the owning store's cold_mu_
  // (guarded_by cannot name an outer object's member).
  struct ColdEntry {
    // (chunk_index, level_id) -> serialized size; fixed at demotion time.
    std::map<std::pair<uint32_t, int32_t>, uint32_t> chunk_bytes;
    // Bitstreams until persisted; reads and promotions are served from here
    // until the queued persist runs, and for good if the disk refused it.
    std::vector<std::pair<ChunkKey, std::vector<uint8_t>>> buffer;
    uint64_t bytes = 0;
    double last_touch_s = 0.0;
    bool persisted = false;  // bytes live on disk; buffer released
  };
  // Queued disk work for one id: persist its buffered entry, or erase its
  // files.
  struct DiskOp {
    std::string context_id;
    bool erase = false;
  };

  void AdoptPersistedColdContexts();
  void OnHotEviction(ShardedKVStore::EvictedContext&& victim);
  // Caller holds cold_mu_. Evicted ids get their on-disk bytes erased.
  void EnforceColdCapacityLocked(const std::string* keep) CG_REQUIRES(cold_mu_);
  void QueueErase(std::string context_id) CG_REQUIRES(cold_mu_);
  // Perform the queued disk work in FIFO order, then rewrite the on-disk
  // manifest if persisted state changed. Call with no shard lock held: the
  // eviction sink takes cold_mu_ under one.
  void RunDiskOps();
  // Writes the chunks, then the completion sentinel. False when the disk
  // refused: the entry then stays memory-resident.
  bool PersistLocked(const std::string& context_id, ColdEntry& entry)
      CG_REQUIRES(cold_mu_);
  // Rewrite the on-disk manifest (temp + rename) from the persisted entries.
  void SyncManifestLocked() CG_REQUIRES(cold_mu_);

  Options opts_;
  std::unique_ptr<ShardedKVStore> hot_;
  std::unique_ptr<FileKVStore> cold_backend_;

  // Disk I/O runs under cold_mu_ too: it keeps queued persists and erases of
  // one id in order across callers, and the one serving thread never waits
  // on it.
  mutable Mutex cold_mu_;
  std::unordered_map<std::string, ColdEntry> cold_ CG_GUARDED_BY(cold_mu_);
  uint64_t cold_bytes_ CG_GUARDED_BY(cold_mu_) = 0;
  std::deque<DiskOp> disk_ops_ CG_GUARDED_BY(cold_mu_);
  // Contexts mid-promotion: a racing lookup for the same id waits for the
  // winner instead of reporting a spurious miss (the entry leaves the
  // manifest before the bytes reach the hot tier).
  std::unordered_set<std::string> promoting_ CG_GUARDED_BY(cold_mu_);
  mutable CondVar promote_cv_;  // const readers wait too

  std::atomic<uint64_t> hot_hits_{0};
  std::atomic<uint64_t> cold_hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> demotions_{0};
  std::atomic<uint64_t> demoted_bytes_{0};
  std::atomic<uint64_t> promotions_{0};
  std::atomic<uint64_t> promoted_bytes_{0};
  std::atomic<uint64_t> cold_evictions_{0};
  std::atomic<uint64_t> cold_evicted_bytes_{0};
};

}  // namespace cachegen
