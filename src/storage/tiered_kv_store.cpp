#include "storage/tiered_kv_store.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cachegen {

namespace fs = std::filesystem;

namespace {
// Written into a context's cold directory after its last chunk committed.
// Each chunk file is atomic on its own (temp + rename), but only this marker
// makes the CONTEXT complete: restart adoption refuses directories without
// it, so a crash mid-persist can never resurrect a partial chunk set. Not a
// ".cgkv" file, so byte accounting and chunk parsing both ignore it.
constexpr const char kColdCompleteSentinel[] = "COMPLETE";

// Cold-tier manifest: one file at the root mapping each persisted context's
// DIRECTORY name back to its original id and LRU stamp, so restart adoption
// recovers '%'-mangled ids (which hash one way) and recency. Rewritten
// whole (temp + rename) once per call that changed persisted state (per
// context would make an N-demotion burst O(N^2) in manifest I/O) — a crash
// loses at most the latest rewrite, and adoption degrades to the sentinel +
// round-trip rules for unlisted directories.
constexpr const char kColdManifestName[] = "MANIFEST";
constexpr const char kColdManifestHeader[] = "cachegen-cold-manifest-v1";

std::string HexEncode(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * s.size());
  for (unsigned char c : s) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  return out;
}

std::optional<std::string> HexDecode(const std::string& s) {
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  if (s.size() % 2 != 0) return std::nullopt;
  std::string out;
  out.reserve(s.size() / 2);
  for (size_t i = 0; i < s.size(); i += 2) {
    const int hi = nibble(s[i]);
    const int lo = nibble(s[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

struct ManifestRow {
  std::string original_id;
  double last_touch_s = 0.0;
};

// Exact double round-trip: the LRU stamp is serialized as its bit pattern.
uint64_t DoubleBits(double d) {
  uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(d));
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double BitsDouble(uint64_t u) {
  double d = 0.0;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

std::map<std::string, ManifestRow> ReadColdManifest(
    const std::filesystem::path& root) {
  std::map<std::string, ManifestRow> rows;
  std::ifstream in(root / kColdManifestName);
  if (!in) return rows;
  std::string header;
  if (!std::getline(in, header) || header != kColdManifestHeader) return rows;
  std::string dir, hex_id, touch_hex;
  while (in >> dir >> hex_id >> touch_hex) {
    const auto id = HexDecode(hex_id);
    if (!id) continue;  // corrupt row: skip, adoption falls back to rules
    uint64_t bits = 0;
    try {
      bits = std::stoull(touch_hex, nullptr, 16);
    } catch (...) {
      continue;
    }
    rows[dir] = ManifestRow{*id, BitsDouble(bits)};
  }
  return rows;
}

}  // namespace

TieredKVStore::TieredKVStore(Options opts,
                             ShardedKVStore::BackendFactory hot_factory)
    : opts_(std::move(opts)) {
  if (opts_.cold_root.empty()) {
    throw std::invalid_argument("TieredKVStore: cold_root is required");
  }
  hot_ = std::make_unique<ShardedKVStore>(opts_.hot, std::move(hot_factory));
  cold_backend_ = std::make_unique<FileKVStore>(opts_.cold_root);
  AdoptPersistedColdContexts();
  RunDiskOps();
  // Installed last: no eviction can fire before the store is fully built.
  hot_->set_eviction_sink([this](ShardedKVStore::EvictedContext&& victim) {
    OnHotEviction(std::move(victim));
  });
}

TieredKVStore::~TieredKVStore() { Flush(); }

void TieredKVStore::AdoptPersistedColdContexts() {
  if (!fs::exists(opts_.cold_root)) return;
  const std::map<std::string, ManifestRow> manifest =
      ReadColdManifest(opts_.cold_root);
  MutexLock lock(cold_mu_);
  for (const auto& dir : fs::directory_iterator(opts_.cold_root)) {
    if (!dir.is_directory()) continue;
    // No completion sentinel: the process died between chunk commits (or
    // before any). The subset must never be served; reclaim it now — the
    // constructor runs single-threaded, so inline I/O is fine.
    if (!fs::exists(dir.path() / kColdCompleteSentinel)) {
      std::error_code ec;
      fs::remove_all(dir.path(), ec);
      continue;
    }
    const std::string dir_name = dir.path().filename().string();
    // Recover the original id: a manifest row is the only way back from a
    // '%'-mangled name, and it carries the LRU stamp — but it is trusted only
    // for the directory its id sanitizes to, so a stale or corrupt row can
    // neither rename a directory nor alias two onto one id. Otherwise the
    // pass-through round-trip rule applies; names neither recovers are
    // unreachable forever — reclaim them rather than leaking dead bytes
    // against the budget.
    std::string id;
    double last_touch = 0.0;
    const auto mit = manifest.find(dir_name);
    if (mit != manifest.end() &&
        SanitizeContextId(mit->second.original_id) == dir_name) {
      id = mit->second.original_id;
      last_touch = mit->second.last_touch_s;
    } else if (SanitizeContextId(dir_name) == dir_name) {
      id = dir_name;
    } else {
      std::error_code ec;
      fs::remove_all(dir.path(), ec);
      continue;
    }
    ColdEntry entry;
    for (const auto& f : fs::directory_iterator(dir.path())) {
      if (!f.is_regular_file() || f.path().extension() != ".cgkv") continue;
      uint32_t chunk = 0;
      int32_t level = 0;
      if (std::sscanf(f.path().filename().string().c_str(),
                      "chunk%u_level%d.cgkv", &chunk, &level) != 2) {
        continue;
      }
      entry.chunk_bytes[{chunk, level}] = static_cast<uint32_t>(f.file_size());
      entry.bytes += f.file_size();
    }
    if (entry.chunk_bytes.empty()) continue;
    entry.persisted = true;
    entry.last_touch_s = last_touch;
    const uint64_t bytes = entry.bytes;
    if (cold_.emplace(id, std::move(entry)).second) cold_bytes_ += bytes;
  }
  // The budget may have shrunk since the adopted bytes were written.
  EnforceColdCapacityLocked(nullptr);
}

void TieredKVStore::SyncManifestLocked() {
  const fs::path final_path = opts_.cold_root / kColdManifestName;
  const fs::path tmp = opts_.cold_root / (std::string(kColdManifestName) + ".tmp");
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;  // best-effort: adoption degrades to the fallback rules
    out << kColdManifestHeader << '\n';
    for (const auto& [id, e] : cold_) {
      if (!e.persisted) continue;
      char bits[17];
      std::snprintf(bits, sizeof(bits), "%016llx",
                    static_cast<unsigned long long>(DoubleBits(e.last_touch_s)));
      out << SanitizeContextId(id) << ' ' << HexEncode(id) << ' ' << bits
          << '\n';
    }
    out.flush();
    out.close();
    if (out.fail()) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) fs::remove(tmp, ec);
}

// --- demotion (hot -> cold) --------------------------------------------------

void TieredKVStore::OnHotEviction(ShardedKVStore::EvictedContext&& victim) {
  // Runs under the evicting shard's lock: register the manifest entry now
  // (lookups racing the eviction must see the context as cold) and queue
  // the disk write for the evicting call to perform once it has released
  // the shard lock. Lock order is shard -> cold_mu_.
  const std::string& id = victim.context_id;
  MutexLock lock(cold_mu_);
  // Replaces any older incarnation. Same id means same immutable content
  // and chunk set, so the new persist simply overwrites the old files — no
  // erase needed.
  ColdEntry& entry = cold_[id];
  cold_bytes_ -= entry.bytes;
  entry = ColdEntry{};
  entry.bytes = victim.bytes;
  entry.last_touch_s = victim.last_touch_s;
  for (const auto& [key, bytes] : victim.chunks) {
    entry.chunk_bytes[{key.chunk_index, key.level_id}] =
        static_cast<uint32_t>(bytes.size());
  }
  entry.buffer = std::move(victim.chunks);
  cold_bytes_ += entry.bytes;
  demotions_.fetch_add(1, std::memory_order_relaxed);
  demoted_bytes_.fetch_add(entry.bytes, std::memory_order_relaxed);
  CG_METRIC_COUNT("storage.demotions", 1);
  CG_TRACE_INSTANT("storage", "demote", "bytes",
                   static_cast<double>(entry.bytes));
  EnforceColdCapacityLocked(&id);
  disk_ops_.push_back({id, /*erase=*/false});
}

void TieredKVStore::EnforceColdCapacityLocked(const std::string* keep) {
  if (opts_.cold_capacity_bytes == 0) return;
  // Mirrors the hot tier: LRU at whole-context granularity, deterministic
  // id tie-break, and the last context soft-overflows instead of thrashing.
  while (cold_bytes_ > opts_.cold_capacity_bytes && cold_.size() > 1) {
    const std::string* victim = nullptr;
    const ColdEntry* victim_meta = nullptr;
    for (const auto& [id, e] : cold_) {
      if (keep && id == *keep) continue;
      if (!victim || e.last_touch_s < victim_meta->last_touch_s ||
          (e.last_touch_s == victim_meta->last_touch_s && id < *victim)) {
        victim = &id;
        victim_meta = &e;
      }
    }
    if (!victim) return;
    const auto it = cold_.find(*victim);
    cold_bytes_ -= it->second.bytes;
    cold_evictions_.fetch_add(1, std::memory_order_relaxed);
    cold_evicted_bytes_.fetch_add(it->second.bytes, std::memory_order_relaxed);
    CG_METRIC_COUNT("storage.cold_evictions", 1);
    CG_TRACE_INSTANT("storage", "cold_evict", "bytes",
                     static_cast<double>(it->second.bytes));
    // Unconditional, even for entries that never reached disk: a
    // re-demotion can be shadowing stale files of an earlier persisted
    // incarnation whose own erase was skipped (it found this entry in the
    // manifest). The entry's queued persist finds it gone and writes
    // nothing; the erase then clears any leftovers so evicted bytes can't
    // outlive the budget or resurrect on restart.
    QueueErase(*victim);
    cold_.erase(it);
  }
}

// --- promotion (cold -> hot) -------------------------------------------------

KVTier TieredKVStore::LookupAndPin(const std::string& context_id, double t_s) {
  std::vector<std::pair<ChunkKey, std::vector<uint8_t>>> chunks;
  std::vector<ChunkKey> persisted_keys;
  bool retried = false;
  for (;;) {
    if (hot_->LookupAndPin(context_id, t_s)) {
      hot_hits_.fetch_add(1, std::memory_order_relaxed);
      return KVTier::kHot;
    }
    cold_mu_.lock();
    if (promoting_.count(context_id) > 0) {
      // Another thread is moving this context hot; wait and retry the hot
      // lookup so concurrent requests for one cold context agree.
      while (promoting_.count(context_id) > 0) promote_cv_.Wait(cold_mu_);
      cold_mu_.unlock();
      continue;
    }
    const auto it = cold_.find(context_id);
    if (it == cold_.end()) {
      // A racing promotion can have completed wholesale between the hot
      // check and this manifest check; one clean retry of both tiers
      // settles it (a demotion registers in the manifest under the shard
      // lock before the hot tier forgets the context, so two consecutive
      // double misses mean genuinely absent).
      cold_mu_.unlock();
      if (!retried) {
        retried = true;
        continue;
      }
      misses_.fetch_add(1, std::memory_order_relaxed);
      return KVTier::kMiss;
    }
    ColdEntry& entry = it->second;
    cold_bytes_ -= entry.bytes;
    if (entry.persisted) {
      for (const auto& [chunk_id, size] : entry.chunk_bytes) {
        persisted_keys.push_back({context_id, chunk_id.first, chunk_id.second});
      }
    } else {
      chunks = std::move(entry.buffer);
    }
    cold_.erase(it);
    promoting_.insert(context_id);
    cold_mu_.unlock();
    break;
  }
  // Scope guard, not a manual call: the id must leave promoting_ on EVERY
  // exit — a throw that skipped it would park all future lookups for this
  // context on promote_cv_ forever.
  struct FinishPromotion {
    TieredKVStore* store;
    const std::string& id;
    ~FinishPromotion() {
      {
        MutexLock lock(store->cold_mu_);
        store->promoting_.erase(id);
      }
      store->promote_cv_.NotifyAll();
    }
  } finish_promotion{this, context_id};

  // Placeholder pin first so the context survives concurrent evictions while
  // its chunks are re-inserted (the established write-back discipline). All
  // fallible work is contained below so the pin cannot leak.
  hot_->Pin(context_id);
  bool ok = true;
  uint64_t bytes_promoted = 0;
  try {
    for (const ChunkKey& key : persisted_keys) {
      auto bytes = cold_backend_->Get(key);
      if (!bytes) {
        ok = false;
        break;
      }
      chunks.emplace_back(key, std::move(*bytes));
    }
    if (ok && !chunks.empty()) {
      // Atomic w.r.t. concurrent lookups: the context is never observable
      // half-populated.
      std::vector<ChunkView> views;
      views.reserve(chunks.size());
      for (const auto& [key, bytes] : chunks) {
        views.emplace_back(key, std::span<const uint8_t>(bytes));
        bytes_promoted += bytes.size();
      }
      hot_->PutBatch(context_id, views);
    }
  } catch (...) {
    ok = false;
  }
  if (!ok || chunks.empty()) {
    // Cold copy unreadable (lost files, refused hot insert): back out and
    // degrade to a plain miss — the request recomputes from text.
    try {
      hot_->Unpin(context_id);
      hot_->EraseContext(context_id);
    } catch (...) {
      // Backout is best-effort (e.g. a file backend failing its erase too);
      // the pin was dropped first, so nothing stays unevictable.
    }
    // The Unpin above re-enforces capacity and can have EVICTED the
    // partially inserted context straight back through the demotion sink —
    // re-registering the corrupt subset in the manifest. Purge it, then
    // reclaim whatever files exist (the erase would otherwise skip a
    // context that is present in the manifest).
    {
      MutexLock lock(cold_mu_);
      const auto it = cold_.find(context_id);
      if (it != cold_.end()) {
        cold_bytes_ -= it->second.bytes;
        cold_.erase(it);
      }
      QueueErase(context_id);
    }
    RunDiskOps();
    misses_.fetch_add(1, std::memory_order_relaxed);
    return KVTier::kMiss;
  }
  hot_->Touch(context_id, t_s);
  // Exclusive tiering: reclaim the cold files once the context lives hot
  // again. Unconditional — even a buffered entry can shadow stale files of
  // an earlier persisted incarnation whose erase was skipped.
  {
    MutexLock lock(cold_mu_);
    QueueErase(context_id);
  }
  RunDiskOps();
  cold_hits_.fetch_add(1, std::memory_order_relaxed);
  promotions_.fetch_add(1, std::memory_order_relaxed);
  promoted_bytes_.fetch_add(bytes_promoted, std::memory_order_relaxed);
  CG_METRIC_COUNT("storage.promotions", 1);
  CG_TRACE_INSTANT("storage", "promote", "bytes",
                   static_cast<double>(bytes_promoted));
  return KVTier::kCold;
}

TierLookup TieredKVStore::LookupAndPin(const std::string& context_id,
                                       const ContextSpec& spec, double t_s) {
  TierLookup out;
  out.tier = LookupAndPin(context_id, t_s);
  if (out.tier != KVTier::kMiss) {
    out.covered_tokens = spec.num_tokens;
    out.any_cold = out.tier == KVTier::kCold;
    out.pinned = true;
  }
  return out;
}

// --- disk work -----------------------------------------------------------------

void TieredKVStore::QueueErase(std::string context_id) {
  disk_ops_.push_back({std::move(context_id), /*erase=*/true});
}

bool TieredKVStore::PersistLocked(const std::string& context_id,
                                  ColdEntry& entry) {
  try {
    for (const auto& [key, bytes] : entry.buffer) cold_backend_->Put(key, bytes);
    // Commit the context: without the sentinel, restart adoption treats the
    // directory as mid-persist debris and reclaims it.
    std::ofstream out(
        opts_.cold_root / SanitizeContextId(context_id) / kColdCompleteSentinel,
        std::ios::binary | std::ios::trunc);
    out << '1';
    out.close();
    if (out.fail()) return false;
  } catch (...) {
    return false;
  }
  entry.persisted = true;
  entry.buffer = {};
  return true;
}

void TieredKVStore::RunDiskOps() {
  MutexLock lock(cold_mu_);
  bool changed = false;
  while (!disk_ops_.empty()) {
    const DiskOp op = std::move(disk_ops_.front());
    disk_ops_.pop_front();
    const auto it = cold_.find(op.context_id);
    if (!op.erase) {
      // Skips ids promoted or evicted since the demotion, and ids a
      // re-demotion's earlier persist already wrote. A refused write leaves
      // the entry memory-resident: reads and promotions keep using its
      // buffer.
      if (it != cold_.end() && !it->second.persisted) {
        changed |= PersistLocked(op.context_id, it->second);
      }
    } else if (it == cold_.end()) {
      // An id back in the manifest is a newer incarnation queued after this
      // erase; its persist rewrites the same files, so erasing them would
      // destroy live data.
      try {
        cold_backend_->EraseContext(op.context_id);
      } catch (...) {
      }
      changed = true;
    }
  }
  if (changed) SyncManifestLocked();
}

void TieredKVStore::Flush() { RunDiskOps(); }

// --- KVStore interface -------------------------------------------------------

void TieredKVStore::Put(const ChunkKey& key, std::span<const uint8_t> bytes) {
  hot_->Put(key, bytes);
  RunDiskOps();
}

void TieredKVStore::PutBatch(const std::string& context_id,
                             std::span<const ChunkView> chunks) {
  hot_->PutBatch(context_id, chunks);
  RunDiskOps();
}

std::optional<std::vector<uint8_t>> TieredKVStore::Get(
    const ChunkKey& key) const {
  bool retried = false;
  for (;;) {
    if (auto from_hot = hot_->Get(key)) return from_hot;
    cold_mu_.lock();
    if (promoting_.count(key.context_id) > 0) {
      // Mid-promotion the bytes live in the promoter's hands — neither
      // tier would answer. Wait and retry the hot tier.
      while (promoting_.count(key.context_id) > 0) promote_cv_.Wait(cold_mu_);
      cold_mu_.unlock();
      continue;
    }
    const auto it = cold_.find(key.context_id);
    if (it == cold_.end()) {
      // A racing promotion can have completed wholesale between the hot
      // check and here; one clean retry of both tiers settles it.
      cold_mu_.unlock();
      if (!retried) {
        retried = true;
        continue;
      }
      return std::nullopt;
    }
    if (!it->second.persisted) {
      std::optional<std::vector<uint8_t>> found;
      for (const auto& [chunk_key, chunk_bytes] : it->second.buffer) {
        if (chunk_key.chunk_index == key.chunk_index &&
            chunk_key.level_id == key.level_id) {
          found = chunk_bytes;  // copy out of the RAM buffer
          break;
        }
      }
      cold_mu_.unlock();
      return found;
    }
    cold_mu_.unlock();
    if (auto from_cold = cold_backend_->Get(key)) return from_cold;
    // The files vanished between the manifest check and the read: a
    // concurrent promotion erased them after copying the context into the
    // hot tier (or it was re-demoted already). Go around once; a second
    // failure means the bytes are genuinely lost (corrupt cold copy).
    if (retried) return hot_->Get(key);
    retried = true;
  }
}

bool TieredKVStore::ContainsContext(const std::string& context_id) const {
  bool retried = false;
  for (;;) {
    if (hot_->ContainsContext(context_id)) return true;
    cold_mu_.lock();
    if (promoting_.count(context_id) > 0) {
      while (promoting_.count(context_id) > 0) promote_cv_.Wait(cold_mu_);
      cold_mu_.unlock();
      continue;  // promoted (or backed out): re-check the hot tier
    }
    const bool in_cold = cold_.count(context_id) > 0;
    cold_mu_.unlock();
    if (in_cold) return true;
    // A racing promotion can have completed wholesale between the hot check
    // and here; one clean retry of both tiers settles it.
    if (retried) return false;
    retried = true;
  }
}

void TieredKVStore::EraseContext(const std::string& context_id) {
  hot_->EraseContext(context_id);
  {
    MutexLock lock(cold_mu_);
    const auto it = cold_.find(context_id);
    if (it == cold_.end()) return;
    cold_bytes_ -= it->second.bytes;
    cold_.erase(it);
    QueueErase(context_id);
  }
  RunDiskOps();
}

uint64_t TieredKVStore::TotalBytes() const {
  uint64_t cold = 0;
  {
    MutexLock lock(cold_mu_);
    cold = cold_bytes_;
  }
  return hot_->TotalBytes() + cold;
}

uint64_t TieredKVStore::ContextBytes(const std::string& context_id) const {
  uint64_t cold = 0;
  {
    MutexLock lock(cold_mu_);
    const auto it = cold_.find(context_id);
    if (it != cold_.end()) cold = it->second.bytes;
  }
  return hot_->ContextBytes(context_id) + cold;
}

// --- pass-throughs & stats ---------------------------------------------------

void TieredKVStore::Pin(const std::string& context_id) {
  hot_->Pin(context_id);
}

void TieredKVStore::Unpin(const std::string& context_id) {
  hot_->Unpin(context_id);
  RunDiskOps();
}

void TieredKVStore::Touch(const std::string& context_id, double t_s) {
  hot_->Touch(context_id, t_s);
}

TieredKVStore::Stats TieredKVStore::stats() const {
  Stats s;
  s.hot_hits = hot_hits_.load(std::memory_order_relaxed);
  s.cold_hits = cold_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.demotions = demotions_.load(std::memory_order_relaxed);
  s.demoted_bytes = demoted_bytes_.load(std::memory_order_relaxed);
  s.promotions = promotions_.load(std::memory_order_relaxed);
  s.promoted_bytes = promoted_bytes_.load(std::memory_order_relaxed);
  s.cold_evictions = cold_evictions_.load(std::memory_order_relaxed);
  s.cold_evicted_bytes = cold_evicted_bytes_.load(std::memory_order_relaxed);
  s.hot_tier = hot_->stats();
  s.hot_bytes = s.hot_tier.stored_bytes;
  {
    MutexLock lock(cold_mu_);
    s.cold_bytes = cold_bytes_;
  }
  return s;
}

}  // namespace cachegen
