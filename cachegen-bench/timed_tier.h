// TimedTier: a transparent CacheTier + KVStore decorator that times every
// call the serving stack makes into the storage layer and counts the bytes it
// reads and writes. It forwards every virtual of both interfaces (including
// PreStoreCoverage, PutBatch and the hot_tier()/tiered()/prefix() accessors),
// so dedup-aware StoreKV skips and ClusterServer::store() behave exactly as
// on the bare tier; the unchanged outcome digest of the traced run proves it.
//
// The Engine must be constructed on this object (kv() returns *this), since
// ClusterServer requires engine.store() == tier.kv().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "storage/cache_tier.h"
#include "storage/kv_store.h"

namespace cgbench {

class TimedTier final : public cachegen::KVStore, public cachegen::CacheTier {
 public:
  // Per-operation latency in nanoseconds; sums are exact, quantiles are the
  // registry histogram's bucket-midpoint estimates.
  using Op = cachegen::obs::Histogram;

  explicit TimedTier(std::shared_ptr<cachegen::CacheTier> inner)
      : inner_(std::move(inner)), kv_(inner_->kv()) {}

  // --- KVStore -------------------------------------------------------------
  void Put(const cachegen::ChunkKey& key,
           std::span<const uint8_t> bytes) override {
    put_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
    kv_.Put(key, bytes);
  }
  void PutBatch(const std::string& context_id,
                std::span<const cachegen::ChunkView> chunks) override {
    const Timer t(put_batch_);
    uint64_t bytes = 0;
    for (const auto& [key, view] : chunks) bytes += view.size();
    put_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    kv_.PutBatch(context_id, chunks);
  }
  std::vector<bool> PreStoreCoverage(
      const std::string& context_id, size_t num_chunks,
      std::span<const int32_t> level_ids) const override {
    const Timer t(coverage_);
    return kv_.PreStoreCoverage(context_id, num_chunks, level_ids);
  }
  std::optional<std::vector<uint8_t>> Get(
      const cachegen::ChunkKey& key) const override {
    const Timer t(get_);
    auto bytes = kv_.Get(key);
    if (bytes) get_bytes_.fetch_add(bytes->size(), std::memory_order_relaxed);
    return bytes;
  }
  bool ContainsContext(const std::string& context_id) const override {
    return kv_.ContainsContext(context_id);
  }
  void EraseContext(const std::string& context_id) override {
    kv_.EraseContext(context_id);
  }
  uint64_t TotalBytes() const override { return kv_.TotalBytes(); }
  uint64_t ContextBytes(const std::string& context_id) const override {
    return kv_.ContextBytes(context_id);
  }

  // --- CacheTier -----------------------------------------------------------
  cachegen::TierLookup LookupAndPin(const std::string& context_id,
                                    const cachegen::ContextSpec& spec,
                                    double t_s) override {
    const Timer t(lookup_);
    return inner_->LookupAndPin(context_id, spec, t_s);
  }
  void Pin(const std::string& context_id) override {
    const Timer t(pin_);
    inner_->Pin(context_id);
  }
  void Unpin(const std::string& context_id) override {
    const Timer t(pin_);
    inner_->Unpin(context_id);
  }
  void Touch(const std::string& context_id, double t_s) override {
    const Timer t(touch_);
    inner_->Touch(context_id, t_s);
  }
  void BeginStore(const std::string& context_id,
                  const cachegen::ContextSpec& spec) override {
    inner_->BeginStore(context_id, spec);
  }
  void AbortStore(const std::string& context_id) override {
    inner_->AbortStore(context_id);
  }
  void Flush() override { inner_->Flush(); }
  cachegen::KVStore& kv() override { return *this; }
  const cachegen::ShardedKVStore* hot_tier() const override {
    return inner_->hot_tier();
  }
  const cachegen::TieredKVStore* tiered() const override {
    return inner_->tiered();
  }
  const cachegen::PrefixCache* prefix() const override {
    return inner_->prefix();
  }

  // Copy of every timing and byte count, detached from the tier.
  struct Stats {
    cachegen::obs::HistogramSnapshot lookup, get, put_batch, coverage, pin, touch;
    uint64_t get_bytes = 0;
    uint64_t put_bytes = 0;
  };
  Stats stats() const {
    return {lookup_.Snapshot(),   get_.Snapshot(), put_batch_.Snapshot(),
            coverage_.Snapshot(), pin_.Snapshot(), touch_.Snapshot(),
            get_bytes_.load(),    put_bytes_.load()};
  }

  // Zero every timing and byte count (called between set-up and Serve()).
  void ResetStats() {
    for (Op* op : {&put_batch_, &coverage_, &get_, &lookup_, &pin_, &touch_}) {
      op->Reset();
    }
    get_bytes_.store(0);
    put_bytes_.store(0);
  }

 private:
  class Timer {
   public:
    explicit Timer(Op& op)
        : op_(op), start_(std::chrono::steady_clock::now()) {}
    ~Timer() {
      op_.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count()));
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    Op& op_;
    std::chrono::steady_clock::time_point start_;
  };

  std::shared_ptr<cachegen::CacheTier> inner_;
  cachegen::KVStore& kv_;
  // Mutable: const reads (Get, PreStoreCoverage) are timed too.
  mutable Op put_batch_, coverage_, get_, lookup_, pin_, touch_;
  mutable std::atomic<uint64_t> get_bytes_{0};
  std::atomic<uint64_t> put_bytes_{0};
};

}  // namespace cgbench
