// SharedLink: one physical path, many concurrent KV streams.
//
// The single-request substrate models the network as a private Link whose
// clock only this request advances. A serving cluster breaks that: N
// in-flight requests share the storage-to-GPU path, and each one's chunk
// transfers slow down by exactly the bandwidth the others are using (the
// paper's Fig. 12/13 regime). SharedLink simulates that contention as a
// fluid max-min flow model in *virtual time*, single-threaded, with every
// request's KVStreamer running as a coroutine over it:
//
//   * Each request registers a Flow; its ClientLink (a Link subclass) turns
//     KVStreamer's Send() into a Transfer() the streamer co_awaits.
//   * Aggregate capacity comes from a BandwidthTrace; at any virtual instant
//     every flow with a pending transfer receives capacity * w_i / sum(w),
//     i.e. weighted fair sharing (equal weights -> max-min fairness).
//   * A transfer, a WaitUntil or a GPU drain suspends the awaiting coroutine.
//     Advance() moves virtual time to the next instant where one of them
//     finishes and queues the finished flows' coroutines; ResumeReady()
//     resumes them in FlowId order. Virtual time moves only inside
//     Advance(), so the simulation is a pure function of the calls made.
//
// The caller (ClusterServer's coordinator, or a test) alternates the two:
// resume whatever is ready, then advance. Advance's `limit_s` keeps time
// from passing an instant the caller still has to act on (a request's
// completion, at which successors are admitted).
//
// GPU accounting (per-event shares). The GPU is modelled like the link: a
// shared resource whose per-request share changes at every admission and
// completion instant, not a constant frozen at admission. The arbiter keeps
//   * a ledger of in-flight deltas (+1 at each AddGpuSharer instant, -1 at
//     each CompleteFlow instant), and
//   * one FIFO *lane* of GPU work items per flow (PostGpuWork). An item has
//     a constant part (per-call overhead, drains at rate 1) and a shared
//     part (compute, drains at rate share(t) = 1 / min(gpu_slots,
//     max(1, in_flight(t)))).
// Lanes drain inside Advance as virtual time advances, so a work item
// spanning a peer's completion is priced piecewise. Every ledger event is
// recorded at an instant >= now(), and the caller records it before it next
// advances, so by the time Advance walks a segment the ledger over that
// segment is complete. DrainGpu suspends the flow until its lane is empty
// and hands back the per-item completion instants.
//
// Storage (allocation-free once warm). Flows live in recycled slots: each
// slot is allocated once, so a Flow's address is stable for its whole life
// (an awaiting Op holds a Flow&), and a deregistered flow's slot goes on a
// free list with its lane and completion buffers keeping their capacity.
// The registered flows are also kept in a vector sorted by FlowId — ids are
// issued in increasing order, so Register appends — which Advance walks and
// lookups binary-search. The GPU ledger is a small vector of (instant,
// delta) pairs sorted by instant, and Advance's per-iteration working sets
// are members that are cleared, not rebuilt. A serving loop whose flow
// count stays within what it has seen before therefore allocates nothing
// here.
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/bandwidth_trace.h"
#include "net/link.h"

namespace cachegen {

class SharedLink {
  struct Flow;

 public:
  using FlowId = uint64_t;

  // Awaitable returned by Transfer / WaitUntil / DrainGpu: suspends the
  // awaiting coroutine until the flow's pending operation has finished
  // (not at all when it finished on the spot) and yields its result.
  template <typename Result>
  class Op {
   public:
    bool await_ready() const { return flow_.pending == Pending::kNone; }
    void await_suspend(std::coroutine_handle<> h) { flow_.waiter = h; }
    Result await_resume() {
      if constexpr (std::is_same_v<Result, TransferRecord>) {
        return link_.CollectTransfer(flow_);
      } else if constexpr (std::is_void_v<Result>) {
        flow_.clock = flow_.end_s;
      } else {
        return link_.CollectDrain(flow_);
      }
    }

   private:
    friend class SharedLink;
    Op(SharedLink& link, SharedLink::Flow& flow) : link_(link), flow_(flow) {}
    SharedLink& link_;
    SharedLink::Flow& flow_;
  };

  explicit SharedLink(BandwidthTrace capacity);

  // --- GPU accounting -------------------------------------------------------
  // Cap on concurrent GPU sharers (the cluster's request slots); 0 = uncapped.
  void SetGpuSlots(size_t n);
  // Ledger +1: one more request contends for the GPU from `t_s` (clamped to
  // now()) on. Pair every call with exactly one later CompleteFlow.
  void AddGpuSharer(double t_s);
  // Append a work item to the flow's GPU lane. `const_s` drains at rate 1
  // (per-call overhead); `shared_s` drains at rate share(t). The item starts
  // at max(arrival_s, previous item's completion) and drains as virtual time
  // advances.
  void PostGpuWork(FlowId id, double arrival_s, double const_s, double shared_s);
  // Suspend until the flow's lane is empty; yields the completion instant of
  // every item posted since the last drain, in post order. The view stays
  // valid until the flow's next drain or its removal.
  Op<std::span<const double>> DrainGpu(FlowId id);
  // Ledger introspection (tests): share in effect at instant t_s. Only
  // instants <= now() are guaranteed settled.
  double GpuShareAt(double t_s) const;

  // --- flows ----------------------------------------------------------------
  // Register a flow whose first transfer may start at `start_s` (>= now()).
  // Until the flow's coroutine awaits its first operation (or the flow
  // leaves) virtual time cannot advance. The flow remembers the calling
  // thread's obs::ScopedRequestId and re-establishes it on every resume.
  FlowId Register(double start_s, double weight = 1.0);
  void Deregister(FlowId id);

  // Move `bytes` over the shared path. Yields the record in virtual time
  // (start = the flow's clock when posted, or now() if later).
  Op<TransferRecord> Transfer(FlowId id, double bytes);
  // Hold the flow until virtual time `t_s` without consuming bandwidth.
  Op<void> WaitUntil(FlowId id, double t_s);

  double FlowClock(FlowId id) const { return Find(id).clock; }

  // Remove the flow of a request that frees its slot at `free_s`, and record
  // the matching ledger -1 there. Returns the instant, clamped to now().
  double CompleteFlow(FlowId id, double free_s);

  // --- driving --------------------------------------------------------------
  // Resume, in FlowId order, every coroutine whose operation has finished.
  // Returns false when none was ready.
  bool ResumeReady();
  // Advance virtual time, never past `limit_s`, until some operation
  // finishes (its coroutine is then ready) or time reaches `limit_s`. Does
  // nothing while a registered flow has no pending operation. Returns false
  // when it could neither finish anything nor move time.
  bool Advance(double limit_s = std::numeric_limits<double>::infinity());

  // --- introspection --------------------------------------------------------
  double now() const { return now_s_; }
  double CapacityGbpsAt(double t_s) const { return capacity_.GbpsAt(t_s); }
  size_t ActiveFlows() const { return live_.size(); }
  const BandwidthTrace& capacity() const { return capacity_; }

 private:
  enum class Pending : uint8_t { kNone, kTransfer, kWait, kDrain };

  struct GpuItem {
    double arrival_s = 0.0;   // earliest start (the chunk's transfer end)
    double const_rem = 0.0;   // seconds left of the rate-1 overhead part
    double shared_rem = 0.0;  // seconds left of the share-priced part
  };

  struct Flow {
    FlowId id = 0;
    double clock = 0.0;      // flow-local time: end of last finished operation
    double weight = 1.0;
    Pending pending = Pending::kNone;  // operation the flow's coroutine awaits
    double bytes = 0.0;      // size of the pending transfer
    double remaining = 0.0;  // bytes left of the pending transfer
    double wake_at = -1.0;   // WaitUntil target
    double t_start = 0.0;    // pending transfer start
    double end_s = 0.0;      // finished operation's completion time
    std::coroutine_handle<> waiter;  // the suspended coroutine
    uint64_t track = 0;              // obs::ScopedRequestId to resume under
    // FIFO GPU work queue: items lane[lane_head..] are pending. Both are
    // reset (capacity kept) once the lane runs empty.
    std::vector<GpuItem> lane;
    size_t lane_head = 0;
    double lane_ready = 0.0;        // completion instant of the popped head
    std::vector<double> gpu_done;   // per-item completion instants, post order
    std::vector<double> drained;    // the last drain's instants (its result)

    bool LaneEmpty() const { return lane_head == lane.size(); }
    GpuItem& LaneFront() { return lane[lane_head]; }
    void PopLane() {
      if (++lane_head == lane.size()) {
        lane.clear();
        lane_head = 0;
      }
    }
  };

  struct Ready {
    std::coroutine_handle<> h;
    uint64_t track;
  };

  // The pending operation finished at `end_s`: queue the flow's coroutine.
  void Finish(Flow& f, double end_s);
  // Results of finished operations (the awaiter's await_resume).
  TransferRecord CollectTransfer(Flow& f);
  std::span<const double> CollectDrain(Flow& f);
  // The registered flow `id`; throws std::out_of_range when there is none.
  Flow& Find(FlowId id) const;
  // Unlink a registered flow and park its slot for reuse (no-op if absent).
  void Remove(FlowId id);
  // Ledger delta at instant t_s (merged into an existing entry at t_s).
  void AddLedgerEvent(double t_s, int delta);
  double NextSegmentBoundaryAfter(double t_s) const;
  // Share in effect at now_s_ (call after FoldGpuLedger).
  double GpuShare() const;
  // Absorb ledger events at instants <= now_s_ into the base count.
  void FoldGpuLedger();

  BandwidthTrace capacity_;
  double now_s_ = 0.0;
  std::vector<std::unique_ptr<Flow>> slots_;  // every flow slot ever made
  std::vector<Flow*> free_;                   // parked slots, ready for reuse
  std::vector<Flow*> live_;                   // registered flows, FlowId order
  std::vector<Ready> ready_;     // queued by Advance, in FlowId order
  std::vector<Ready> resuming_;  // the batch ResumeReady is resuming
  FlowId next_flow_ = 1;
  size_t gpu_slots_ = 0;  // 0 = uncapped
  // In-flight count settled through now_s_.
  int gpu_base_inflight_ = 0;
  // Future ledger deltas (instant, net), sorted by instant. An instant whose
  // deltas cancel keeps its entry: it still bounds lane segments.
  std::vector<std::pair<double, int>> gpu_events_;
  // Advance's working sets, cleared on every iteration.
  std::vector<Flow*> active_;                        // transferring, id order
  std::vector<double> finish_;                       // their projected finish
  std::vector<std::pair<Flow*, double>> gpu_heads_;  // startable lane heads
};

// Adapter presenting one SharedLink flow through the Link interface, so the
// single-request KVStreamer streams over a contended path unmodified.
class ClientLink final : public Link {
 public:
  ClientLink(SharedLink& shared, SharedLink::FlowId flow);

  Task<TransferRecord> Send(double bytes) override;
  Task<> AdvanceTo(double t_s) override;
  double now() const override { return now_s_; }
  double CurrentGbps() const override;

 private:
  SharedLink& shared_;
  SharedLink::FlowId flow_;
};

}  // namespace cachegen
