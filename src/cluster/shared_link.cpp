#include "cluster/shared_link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cachegen {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kByteEps = 1e-6;   // transfers within a byte-millionth are done
constexpr double kTimeEps = 1e-12;
}  // namespace

SharedLink::SharedLink(BandwidthTrace capacity) : capacity_(std::move(capacity)) {}

void SharedLink::SetGpuSlots(size_t n) { gpu_slots_ = n; }

void SharedLink::AddGpuSharer(double t_s) {
  AddLedgerEvent(std::max(t_s, now_s_), +1);
}

void SharedLink::AddLedgerEvent(double t_s, int delta) {
  const auto it = std::lower_bound(
      gpu_events_.begin(), gpu_events_.end(), t_s,
      [](const std::pair<double, int>& e, double t) { return e.first < t; });
  if (it != gpu_events_.end() && it->first == t_s) {
    it->second += delta;
  } else {
    gpu_events_.insert(it, {t_s, delta});
  }
}

void SharedLink::PostGpuWork(FlowId id, double arrival_s, double const_s,
                             double shared_s) {
  GpuItem item;
  item.arrival_s = std::max(arrival_s, 0.0);
  item.const_rem = std::max(const_s, 0.0);
  item.shared_rem = std::max(shared_s, 0.0);
  Find(id).lane.push_back(item);
}

SharedLink::Op<std::span<const double>> SharedLink::DrainGpu(FlowId id) {
  Flow& f = Find(id);
  f.end_s = f.clock;
  if (!f.LaneEmpty()) {
    f.t_start = f.clock;
    f.remaining = 0.0;
    f.wake_at = -1.0;
    f.pending = Pending::kDrain;
  }
  return {*this, f};
}

std::span<const double> SharedLink::CollectDrain(Flow& f) {
  f.clock = f.end_s;
  // Hand the instants over by swapping buffers, so both keep their capacity.
  f.drained.swap(f.gpu_done);
  f.gpu_done.clear();
  return f.drained;
}

double SharedLink::GpuShareAt(double t_s) const {
  int n = gpu_base_inflight_;
  for (const auto& [t, delta] : gpu_events_) {
    if (t <= t_s + kTimeEps) n += delta;
  }
  size_t eff = static_cast<size_t>(std::max(1, n));
  if (gpu_slots_ > 0) eff = std::min(eff, gpu_slots_);
  return 1.0 / static_cast<double>(eff);
}

SharedLink::FlowId SharedLink::Register(double start_s, double weight) {
  const FlowId id = next_flow_++;
  Flow* slot;
  if (free_.empty()) {
    slots_.push_back(std::make_unique<Flow>());
    slot = slots_.back().get();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Flow& f = *slot;
  // A recycled slot keeps its buffers' capacity; every other field starts
  // afresh.
  f.id = id;
  f.clock = std::max(start_s, now_s_);
  f.weight = weight > 0.0 ? weight : 1.0;
  f.pending = Pending::kNone;
  f.bytes = 0.0;
  f.remaining = 0.0;
  f.wake_at = -1.0;
  f.t_start = 0.0;
  f.end_s = 0.0;
  f.waiter = {};
  f.track = obs::ScopedRequestId::Current();
  f.lane.clear();
  f.lane_head = 0;
  f.lane_ready = 0.0;
  f.gpu_done.clear();
  f.drained.clear();
  live_.push_back(slot);  // ids increase, so live_ stays sorted
  return id;
}

SharedLink::Flow& SharedLink::Find(FlowId id) const {
  const auto it = std::lower_bound(
      live_.begin(), live_.end(), id,
      [](const Flow* f, FlowId want) { return f->id < want; });
  if (it == live_.end() || (*it)->id != id) {
    throw std::out_of_range("SharedLink: unknown flow");
  }
  return **it;
}

void SharedLink::Remove(FlowId id) {
  const auto it = std::lower_bound(
      live_.begin(), live_.end(), id,
      [](const Flow* f, FlowId want) { return f->id < want; });
  if (it == live_.end() || (*it)->id != id) return;
  free_.push_back(*it);
  live_.erase(it);
}

void SharedLink::Deregister(FlowId id) { Remove(id); }

SharedLink::Op<TransferRecord> SharedLink::Transfer(FlowId id, double bytes) {
  Flow& f = Find(id);
  f.t_start = std::max(f.clock, now_s_);
  f.bytes = bytes;
  f.remaining = std::max(bytes, 0.0);
  f.wake_at = -1.0;
  if (f.remaining <= kByteEps) {
    f.remaining = 0.0;
    f.end_s = f.t_start;
  } else {
    f.pending = Pending::kTransfer;
  }
  return {*this, f};
}

TransferRecord SharedLink::CollectTransfer(Flow& f) {
  f.clock = f.end_s;
  TransferRecord rec;
  rec.start_s = f.t_start;
  rec.end_s = f.end_s;
  rec.bytes = f.bytes;
  // The grant instant lands on the resumed request's track: the arbiter
  // granted this flow `bytes` of max-min fair share by rec.end_s.
  CG_METRIC_COUNT("net.grants", 1);
  CG_METRIC_COUNT("net.granted_bytes", static_cast<uint64_t>(rec.bytes));
  CG_TRACE_VINSTANT("net", "grant", obs::ScopedRequestId::Current(), rec.end_s,
                    "bytes", rec.bytes);
  return rec;
}

SharedLink::Op<void> SharedLink::WaitUntil(FlowId id, double t_s) {
  Flow& f = Find(id);
  f.end_s = f.clock;
  if (t_s > f.clock + kTimeEps) {
    f.t_start = f.clock;
    f.remaining = 0.0;
    f.wake_at = t_s;
    f.pending = Pending::kWait;
  }
  return {*this, f};
}

double SharedLink::CompleteFlow(FlowId id, double free_s) {
  Remove(id);
  const double t = std::max(free_s, now_s_);
  // Ledger -1 at the free instant: every surviving lane is priced at the
  // higher share from this instant onward.
  AddLedgerEvent(t, -1);
  return t;
}

void SharedLink::Finish(Flow& f, double end_s) {
  f.pending = Pending::kNone;
  f.end_s = end_s;
  ready_.push_back({std::exchange(f.waiter, {}), f.track});
}

bool SharedLink::ResumeReady() {
  if (ready_.empty()) return false;
  // Resumed coroutines only post operations; none finishes before the next
  // Advance, so the batch cannot grow while it runs.
  resuming_.swap(ready_);
  for (const Ready& r : resuming_) {
    if (!r.h) continue;
    obs::ScopedRequestId rid(r.track);
    r.h.resume();
  }
  resuming_.clear();
  return true;
}

double SharedLink::GpuShare() const {
  size_t eff = static_cast<size_t>(std::max(1, gpu_base_inflight_));
  if (gpu_slots_ > 0) eff = std::min(eff, gpu_slots_);
  return 1.0 / static_cast<double>(eff);
}

void SharedLink::FoldGpuLedger() {
  size_t settled = 0;
  while (settled < gpu_events_.size() &&
         gpu_events_[settled].first <= now_s_ + kTimeEps) {
    gpu_base_inflight_ += gpu_events_[settled].second;
    ++settled;
  }
  gpu_events_.erase(gpu_events_.begin(),
                    gpu_events_.begin() + static_cast<ptrdiff_t>(settled));
}

double SharedLink::NextSegmentBoundaryAfter(double t_s) const {
  for (const auto& seg : capacity_.segments()) {
    if (seg.start_s > t_s + kTimeEps) return seg.start_s;
  }
  return kInf;
}

bool SharedLink::Advance(double limit_s) {
  bool progressed = false;
  for (;;) {
    if (live_.empty()) return progressed;
    for (const Flow* f : live_) {
      // A coroutine is mid-computation (or has yet to be resumed): freeze.
      if (f->pending == Pending::kNone) return progressed;
    }

    // Every ledger event at or before now is settled; fold it into the base
    // count so share lookups are O(1) and the event map stays small.
    FoldGpuLedger();

    // Wake waiters whose instant has been reached (even at the limit).
    bool completed = false;
    double dormant_t = kInf, wake_t = kInf;
    active_.clear();
    for (Flow* fp : live_) {
      Flow& f = *fp;
      if (f.remaining > 0.0) {
        if (f.clock > now_s_ + kTimeEps) {
          dormant_t = std::min(dormant_t, f.clock);  // admitted in the future
        } else {
          active_.push_back(&f);
        }
      } else if (f.pending == Pending::kDrain) {
        if (f.LaneEmpty()) {
          Finish(f, std::max(f.clock, now_s_));
          completed = true;
        }
        // else: the wake event is the lane's last item finishing, priced in
        // the GPU scan below.
      } else if (f.wake_at <= now_s_ + kTimeEps) {
        Finish(f, std::max(f.wake_at, f.t_start));
        completed = true;
      } else {
        wake_t = std::min(wake_t, f.wake_at);
      }
    }
    if (completed) return true;

    if (limit_s <= now_s_ + kTimeEps) return progressed;  // at the limit

    double t_next = std::min({limit_s, dormant_t, wake_t});
    t_next = std::min(t_next, NextSegmentBoundaryAfter(now_s_));
    // The GPU share changes at the next ledger instant; no lane segment may
    // integrate across it.
    if (!gpu_events_.empty()) {
      t_next = std::min(t_next, gpu_events_.front().first);
    }

    // GPU lane heads: project each startable head's completion at the
    // current share; future starts are boundaries of their own.
    const double share = GpuShare();
    gpu_heads_.clear();  // flow -> projected finish
    double min_gpu_finish = kInf;
    for (Flow* fp : live_) {
      Flow& f = *fp;
      if (f.LaneEmpty()) continue;
      const GpuItem& head = f.LaneFront();
      const double start = std::max(head.arrival_s, f.lane_ready);
      if (start > now_s_ + kTimeEps) {
        t_next = std::min(t_next, start);
        continue;
      }
      const double fin = now_s_ + head.const_rem + head.shared_rem / share;
      gpu_heads_.emplace_back(&f, fin);
      min_gpu_finish = std::min(min_gpu_finish, fin);
    }

    const double cap_bps = capacity_.BytesPerSecAt(now_s_);
    double weight_sum = 0.0;
    for (const Flow* f : active_) weight_sum += f->weight;
    finish_.assign(active_.size(), kInf);
    double min_bw_finish = kInf;
    if (cap_bps > 0.0) {
      for (size_t i = 0; i < active_.size(); ++i) {
        const double rate = cap_bps * active_[i]->weight / weight_sum;
        finish_[i] = now_s_ + active_[i]->remaining / rate;
        min_bw_finish = std::min(min_bw_finish, finish_[i]);
      }
    }
    // else dead air: transfers drain nothing until the next capacity segment.

    // If the binding event is a transfer or lane-item finish, complete it by
    // construction: `remaining -= rate * dt` cannot be trusted to reach zero
    // once now_s_ is large enough that rate * ulp(now_s_) rivals the epsilon.
    const double min_finish = std::min(min_bw_finish, min_gpu_finish);
    const bool finish_event = min_finish <= t_next;
    if (finish_event) t_next = min_finish;
    if (!std::isfinite(t_next)) return progressed;  // nothing pending can fire
    const double finish_tol =
        t_next + 4.0 * std::numeric_limits<double>::epsilon() * std::max(1.0, t_next);

    const double dt = t_next - now_s_;
    if (cap_bps > 0.0) {
      for (size_t i = 0; i < active_.size(); ++i) {
        Flow* f = active_[i];
        if (finish_event && finish_[i] <= finish_tol) {
          f->remaining = 0.0;
          Finish(*f, t_next);
          completed = true;
        } else {
          const double rate = cap_bps * f->weight / weight_sum;
          f->remaining = std::max(0.0, f->remaining - rate * dt);
        }
      }
    }
    for (auto& [f, fin] : gpu_heads_) {
      GpuItem& head = f->LaneFront();
      if (finish_event && fin <= finish_tol) {
        f->gpu_done.push_back(t_next);
        f->lane_ready = t_next;
        f->PopLane();
        // Waking a drained flow (lane now empty) happens at the top of the
        // next iteration; a mid-stream lane pop wakes nobody.
      } else {
        const double c = std::min(head.const_rem, dt);
        head.const_rem -= c;
        head.shared_rem = std::max(0.0, head.shared_rem - (dt - c) * share);
      }
    }
    now_s_ = t_next;
    progressed = true;
    if (completed) return true;
  }
}

ClientLink::ClientLink(SharedLink& shared, SharedLink::FlowId flow)
    : shared_(shared), flow_(flow) {
  now_s_ = shared_.FlowClock(flow_);
}

Task<TransferRecord> ClientLink::Send(double bytes) {
  const TransferRecord rec = co_await shared_.Transfer(flow_, bytes);
  now_s_ = rec.end_s;
  co_return rec;
}

Task<> ClientLink::AdvanceTo(double t_s) {
  co_await shared_.WaitUntil(flow_, t_s);
  now_s_ = std::max(now_s_, t_s);
}

double ClientLink::CurrentGbps() const {
  // The path's aggregate capacity at this flow's clock. The flow's own share
  // varies with contention; callers wanting the observed per-flow rate
  // should use TransferRecord::ThroughputGbps() instead.
  return shared_.CapacityGbpsAt(now_s_);
}

}  // namespace cachegen
