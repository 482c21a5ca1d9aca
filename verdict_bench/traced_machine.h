// Outside-in timing of a state machine's calls.
//
// TracedMachine<M> owns an M by value and forwards the interface the explorer
// templates (src/model/explorer.h) and RunEnginePasses (src/engine/engine.h)
// probe for, timing every forwarded call with steady_clock into one slot of a
// shared TraceLedger. Calls are grouped into four layers:
//
//   successors  Successors() (both overloads): the machine's step semantics,
//               including the Promising machine's solo certification and
//               promise-candidate searches.
//   digest      SerializeInto()/CanonicalDigest(): the dedup digest stream.
//   terminal    IsTerminal()/AuditTerminal()/Extract().
//   misc        Initial()/CloseOutcomesUnderSymmetry(): once per walk.
//
// access_map(), SymmetryActive(), program() and the static state-layout hooks
// are forwarded untimed: they are accessors, and the layout hooks are the
// explorer's own admission accounting. Walk time not covered by a timed call
// is the explorer's own work (dedup probes, frontier traffic, ample-set
// pruning, admission accounting).
//
// ExploreParallel copies the machine once per worker, in worker order, before
// any worker starts. Each copy claims the next ledger slot, so slot 0 is the
// caller's instance and slot 1 + w is worker w; every slot is written by one
// thread only. Because M is held by value, each copy also keeps private
// certification caches — exactly what the untraced parallel walk does.

#ifndef VERDICT_BENCH_TRACED_MACHINE_H_
#define VERDICT_BENCH_TRACED_MACHINE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/model/explorer.h"
#include "src/support/check.h"

namespace vrm {
namespace verdict_bench {

enum Layer : int { kSuccessors = 0, kDigest, kTerminal, kMisc, kNumLayers };

struct alignas(64) TraceSlot {
  int64_t ns[kNumLayers] = {};
  uint64_t calls[kNumLayers] = {};

  int64_t BusyNs() const {
    int64_t total = 0;
    for (int64_t t : ns) {
      total += t;
    }
    return total;
  }

  void Add(const TraceSlot& other) {
    for (int l = 0; l < kNumLayers; ++l) {
      ns[l] += other.ns[l];
      calls[l] += other.calls[l];
    }
  }
};

class TraceLedger {
 public:
  static constexpr int kMaxSlots = 32;

  // Zeroes every slot. Only valid while no traced machine built on this
  // ledger is alive: slot numbering restarts at 0.
  void Reset() {
    slots_.fill(TraceSlot{});
    next_.store(0, std::memory_order_relaxed);
  }

  int Claim() {
    const int slot = next_.fetch_add(1, std::memory_order_relaxed);
    VRM_CHECK_MSG(slot < kMaxSlots, "trace ledger out of slots");
    return slot;
  }

  int claimed() const { return next_.load(std::memory_order_relaxed); }
  TraceSlot& slot(int i) { return slots_[i]; }
  const TraceSlot& slot(int i) const { return slots_[i]; }

  // Sum over every claimed slot.
  TraceSlot Total() const {
    TraceSlot total;
    for (int i = 0; i < claimed(); ++i) {
      total.Add(slots_[i]);
    }
    return total;
  }

 private:
  std::array<TraceSlot, kMaxSlots> slots_{};
  std::atomic<int> next_{0};
};

// Adds the lifetime of one forwarded call to its slot.
class CallSpan {
 public:
  CallSpan(TraceSlot* slot, Layer layer)
      : slot_(slot), layer_(layer), start_(std::chrono::steady_clock::now()) {}
  ~CallSpan() {
    slot_->ns[layer_] += std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
    ++slot_->calls[layer_];
  }
  CallSpan(const CallSpan&) = delete;
  CallSpan& operator=(const CallSpan&) = delete;

 private:
  TraceSlot* slot_;
  Layer layer_;
  std::chrono::steady_clock::time_point start_;
};

template <typename M>
class TracedMachine {
 public:
  using State = typename M::State;

  template <typename... Args>
  explicit TracedMachine(TraceLedger* ledger, Args&&... args)
      : machine_(std::forward<Args>(args)...), ledger_(ledger), slot_(ledger->Claim()) {}

  // The parallel engine's per-worker copy: same machine, next ledger slot.
  TracedMachine(const TracedMachine& other)
      : machine_(other.machine_), ledger_(other.ledger_), slot_(ledger_->Claim()) {}
  TracedMachine& operator=(const TracedMachine&) = delete;

  State Initial() const {
    CallSpan span(Slot(), kMisc);
    return machine_.Initial();
  }

  bool IsTerminal(const State& state) const {
    CallSpan span(Slot(), kTerminal);
    return machine_.IsTerminal(state);
  }

  Outcome Extract(const State& state) const {
    CallSpan span(Slot(), kTerminal);
    return machine_.Extract(state);
  }

  void AuditTerminal(const State& state, ExploreResult* agg) const {
    CallSpan span(Slot(), kTerminal);
    machine_.AuditTerminal(state, agg);
  }

  size_t Successors(const State& state, std::vector<State>* out,
                    ExploreResult* agg) const {
    CallSpan span(Slot(), kSuccessors);
    return machine_.Successors(state, out, agg);
  }

  size_t Successors(const State& state, std::vector<State>* out, ExploreResult* agg,
                    std::vector<StepFootprint>* fps) const
    requires kHasFootprints<M>
  {
    CallSpan span(Slot(), kSuccessors);
    return machine_.Successors(state, out, agg, fps);
  }

  const AccessMap& access_map() const
    requires kHasFootprints<M>
  {
    return machine_.access_map();
  }

  template <typename Sink>
  void SerializeInto(const State& state, Sink* sink) const {
    CallSpan span(Slot(), kDigest);
    machine_.SerializeInto(state, sink);
  }

  bool SymmetryActive() const
    requires kHasSymmetry<M>
  {
    return machine_.SymmetryActive();
  }

  void CanonicalDigest(const State& state, DigestSink* sink) const
    requires kHasSymmetry<M>
  {
    CallSpan span(Slot(), kDigest);
    machine_.CanonicalDigest(state, sink);
  }

  void CloseOutcomesUnderSymmetry(OutcomeSet* outcomes) const
    requires kHasSymmetry<M>
  {
    CallSpan span(Slot(), kMisc);
    machine_.CloseOutcomesUnderSymmetry(outcomes);
  }

  static uint64_t StateHeapAllocs(const State& state)
    requires kHasStateLayout<M>
  {
    return M::StateHeapAllocs(state);
  }

  static uint64_t StateMemoryBytes(const State& state)
    requires kHasStateLayout<M>
  {
    return M::StateMemoryBytes(state);
  }

  const Program& program() const { return machine_.program(); }

 private:
  TraceSlot* Slot() const { return &ledger_->slot(slot_); }

  M machine_;
  TraceLedger* ledger_;
  int slot_;
};

}  // namespace verdict_bench
}  // namespace vrm

#endif  // VERDICT_BENCH_TRACED_MACHINE_H_
