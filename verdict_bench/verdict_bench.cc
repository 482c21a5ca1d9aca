// The verdict benchmark: end-to-end time to verdict for the four north-star
// verbs, plus per-layer timings taken from outside each module.
//
//   verdict_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (README.md in this directory says why each was chosen):
//   ticket_walk    Promising walk of Example 2's barriered ticket lock, 4 workers
//   sekvm_verify   VerifyKernel on the 12 SeKVM primitive specs
//   litmus_suite   RunLitmusBatch(DefaultLitmusSuite(), 4), several passes
//   fuzz_battery   RunOracleBattery over a fixed swarm corpus, one store per pass
//
// With --trace 0 the run builds its inputs (timed several times: setup_s),
// runs one untimed warm-up iteration, then closed-loop iterations for
// --seconds, and reports the end-to-end metrics. With --trace 1 it replays the
// same inputs with timers around calls into each module's public functions
// (and TracedMachine around the walks) and reports the per-layer metrics.
// Every verdict is checked against a hand-written known answer, and every
// iteration's exact counts must repeat; the last stdout line is the result
// object {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/arch/program_digest.h"
#include "src/engine/engine.h"
#include "src/engine/verify_kernel.h"
#include "src/engine/wdrf_passes.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/oracles.h"
#include "src/fuzz/swarm.h"
#include "src/litmus/batch.h"
#include "src/litmus/paper_examples.h"
#include "src/memo/memo.h"
#include "src/model/explorer.h"
#include "src/model/promising_machine.h"
#include "src/model/sc_machine.h"
#include "src/sekvm/tinyarm_primitives.h"
#include "src/support/rng.h"
#include "src/vrm/conditions.h"
#include "verdict_bench/traced_machine.h"

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VB_UNFIT_BUILD 1
#endif

namespace vrm {
namespace verdict_bench {
namespace {

using Clock = std::chrono::steady_clock;
using Counts = std::map<std::string, uint64_t>;
using Layers = std::map<std::string, double>;

// Every workload's pool and batch size: the host this benchmark targets has
// 4 vCPUs, and all load stays in one process with at most this many threads.
constexpr int kWorkers = 4;
// A run keeps iterating past --seconds until it has this many samples, so the
// tail percentile has ten samples beyond it.
constexpr size_t kMinSamples = 11;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double CpuMsNow() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3 +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e3;
}

// Peak resident memory of this process image, from VmHWM. getrusage's
// ru_maxrss is not used: Linux carries it across execve, so it would report
// the launching interpreter's footprint whenever that was larger.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0;
  }
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Mean of the samples left after dropping the lowest and highest tenth.
// Iteration times of the same work on a shared host are often bimodal (one
// sekvm_verify run: most passes at 440-540 ms, a quarter at 575-655 ms, on
// every CPU). The median of such a mix jumps from one cluster to the other as
// the slow share nears one half, by the whole gap between them; the trimmed
// mean moves with that share smoothly, and one stall does not move it.
double TrimmedMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 10;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// The highest percentile with at least ten samples beyond it: sample n-11 of
// n sorted ones. Fewer than kMinSamples samples fall back to the maximum.
double Tail(std::vector<double> v, double* percentile) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t k = n >= kMinSamples ? n - kMinSamples : n - 1;
  *percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return v[k];
}

// Known-answer bookkeeping: every verdict produced is checked, and any other
// broken invariant (count drift, tracing perturbing a walk) makes the run
// incorrect. Mismatches are reported loudly on stderr.
class Checker {
 public:
  void Verdict(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "VERDICT MISMATCH: %s\n", what.c_str());
    }
  }

  void Require(bool ok, const std::string& what) {
    if (!ok) {
      broken_ = true;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }

  // Exact counts of one input must repeat on every iteration that replays it.
  void SameCounts(const Counts& expected, const Counts& actual, const std::string& what) {
    if (expected == actual) {
      return;
    }
    for (const auto& [name, value] : expected) {
      const auto it = actual.find(name);
      const uint64_t got = it == actual.end() ? 0 : it->second;
      if (got != value) {
        Require(false, what + ": " + name + " was " + std::to_string(value) + ", now " +
                           std::to_string(got));
      }
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return !broken_ && failed_ == 0 && attempted_ > 0; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool broken_ = false;
};

// ---------------------------------------------------------------------------
// Per-layer metric catalogue. A traced run reports every entry; a layer a
// workload does not exercise reads 0 (README.md maps metrics to workloads).

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kLayerMetrics[] = {
    {"model.successors_ms", "ms"},
    {"model.successor_calls", "count"},
    {"model.digest_ms", "ms"},
    {"model.digest_bytes", "bytes"},
    {"model.terminal_ms", "ms"},
    {"explorer.other_ms", "ms"},
    {"explorer.traced_walk_ms", "ms"},
    {"explorer.states", "count"},
    {"explorer.transitions", "count"},
    {"explorer.peak_frontier", "count"},
    {"reduction.states_pruned", "count"},
    {"reduction.ample_hits", "count"},
    {"layout.state_allocs", "count"},
    {"layout.mean_state_bytes", "bytes"},
    {"explorer.worker_busy_ms.w0", "ms"},
    {"explorer.worker_busy_ms.w1", "ms"},
    {"explorer.worker_busy_ms.w2", "ms"},
    {"explorer.worker_busy_ms.w3", "ms"},
    {"explorer.busy_share", "ratio"},
    {"explorer.steals", "count"},
    {"explorer.walk_1w_ms", "ms"},
    {"explorer.walk_4w_ms", "ms"},
    {"explorer.speedup_4w", "x"},
    {"engine.fused_ms", "ms"},
    {"engine.rm_walk_ms", "ms"},
    {"engine.sc_walk_ms", "ms"},
    {"engine.overlap_saved_ms", "ms"},
    {"engine.pass_overhead_ms", "ms"},
    {"engine.rm_states", "count"},
    {"engine.sc_states", "count"},
    {"engine.bounded_verdicts", "count"},
    {"vrm.txn_pt_ms", "ms"},
    {"memo.hit_rate", "ratio"},
    {"memo.requests", "count"},
    {"memo.hit_us", "us"},
    {"memo.store_bytes", "bytes"},
    {"memo.evictions", "count"},
    {"arch.program_digest_us", "us"},
    {"litmus.pass_ms", "ms"},
    {"litmus.pass_1w_ms", "ms"},
    {"litmus.serial_work_ms", "ms"},
    {"litmus.longest_task_ms", "ms"},
    {"litmus.scheduler_efficiency", "ratio"},
    {"fuzz.generate_ms", "ms"},
    {"fuzz.battery_ms", "ms"},
    {"fuzz.oracle.model-strength-order_ms", "ms"},
    {"fuzz.oracle.reduction-invariance_ms", "ms"},
    {"fuzz.oracle.parallel-determinism_ms", "ms"},
    {"fuzz.oracle.fused-engine_ms", "ms"},
    {"fuzz.oracle.walk-containment_ms", "ms"},
    {"fuzz.states_explored", "count"},
    {"fuzz.coverage_signatures", "count"},
    {"fuzz.skipped_truncated", "count"},
    {"fuzz.failures", "count"},
    {"trace.overhead_share", "ratio"},
};

// Appends per-round values; Finish() turns each series into its median.
class Series {
 public:
  void Add(const std::string& name, double value) { values_[name].push_back(value); }
  void Finish(Layers* layers) const {
    for (const auto& [name, values] : values_) {
      (*layers)[name] = Median(values);
    }
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

Counts WalkCounts(const ExploreResult& result) {
  return {{"states", result.stats.states},
          {"transitions", result.stats.transitions},
          {"outcomes", result.outcomes.size()},
          {"digest_bytes", result.stats.digest_bytes}};
}

// Tracing must not perturb the walk: identical counts and outcome renders.
void SameWalk(const ExploreResult& plain, const ExploreResult& traced,
              const std::string& what, Checker* checker) {
  checker->Require(plain.stats.states == traced.stats.states &&
                       plain.stats.transitions == traced.stats.transitions &&
                       fuzz::RenderOutcomeKeys(plain) == fuzz::RenderOutcomeKeys(traced),
                   what + ": traced walk differs from the untraced one");
}

// Exact explorer counters of a set of walks, summed.
void AddWalkStats(const ExploreStats& stats, Layers* layers) {
  (*layers)["explorer.states"] += static_cast<double>(stats.states);
  (*layers)["explorer.transitions"] += static_cast<double>(stats.transitions);
  (*layers)["explorer.peak_frontier"] =
      std::max((*layers)["explorer.peak_frontier"], static_cast<double>(stats.peak_frontier));
  (*layers)["reduction.states_pruned"] += static_cast<double>(stats.states_pruned);
  (*layers)["reduction.ample_hits"] += static_cast<double>(stats.ample_hits);
  (*layers)["layout.state_allocs"] += static_cast<double>(stats.state_allocs);
  (*layers)["model.digest_bytes"] += static_cast<double>(stats.digest_bytes);
  // Mean over the summed samples: accumulate bytes and samples, divide later.
  (*layers)["layout.state_bytes_sum"] += static_cast<double>(stats.state_bytes);
  (*layers)["layout.state_samples_sum"] += static_cast<double>(stats.state_samples);
}

void FinishWalkStats(Layers* layers) {
  const double samples = (*layers)["layout.state_samples_sum"];
  (*layers)["layout.mean_state_bytes"] =
      samples > 0 ? (*layers)["layout.state_bytes_sum"] / samples : 0;
  layers->erase("layout.state_bytes_sum");
  layers->erase("layout.state_samples_sum");
}

// Per-layer split of traced walk time (summed machine-call times `total`
// against the walks' wall time), as series entries.
void AddSplit(const TraceSlot& total, double wall_ms, Series* series) {
  series->Add("model.successors_ms", NsToMs(total.ns[kSuccessors]));
  series->Add("model.successor_calls", static_cast<double>(total.calls[kSuccessors]));
  series->Add("model.digest_ms", NsToMs(total.ns[kDigest]));
  series->Add("model.terminal_ms", NsToMs(total.ns[kTerminal] + total.ns[kMisc]));
  series->Add("explorer.other_ms", wall_ms - NsToMs(total.BusyNs()));
  series->Add("explorer.traced_walk_ms", wall_ms);
}

// Mean microseconds per ProgramDigest over `programs`, median of 9 sweeps.
double ProgramDigestUs(const std::vector<const Program*>& programs) {
  std::vector<double> per_call;
  for (int sweep = 0; sweep < 9; ++sweep) {
    const auto start = Clock::now();
    for (int rep = 0; rep < 20; ++rep) {
      for (const Program* program : programs) {
        ProgramDigest(*program);
      }
    }
    per_call.push_back(MsSince(start) * 1e3 / (20.0 * static_cast<double>(programs.size())));
  }
  return Median(per_call);
}

// One walk of `machine`, timed into *ms. Callers pass a freshly built machine
// (cold certification caches), plain or wrapped in TracedMachine.
template <typename Machine>
ExploreResult TimedWalk(Machine machine, const ModelConfig& config, double* ms) {
  const auto start = Clock::now();
  ExploreResult result = Explore(machine, config);
  *ms = MsSince(start);
  return result;
}

// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Below(i)]);
  }
}

// A memo request served warm from `store`, in microseconds: the first request
// stores the walk if no earlier one did, the second is timed. 0 when the walk
// is not admitted (bounded walks never are).
double WarmRequestUs(const Program& program, const ModelConfig& config,
                     memo::MachineKind kind, memo::MemoStore* store) {
  memo::ExploreRequest request;
  request.program = &program;
  request.config = config;
  request.machine = kind;
  request.store = store;
  memo::ExploreMemoized(request);
  const auto start = Clock::now();
  const ExploreResult hit = memo::ExploreMemoized(request);
  const double us = MsSince(start) * 1e3;
  return hit.stats.memo_hits == 1 ? us : 0;
}

// Moves the calling thread to the `rotation`-th CPU it may run on, then lifts
// the restriction again, so threads it spawns later may use every CPU. The
// scheduler leaves a running thread where it is, so a single-threaded
// workload would otherwise spend a whole run on one CPU; on a shared host each
// CPU's speed drifts on its own by tens of percent, and starting every
// iteration on the next CPU in turn makes each run sample all of them evenly.
void StartOnCpu(int rotation) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      cpus.push_back(c);
    }
  }
  if (cpus.size() < 2) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[rotation % cpus.size()], &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
  }
}

// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds every input from the seed. Idempotent: timed several times.
  virtual void Setup(uint64_t seed) = 0;
  // One timed iteration; returns its exact counts. Every iteration does the
  // same work, so the counts must repeat.
  virtual Counts Iterate(Checker* checker) = 0;
  // The traced replay: fills every per-layer metric this workload exercises.
  virtual void Trace(double seconds, Checker* checker, Layers* layers) = 0;
};

// ------------------------------------------------------------- ticket_walk --

class TicketWalk : public Workload {
 public:
  void Setup(uint64_t seed) override {
    // One fixed program: the seed selects nothing (the meta line records it).
    (void)seed;
    test_ = Example2VmBooting(/*fixed=*/true);
    config_ = test_.config;
    config_.reduction = Reduction::kPor;
    config_.num_threads = kWorkers;
  }

  Counts Iterate(Checker* checker) override {
    // A fresh machine per walk: its certification caches start cold.
    PromisingMachine machine(test_.program, config_);
    const ExploreResult result = Explore(machine, config_);
    CheckNoDuplicateVmid(result, checker);
    return WalkCounts(result);
  }

  void Trace(double seconds, Checker* checker, Layers* layers) override {
    ModelConfig one = config_;
    one.num_threads = 1;
    TraceLedger ledger;
    Series s1, s4;
    std::vector<double> plain1, traced1, plain4, traced4;
    const auto start = Clock::now();
    ExploreResult reference;
    for (int round = 0; round < 3 || MsSince(start) < seconds * 1e3; ++round) {
      double ms = 0;
      const ExploreResult p1 = TimedWalk(PromisingMachine(test_.program, one), one, &ms);
      plain1.push_back(ms);
      ledger.Reset();
      const ExploreResult t1 =
          TimedWalk(TracedMachine<PromisingMachine>(&ledger, test_.program, one), one, &ms);
      traced1.push_back(ms);
      AddSplit(ledger.Total(), ms, &s1);
      SameWalk(p1, t1, "ticket_walk at 1 worker", checker);

      const ExploreResult p4 = TimedWalk(PromisingMachine(test_.program, config_), config_, &ms);
      plain4.push_back(ms);
      ledger.Reset();
      const ExploreResult t4 = TimedWalk(
          TracedMachine<PromisingMachine>(&ledger, test_.program, config_), config_, &ms);
      traced4.push_back(ms);
      SameWalk(p4, t4, "ticket_walk at 4 workers", checker);
      SameWalk(p1, p4, "ticket_walk 1 vs 4 workers", checker);
      // Slot 0 is the caller's machine; workers own slots 1..4.
      checker->Require(ledger.claimed() == kWorkers + 1, "ticket_walk: one slot per worker");
      double busy = 0;
      for (int w = 0; w < kWorkers; ++w) {
        const double ms = NsToMs(ledger.slot(1 + w).BusyNs());
        s4.Add("explorer.worker_busy_ms.w" + std::to_string(w), ms);
        busy += ms;
      }
      s4.Add("explorer.busy_share", busy / (kWorkers * traced4.back()));
      s4.Add("explorer.steals", static_cast<double>(t4.stats.steals));
      for (const ExploreResult* r : {&p1, &t1, &p4, &t4}) {
        CheckNoDuplicateVmid(*r, checker);
      }
      if (round == 0) {
        reference = p1;
      }
    }
    s1.Finish(layers);
    s4.Finish(layers);
    AddWalkStats(reference.stats, layers);
    FinishWalkStats(layers);
    (*layers)["explorer.walk_1w_ms"] = Median(plain1);
    (*layers)["explorer.walk_4w_ms"] = Median(plain4);
    (*layers)["explorer.speedup_4w"] = Median(plain1) / Median(plain4);
    (*layers)["trace.overhead_share"] = Median(traced4) / Median(plain4) - 1;
  }

 private:
  // Example 2's fixed-lock claim: the two CPUs never get the same VMID.
  static void CheckNoDuplicateVmid(const ExploreResult& result, Checker* checker) {
    bool unique = !result.outcomes.empty();
    for (const Outcome& outcome : result.outcomes.Items()) {
      unique &= outcome.regs[0] != outcome.regs[1];
    }
    checker->Verdict(unique, "ticket_walk: an outcome hands both CPUs the same VMID");
  }

  LitmusTest test_;
  ModelConfig config_;
};

// ------------------------------------------------------------ sekvm_verify --

enum class Expect { kAny, kHolds, kViolated, kUnchecked };

// Known answers, transcribed from tests/vrm/conditions_test.cc,
// tests/vrm/refinement_test.cc, tests/vrm/seqlock_test.cc,
// tests/model/exclusives_test.cc and examples/sekvm_boot.cpp. kAny marks a
// verdict no hand-written expectation covers (it is not counted).
struct KernelCase {
  std::string name;
  KernelSpec spec;
  Expect refines;
  Expect drf;
  Expect barrier;
  Expect write_once;
  Expect tlbi;
  Expect txn_pt;
};

std::vector<KernelCase> KernelCases() {
  const Expect A = Expect::kAny, H = Expect::kHolds, V = Expect::kViolated,
               U = Expect::kUnchecked;
  std::vector<KernelCase> cases;
  // Columns after the spec: refinement, DRF-KERNEL, NO-BARRIER-MISUSE,
  // WRITE-ONCE-KERNEL-MAPPING, SEQUENTIAL-TLB-INVALIDATION, TRANSACTIONAL-PT.
  cases.push_back({"gen_vmid", GenVmidKernelSpec(true), H, H, H, U, U, A});
  cases.push_back({"gen_vmid_buggy", GenVmidKernelSpec(false), V, H, V, U, U, A});
  cases.push_back({"gen_vmid_llsc", GenVmidLlscKernelSpec(true), A, H, H, A, A, A});
  cases.push_back({"gen_vmid_llsc_buggy", GenVmidLlscKernelSpec(false), A, A, V, A, A, A});
  cases.push_back({"vcpu_context", VcpuContextKernelSpec(true), H, H, H, U, U, A});
  cases.push_back({"vcpu_context_buggy", VcpuContextKernelSpec(false), V, H, V, U, U, A});
  // clear_s2pt races a VM's MMU walk by design: its refinement verdict is
  // informational; the wDRF conditions are the check.
  cases.push_back({"clear_s2pt", ClearS2ptKernelSpec(true), A, U, U, U, H, H});
  cases.push_back({"clear_s2pt_buggy", ClearS2ptKernelSpec(false), A, U, U, U, V, A});
  cases.push_back({"remap_pfn", RemapPfnKernelSpec(true), H, U, U, H, U, A});
  cases.push_back({"remap_pfn_buggy", RemapPfnKernelSpec(false), A, U, U, V, U, A});
  cases.push_back({"seqlock", SeqlockKernelSpec(true), A, V, A, A, A, A});
  cases.push_back({"seqlock_buggy", SeqlockKernelSpec(false), A, V, A, A, A, A});
  return cases;
}

void CheckExpect(Expect expect, bool checked, bool holds, const std::string& what,
                 Checker* checker) {
  switch (expect) {
    case Expect::kAny:
      return;
    case Expect::kHolds:
      checker->Verdict(checked && holds, what + " should hold");
      return;
    case Expect::kViolated:
      checker->Verdict(checked && !holds, what + " should be violated");
      return;
    case Expect::kUnchecked:
      checker->Verdict(!checked, what + " should be unchecked");
      return;
  }
}

void CheckKernel(const KernelCase& c, const KernelVerification& v, Checker* checker) {
  CheckExpect(c.refines, true, v.refinement.status.holds, c.name + " refinement", checker);
  const auto condition = [&](Expect expect, WdrfCondition id) {
    const ConditionVerdict& verdict = v.wdrf.Verdict(id);
    CheckExpect(expect, verdict.checked, verdict.status.holds,
                c.name + " " + ConditionName(id), checker);
  };
  condition(c.drf, WdrfCondition::kDrfKernel);
  condition(c.barrier, WdrfCondition::kNoBarrierMisuse);
  condition(c.write_once, WdrfCondition::kWriteOnceKernelMapping);
  condition(c.tlbi, WdrfCondition::kSequentialTlbInvalidation);
  condition(c.txn_pt, WdrfCondition::kTransactionalPageTable);
}

uint64_t BoundedVerdicts(const KernelVerification& v) {
  uint64_t bounded = v.refinement.status.holds && v.refinement.status.truncated ? 1 : 0;
  for (const ConditionVerdict& verdict : v.wdrf.verdicts) {
    bounded += verdict.checked && verdict.status.holds && verdict.status.truncated ? 1 : 0;
  }
  return bounded;
}

class SekvmVerify : public Workload {
 public:
  void Setup(uint64_t seed) override {
    cases_ = KernelCases();
    // The seed fixes the order the specs are verified in.
    Rng rng(seed);
    Shuffle(&cases_, &rng);
  }

  Counts Iterate(Checker* checker) override {
    // Cold start: the SC walks would otherwise be memo hits from pass 2 on.
    memo::MemoStore::Global().Clear();
    Counts counts;
    for (const KernelCase& c : cases_) {
      const KernelVerification v = VerifyKernel(c.spec);
      CheckKernel(c, v, checker);
      counts["rm_states"] += v.refinement.rm.stats.states;
      counts["rm_transitions"] += v.refinement.rm.stats.transitions;
      counts["rm_outcomes"] += v.refinement.rm.outcomes.size();
      counts["sc_states"] += v.refinement.sc.stats.states;
      counts["sc_outcomes"] += v.refinement.sc.outcomes.size();
      counts["digest_bytes"] += v.refinement.rm.stats.digest_bytes;
      counts["bounded_verdicts"] += BoundedVerdicts(v);
    }
    return counts;
  }

  void Trace(double seconds, Checker* checker, Layers* layers) override {
    TraceLedger ledger;
    Series series;
    std::vector<double> armed_traced, armed_plain;
    const auto start = Clock::now();
    for (int round = 0; round < 3 || MsSince(start) < seconds * 1e3; ++round) {
      double fused_ms = 0, rm_ms = 0, plain_ms = 0, unarmed_ms = 0, sc_ms = 0, txn_ms = 0;
      double hits = 0, requests = 0;
      TraceSlot pass_total;
      std::vector<double> hit_us;
      for (const KernelCase& c : cases_) {
        const ModelConfig config = WdrfModelConfig(c.spec);

        memo::MemoStore::Global().Clear();
        auto t = Clock::now();
        const KernelVerification v = VerifyKernel(c.spec);
        fused_ms += MsSince(t);
        CheckKernel(c, v, checker);
        hits += static_cast<double>(v.refinement.sc.stats.memo_hits);
        requests += static_cast<double>(v.refinement.sc.stats.memo_hits +
                                        v.refinement.sc.stats.memo_misses);
        hit_us.push_back(WarmRequestUs(c.spec.program, config, memo::MachineKind::kSc,
                                       &memo::MemoStore::Global()));

        // The untraced armed walk first, so the traced one never runs colder.
        ExploreResult plain;
        {
          PromisingMachine machine(c.spec.program, config);
          WdrfPassSet passes(c.spec);
          t = Clock::now();
          plain = RunEnginePasses(machine, config, passes.passes());
          plain_ms += MsSince(t);
        }
        ledger.Reset();
        {
          TracedMachine<PromisingMachine> machine(&ledger, c.spec.program, config);
          WdrfPassSet passes(c.spec);
          t = Clock::now();
          const ExploreResult rm = RunEnginePasses(machine, config, passes.passes());
          rm_ms += MsSince(t);
          SameWalk(plain, rm, c.name + " armed RM walk", checker);
          SameWalk(v.refinement.rm, rm, c.name + " armed RM walk", checker);
        }
        pass_total.Add(ledger.Total());

        double ms = 0;
        ledger.Reset();
        TimedWalk(TracedMachine<PromisingMachine>(&ledger, c.spec.program, config), config, &ms);
        unarmed_ms += ms;
        ledger.Reset();
        const ExploreResult sc =
            TimedWalk(TracedMachine<ScMachine>(&ledger, c.spec.program, config), config, &ms);
        sc_ms += ms;
        SameWalk(v.refinement.sc, sc, c.name + " SC walk", checker);

        t = Clock::now();
        const ConditionVerdict txn = CheckTxnPt(c.spec);
        txn_ms += MsSince(t);
        checker->Require(
            txn.checked == v.wdrf.Verdict(WdrfCondition::kTransactionalPageTable).checked &&
                txn.status.holds ==
                    v.wdrf.Verdict(WdrfCondition::kTransactionalPageTable).status.holds,
            c.name + ": standalone txn-PT verdict differs from the fused one");

        if (round == 0) {
          AddWalkStats(v.refinement.rm.stats, layers);
          (*layers)["engine.rm_states"] += static_cast<double>(v.refinement.rm.stats.states);
          (*layers)["engine.sc_states"] += static_cast<double>(v.refinement.sc.stats.states);
          (*layers)["engine.bounded_verdicts"] += static_cast<double>(BoundedVerdicts(v));
        }
      }
      AddSplit(pass_total, rm_ms, &series);
      series.Add("engine.fused_ms", fused_ms);
      series.Add("engine.rm_walk_ms", rm_ms);
      series.Add("engine.sc_walk_ms", sc_ms);
      series.Add("engine.overlap_saved_ms", rm_ms + sc_ms - fused_ms);
      series.Add("engine.pass_overhead_ms", rm_ms - unarmed_ms);
      series.Add("vrm.txn_pt_ms", txn_ms);
      series.Add("memo.hit_rate", requests > 0 ? hits / requests : 0);
      series.Add("memo.requests", requests);
      series.Add("memo.hit_us", Median(hit_us));
      series.Add("memo.store_bytes", static_cast<double>(memo::MemoStore::Global().bytes()));
      series.Add("memo.evictions", static_cast<double>(memo::MemoStore::Global().evictions()));
      armed_traced.push_back(rm_ms);
      armed_plain.push_back(plain_ms);
    }
    series.Finish(layers);
    FinishWalkStats(layers);
    std::vector<const Program*> programs;
    for (const KernelCase& c : cases_) {
      programs.push_back(&c.spec.program);
    }
    (*layers)["arch.program_digest_us"] = ProgramDigestUs(programs);
    (*layers)["trace.overhead_share"] = Median(armed_traced) / Median(armed_plain) - 1;
  }

 private:
  std::vector<KernelCase> cases_;
};

// ------------------------------------------------------------ litmus_suite --

// Passes of the whole suite per timed iteration: one pass is about 10 ms, too
// short to time alone against scheduler noise on a shared host.
constexpr int kLitmusPassesPerIteration = 64;

// Known answers on Arm: does the test's RM outcome set refine SC?
bool LitmusRefinesSc(const std::string& name, bool* known) {
  static const std::set<std::string> kRefines = {
      "SB+dmb",    "SB+rel+acq", "MP+dmb+addr",  "MP+dmb+acqrel", "LB+data",       "CoRR",
      "CoWW",      "2+2W+dmb",   "WRC+dmb+addr", "IRIW+dmb",      "example1-fixed"};
  static const std::set<std::string> kBreaks = {
      "SB+plain", "MP+plain+plain", "LB+plain", "2+2W+plain", "S+plain",  "IRIW+plain",
      "example1", "example3",       "example4", "example5",   "example6", "example7"};
  *known = kRefines.count(name) + kBreaks.count(name) == 1;
  return kRefines.count(name) == 1;
}

class LitmusSuite : public Workload {
 public:
  void Setup(uint64_t seed) override {
    // One fixed suite: the seed selects nothing (the meta line records it).
    // Shuffling the suite would reorder the scheduler's cost ties, and one
    // order ran 18% slower than another, every time.
    (void)seed;
    suite_ = DefaultLitmusSuite();
  }

  Counts Iterate(Checker* checker) override {
    Counts counts;
    for (int pass = 0; pass < kLitmusPassesPerIteration; ++pass) {
      const Counts c = Pass(kWorkers, checker);
      if (pass == 0) {
        counts = c;
      } else {
        checker->SameCounts(counts, c, "litmus_suite pass");
      }
    }
    return counts;
  }

  void Trace(double seconds, Checker* checker, Layers* layers) override {
    TraceLedger ledger;
    Series series;
    std::vector<double> plain_serial, traced_serial, pass_ms;
    const auto start = Clock::now();
    for (int round = 0; round < 3 || MsSince(start) < seconds * 1e3; ++round) {
      auto t = Clock::now();
      const Counts counts = Pass(kWorkers, checker);
      pass_ms.push_back(MsSince(t));
      const double hits = static_cast<double>(counts.at("memo_hits"));
      const double requests = hits + static_cast<double>(counts.at("memo_misses"));
      series.Add("memo.requests", requests);
      series.Add("memo.hit_rate", hits / requests);
      t = Clock::now();
      Pass(1, checker);
      series.Add("litmus.pass_1w_ms", MsSince(t));
      series.Add("memo.store_bytes", static_cast<double>(memo::MemoStore::Global().bytes()));
      series.Add("memo.evictions", static_cast<double>(memo::MemoStore::Global().evictions()));

      // Every (test, model) task alone, on a fresh machine, sequentially.
      double serial = 0, longest = 0, traced_total = 0;
      TraceSlot sum;
      std::vector<double> hit_us;
      for (const LitmusTest& test : suite_) {
        ModelConfig config = test.config;
        config.num_threads = 1;
        for (memo::MachineKind kind : {memo::MachineKind::kSc, memo::MachineKind::kPromising}) {
          ExploreResult plain, traced;
          double ms = 0, traced_ms = 0;
          ledger.Reset();
          if (kind == memo::MachineKind::kSc) {
            plain = TimedWalk(ScMachine(test.program, config), config, &ms);
            traced = TimedWalk(TracedMachine<ScMachine>(&ledger, test.program, config), config,
                               &traced_ms);
          } else {
            plain = TimedWalk(PromisingMachine(test.program, config), config, &ms);
            traced = TimedWalk(TracedMachine<PromisingMachine>(&ledger, test.program, config),
                               config, &traced_ms);
          }
          SameWalk(plain, traced, test.program.name, checker);
          serial += ms;
          longest = std::max(longest, ms);
          traced_total += traced_ms;
          sum.Add(ledger.Total());
          if (round == 0) {
            AddWalkStats(plain.stats, layers);
          }
          hit_us.push_back(WarmRequestUs(test.program, config, kind, &memo::MemoStore::Global()));
        }
      }
      AddSplit(sum, traced_total, &series);
      series.Add("litmus.serial_work_ms", serial);
      series.Add("litmus.longest_task_ms", longest);
      series.Add("memo.hit_us", Median(hit_us));
      plain_serial.push_back(serial);
      traced_serial.push_back(traced_total);
    }
    series.Finish(layers);
    FinishWalkStats(layers);
    (*layers)["litmus.pass_ms"] = Median(pass_ms);
    (*layers)["litmus.scheduler_efficiency"] =
        Median(plain_serial) / (kWorkers * Median(pass_ms));
    std::vector<const Program*> programs;
    for (const LitmusTest& test : suite_) {
      programs.push_back(&test.program);
    }
    (*layers)["arch.program_digest_us"] = ProgramDigestUs(programs);
    (*layers)["trace.overhead_share"] = Median(traced_serial) / Median(plain_serial) - 1;
  }

 private:
  Counts Pass(int workers, Checker* checker) {
    // Cold start: every walk would otherwise be a memo hit from pass 2 on.
    memo::MemoStore::Global().Clear();
    const BatchResult batch = RunLitmusBatch(suite_, workers);
    Counts counts;
    for (const BatchEntry& entry : batch.entries) {
      bool known = false;
      const bool refines = LitmusRefinesSc(entry.test.program.name, &known);
      checker->Require(known, "litmus_suite: no known answer for " + entry.test.program.name);
      checker->Verdict(entry.status.holds == refines,
                       entry.test.program.name + (refines ? " should refine SC"
                                                          : " should not refine SC"));
      for (const ExploreResult* r : {&entry.sc, &entry.rm}) {
        counts["states"] += r->stats.states;
        counts["transitions"] += r->stats.transitions;
        counts["outcomes"] += r->outcomes.size();
        counts["digest_bytes"] += r->stats.digest_bytes;
        counts["memo_hits"] += r->stats.memo_hits;
        counts["memo_misses"] += r->stats.memo_misses;
      }
      counts["refines"] += entry.status.holds ? 1 : 0;
    }
    return counts;
  }

  std::vector<LitmusTest> suite_;
};

// ------------------------------------------------------------ fuzz_battery --

// The corpus: kFuzzPrograms swarm programs, cycling through
// DefaultSwarmPopulation() so every config is equally represented. An
// iteration runs the whole corpus through the battery with a fresh store, so
// every iteration does the same work and its time varies only with the host.
// Program cost is heavy-tailed (a few swarm programs explode to the
// 200k-state cap and take seconds), so generation skips programs whose static
// interleaving estimate exceeds kFuzzMaxEstimate.
constexpr size_t kFuzzPrograms = 48;
constexpr uint64_t kFuzzMaxEstimate = 12;
// The corpus is the same for every run seed (the fixed-seed fuzz smoke), so
// every run times the same work: program content swung the iteration time by
// ±7% from corpus seed to corpus seed. The run seed orders the programs.
constexpr uint64_t kFuzzCorpusSeed = 1;
constexpr size_t kFuzzStoreBytes = 64ull << 20;  // RunFuzz's default

constexpr fuzz::OracleId kOracles[] = {
    fuzz::OracleId::kModelStrengthOrder, fuzz::OracleId::kReductionInvariance,
    fuzz::OracleId::kParallelDeterminism, fuzz::OracleId::kFusedEngine,
    fuzz::OracleId::kWalkContainment};

class FuzzBattery : public Workload {
 public:
  void Setup(uint64_t seed) override {
    population_ = fuzz::DefaultSwarmPopulation();
    program_seeds_.clear();
    corpus_.clear();
    order_.clear();
    Rng rng(kFuzzCorpusSeed);
    for (size_t i = 0; i < kFuzzPrograms; ++i) {
      const fuzz::SwarmConfig& swarm = population_[i % population_.size()];
      for (int attempt = 0;; ++attempt) {
        VRM_CHECK_MSG(attempt < 10000, "fuzz_battery: no small program for a swarm config");
        const uint64_t program_seed = rng.Next();
        LitmusTest test = fuzz::GenerateProgram(program_seed, swarm);
        if (EstimatedInterleavings(test.program, test.config) <= kFuzzMaxEstimate) {
          program_seeds_.push_back(program_seed);
          corpus_.push_back(std::move(test));
          break;
        }
      }
      order_.push_back(i);
    }
    Rng order(seed);
    Shuffle(&order_, &order);
  }

  Counts Iterate(Checker* checker) override { return Battery(TimedOptions(), checker, nullptr); }

  void Trace(double seconds, Checker* checker, Layers* layers) override {
    Series series;
    const auto start = Clock::now();
    for (int round = 0; round < 3 || MsSince(start) < seconds * 1e3; ++round) {
      auto t = Clock::now();
      for (size_t i : order_) {
        const LitmusTest test =
            fuzz::GenerateProgram(program_seeds_[i], population_[i % population_.size()]);
        checker->Require(ProgramDigest(test.program) == ProgramDigest(corpus_[i].program),
                         "fuzz_battery: regenerated program differs");
      }
      series.Add("fuzz.generate_ms", MsSince(t));

      // The corpus as an iteration runs it, then again with every battery call
      // timed: the warm memo probes the timed pass adds must not change counts.
      const Counts plain = Battery(TimedOptions(), checker, nullptr);
      BatteryStats stats;
      const Counts counts = Battery(TimedOptions(), checker, &stats);
      checker->SameCounts(plain, counts, "fuzz_battery timed pass");
      series.Add("fuzz.battery_ms", stats.battery_ms);
      series.Add("memo.hit_rate", stats.requests > 0 ? stats.hits / stats.requests : 0);
      series.Add("memo.requests", stats.requests);
      series.Add("memo.store_bytes", stats.store_bytes);
      series.Add("memo.evictions", stats.evictions);
      series.Add("memo.hit_us", stats.hit_us);
      if (round == 0) {
        (*layers)["fuzz.states_explored"] = static_cast<double>(counts.at("states"));
        (*layers)["fuzz.coverage_signatures"] = static_cast<double>(counts.at("coverage"));
        (*layers)["fuzz.skipped_truncated"] = static_cast<double>(counts.at("skipped"));
        (*layers)["fuzz.failures"] = static_cast<double>(counts.at("failures"));
      }

      for (fuzz::OracleId id : kOracles) {
        fuzz::OracleOptions single;
        single.mask = 1u << static_cast<uint32_t>(id);
        t = Clock::now();
        Battery(single, checker, nullptr);
        series.Add(std::string("fuzz.oracle.") + fuzz::OracleName(id) + "_ms", MsSince(t));
      }
    }
    series.Finish(layers);
    std::vector<const Program*> programs;
    for (const LitmusTest& test : corpus_) {
      programs.push_back(&test.program);
    }
    (*layers)["arch.program_digest_us"] = ProgramDigestUs(programs);
    // No walk here runs through TracedMachine, so there is no tracing overhead
    // to report: trace.overhead_share stays 0, like any layer not exercised.
  }

 private:
  // The timed battery: every oracle but parallel determinism. That oracle
  // walks each small program again at 2 and 4 workers, and such walks are
  // mostly thread start-up and hand-off: with four nice-19 busy loops beside
  // the run, the full battery took 830 ms instead of 412, the battery
  // without it 385 instead of 319, and sekvm_verify did not move. So it times
  // how soon the host wakes a CPU. ticket_walk covers the parallel engine; the
  // traced run still times this oracle alone (fuzz.oracle.parallel-determinism_ms).
  static fuzz::OracleOptions TimedOptions() {
    fuzz::OracleOptions options;
    options.mask &= ~(1u << static_cast<uint32_t>(fuzz::OracleId::kParallelDeterminism));
    return options;
  }

  struct BatteryStats {
    double battery_ms = 0;
    double hits = 0;
    double requests = 0;
    double store_bytes = 0;
    double evictions = 0;
    double hit_us = 0;
  };

  // The corpus through the battery with `options` (mask), a fresh campaign
  // store, and a cleared global store (the fused-engine oracle's VerifyKernel
  // requests its SC walk there). `stats` non-null times each battery call.
  Counts Battery(fuzz::OracleOptions options, Checker* checker, BatteryStats* stats) {
    memo::MemoStore::Global().Clear();
    memo::MemoStore store(kFuzzStoreBytes);
    options.memo = &store;
    Counts counts = {{"states", 0},  {"memo_hits", 0}, {"memo_misses", 0},
                     {"coverage", 0}, {"skipped", 0},   {"failures", 0}};
    std::set<uint64_t> signatures;
    std::vector<double> hit_us;
    for (size_t i : order_) {
      // RunFuzz cycles the fused-engine monitor variant with the program index.
      options.monitor_variant = static_cast<int>(i % 4);
      const auto start = Clock::now();
      const fuzz::BatteryResult battery = fuzz::RunOracleBattery(corpus_[i], options);
      if (stats != nullptr) {
        stats->battery_ms += MsSince(start);
        hit_us.push_back(WarmRequestUs(corpus_[i].program, corpus_[i].config,
                                       memo::MachineKind::kSc, &store));
      }
      counts["states"] += battery.states_explored;
      counts["memo_hits"] += battery.memo_hits;
      counts["memo_misses"] += battery.memo_misses;
      if (!battery.complete) {
        ++counts["skipped"];
        continue;
      }
      signatures.insert(fuzz::CoverageSignature(battery.coverage));
      counts["failures"] += battery.failures.size();
      checker->Verdict(battery.failures.empty(),
                       "fuzz_battery: oracle disagreement on program " + std::to_string(i) +
                           (battery.failures.empty()
                                ? std::string()
                                : std::string(" (") +
                                      fuzz::OracleName(battery.failures.front().oracle) + ")"));
    }
    counts["coverage"] = signatures.size();
    if (stats != nullptr) {
      stats->hits = static_cast<double>(counts["memo_hits"]);
      stats->requests = static_cast<double>(counts["memo_hits"] + counts["memo_misses"]);
      stats->store_bytes = static_cast<double>(store.bytes());
      stats->evictions = static_cast<double>(store.evictions());
      stats->hit_us = Median(hit_us);
    }
    return counts;
  }

  std::vector<fuzz::SwarmConfig> population_;
  std::vector<uint64_t> program_seeds_;
  std::vector<LitmusTest> corpus_;
  // Corpus indices in the order every pass runs them.
  std::vector<size_t> order_;
};

// ------------------------------------------------------------------- main --

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 && args->trace >= 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "ticket_walk") return std::make_unique<TicketWalk>();
  if (name == "sekvm_verify") return std::make_unique<SekvmVerify>();
  if (name == "litmus_suite") return std::make_unique<LitmusSuite>();
  if (name == "fuzz_battery") return std::make_unique<FuzzBattery>();
  return nullptr;
}

// {stolen, total} CPU jiffies since boot, summed over CPUs, from /proc/stat:
// time the hypervisor ran something else while this VM wanted a CPU. {0, 0}
// when unreadable.
std::pair<double, double> StealJiffies() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) {
    return {0, 0};
  }
  double fields[8] = {};
  const int read = std::fscanf(stat, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &fields[0],
                               &fields[1], &fields[2], &fields[3], &fields[4], &fields[5],
                               &fields[6], &fields[7]);
  std::fclose(stat);
  if (read != 8) {
    return {0, 0};
  }
  double total = 0;
  for (double f : fields) {
    total += f;
  }
  return {fields[7], total};
}

std::string LoadAvg() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) {
    return "null";
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[%.2f, %.2f, %.2f]", load[0], load[1], load[2]);
  return buf;
}

std::string JsonCounts(const Counts& counts) {
  std::string out = "{";
  for (const auto& [name, value] : counts) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + std::to_string(value);
  }
  return out + "}";
}

void AppendMetric(std::string* out, const std::string& name, double value, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out->empty() ? "" : ", ", name.c_str(), std::isfinite(value) ? value : 0.0,
                unit);
  *out += buf;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: verdict_bench --workload <ticket_walk|sekvm_verify|litmus_suite|"
                 "fuzz_battery> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
#ifdef VB_UNFIT_BUILD
  std::fprintf(stderr, "verdict_bench refuses to time an unoptimized or sanitized build\n");
  return 2;
#endif
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string load_before = LoadAvg();
  const auto [steal_before, jiffies_before] = StealJiffies();
  Checker checker;
  std::string metrics;
  std::string meta;

  workload->Setup(args.seed);
  if (args.trace == 1) {
    Layers layers;
    workload->Trace(args.seconds, &checker, &layers);
    for (const MetricDef& def : kLayerMetrics) {
      const auto it = layers.find(def.name);
      AppendMetric(&metrics, def.name, it == layers.end() ? 0 : it->second, def.unit);
    }
  } else {
    // Set-up time: the inputs are rebuilt before every timed iteration, outside
    // its timing, in batches of at least a millisecond so clock granularity
    // does not dominate; setup_s is the median time per build. Sampling across
    // the whole run keeps one noisy moment on a shared host from setting it.
    const auto timed_setups = [&](int batch) {
      const auto start = Clock::now();
      for (int b = 0; b < batch; ++b) {
        workload->Setup(args.seed);
      }
      return MsSince(start);
    };
    int batch = 1;
    while (batch < (1 << 20) && timed_setups(batch) < 1.0) {
      batch *= 2;
    }
    std::vector<double> setup_s;

    // Warm-up iteration: untimed, but its verdicts and counts are checked.
    const Counts reference = workload->Iterate(&checker);
    std::vector<double> wall_ms, cpu_ms;
    const auto start = Clock::now();
    for (int i = 0; MsSince(start) < args.seconds * 1e3 || wall_ms.size() < kMinSamples; ++i) {
      StartOnCpu(i);
      setup_s.push_back(timed_setups(batch) / 1e3 / batch);
      const double cpu0 = CpuMsNow();
      const auto t0 = Clock::now();
      const Counts counts = workload->Iterate(&checker);
      wall_ms.push_back(MsSince(t0));
      cpu_ms.push_back(CpuMsNow() - cpu0);
      checker.SameCounts(reference, counts, args.workload + " iteration " + std::to_string(i));
    }
    double percentile = 0;
    const double tail = Tail(wall_ms, &percentile);
    const double attempted = static_cast<double>(checker.attempted());
    const double accuracy =
        attempted == 0 ? 0 : 1.0 - static_cast<double>(checker.failed()) / attempted;
    AppendMetric(&metrics, "wall_ms", TrimmedMean(wall_ms), "ms");
    AppendMetric(&metrics, "wall_ms_tail", tail, "ms");
    AppendMetric(&metrics, "cpu_ms", TrimmedMean(cpu_ms), "ms");
    const double peak_rss_mb = PeakRssMb();
    checker.Require(peak_rss_mb > 0, "peak RSS unreadable from /proc/self/status");
    AppendMetric(&metrics, "peak_rss_mb", peak_rss_mb, "MiB");
    AppendMetric(&metrics, "setup_s", Median(setup_s), "s");
    AppendMetric(&metrics, "verdict_accuracy", accuracy, "ratio");

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"samples\": %zu, \"tail_percentile\": %.1f, \"setup_batch\": %d, ",
                  wall_ms.size(), percentile, batch);
    meta += buf;
    std::printf("{\"fingerprint\": %s}\n", JsonCounts(reference).c_str());
  }
  // Host steal over the run: on a shared host, a set of runs with high steal
  // measured the neighbours as much as this program.
  const auto [steal_after, jiffies_after] = StealJiffies();
  const double jiffies = jiffies_after - jiffies_before;
  char steal[64];
  std::snprintf(steal, sizeof(steal), "\"steal_share\": %.4f, ",
                jiffies > 0 ? (steal_after - steal_before) / jiffies : 0.0);
  meta += steal;

  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, %s"
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
      "\"loadavg_before\": %s, \"loadavg_after\": %s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace, meta.c_str(), VB_BUILD_TYPE, VB_CXX_FLAGS, VB_COMPILER,
      std::thread::hardware_concurrency(), load_before.c_str(), LoadAvg().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              checker.correct() ? "true" : "false",
              static_cast<unsigned long long>(checker.attempted()),
              static_cast<unsigned long long>(checker.failed()), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace verdict_bench
}  // namespace vrm

int main(int argc, char** argv) { return vrm::verdict_bench::Main(argc, argv); }
