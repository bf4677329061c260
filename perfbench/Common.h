//===- Common.h - Shared pieces of the perfbench binary --------*- C++ -*-===//
///
/// \file
/// Options, the result record every workload fills, and the statistics
/// helpers (median, tail percentile) the workloads share.
///
/// A workload run sets up repeatedly (setup_s is the median) and measures
/// fixed-size batches, run while a batch as long as the last one still
/// fits in the time budget (at least one; wall_s is the median batch
/// wall). Set-up samples are spread over the run: interleaved with the
/// batches, or before and after them. Output checks run after every
/// operation.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "runtime/Runtime.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host threads a workload runs, derived from the CPUs this process may
/// use (no flag changes them). main() refuses a plan whose active threads
/// exceed those CPUs.
struct ThreadPlan {
  unsigned Jobs = 0;       ///< paper_matrix: cells run concurrently.
  unsigned SimThreads = 0; ///< Simulator host threads per launch.
  unsigned Workers = 0;    ///< sched_frames: scheduler worker threads.
  unsigned Sessions = 0;   ///< sched_frames: object-store session clients.
  unsigned Clients = 0;    ///< compile_storm: closed-loop request threads.
  /// Threads busy at once: matrix jobs x simulator threads; the storm's
  /// clients; producer + scheduler workers (each simulating on
  /// SimThreads, twice over during a hybrid launch) + session clients.
  unsigned Active = 0;
};

/// The plan for \p Workload on \p Nproc CPUs; Active is 0 for an unknown
/// workload.
ThreadPlan planThreads(const std::string &Workload, unsigned Nproc);

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  std::string TracePath;   ///< Chrome trace-event JSON; empty = untraced.
  std::string ModelledRef; ///< paper_matrix cross-run determinism record.
  ThreadPlan Threads;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Everything one workload run reports. Failures are counted against
/// Attempted; the first few are kept with a description naming the
/// operation that missed.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// Free-form "key": value pairs echoed into the result record (thread
  /// budget, tail percentiles, paper reference).
  std::vector<std::pair<std::string, std::string>> Info;

  void attempt(uint64_t N = 1) { Attempted += N; }
  void fail(const std::string &Why);
  void e2e(const std::string &Name, double Value, const std::string &Unit) {
    EndToEnd.push_back({Name, Value, Unit});
  }
  void layer(const std::string &Name, double Value, const std::string &Unit) {
    PerLayer.push_back({Name, Value, Unit});
  }
  void info(const std::string &Key, const std::string &JsonValue) {
    Info.emplace_back(Key, JsonValue);
  }
};

/// \p S as a JSON string literal, quotes included; control characters
/// become spaces.
std::string jsonString(const std::string &S);

/// Seconds on the steady clock since an arbitrary process-wide origin.
double now();

double median(std::vector<double> V);

/// A latency distribution summarised as its median and its tail: the
/// highest percentile with at least ten samples beyond it, i.e. the
/// eleventh largest sample, at percentile 100 * (N - 10) / N. With
/// fewer than eleven samples the tail is the maximum and TailPct is 100.
struct Distribution {
  double P50 = 0;
  double Tail = 0;
  double TailPct = 0;
  size_t Samples = 0;
};
Distribution distribution(std::vector<double> V);

/// Records the distribution in \p R: "<Name>.p50" and "<Name>.tail" as
/// metrics (per-layer or end-to-end) and the tail percentile plus sample
/// count as info.
void reportDistribution(Result &R, bool EndToEnd, const std::string &Name,
                        const Distribution &D, const std::string &Unit);

/// Peak resident set size of this process in MiB.
double peakRssMb();

/// Number of CPUs this process may run on (sched_getaffinity).
unsigned availableCpus();

/// SplitMix64: the benchmark's only source of generated data.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  uint32_t below(uint32_t N) { return uint32_t(next() % N); }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(uint32_t(I))]);
  }
};

/// The paper's four GPU configurations, in Figure 7 column order.
constexpr unsigned NumGpuConfigs = 4;
extern const char *const GpuConfigNames[NumGpuConfigs];
concord::transforms::PipelineOptions gpuConfig(unsigned Index);

/// A kernel to compile, named for reports.
struct NamedSpec {
  std::string Name;
  concord::runtime::KernelSpec Spec;
};

/// The ten workload kernels (Table 1 plus the accumulate demonstrator).
std::vector<NamedSpec> workloadSpecs();

/// Times the compile path of every (spec, GPU config) pair from outside:
/// a cold compile through a fresh Runtime, a warm lookup of the same key,
/// and each compile stage called directly on the same spec and config
/// (frontend, pipeline, codegen, the six analyses). Reports the compile
/// stage metrics, runtime.cold_compile_ms and runtime.compile_overhead_ratio;
/// also runtime.cache_hit_us.* unless \p ReportHits is false. Only runs
/// in traced mode: every timing is a span.
void probeCompileStages(Result &R, const std::vector<NamedSpec> &Specs,
                        unsigned Reps, bool ReportHits);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
