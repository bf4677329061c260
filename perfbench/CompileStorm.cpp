//===- CompileStorm.cpp - Cold JIT compiles under concurrent lookups ------===//
//
// A round builds a fresh Runtime for each of the four GPU configurations
// in turn. For each one (a phase), closed-loop client threads take
// requests from a seeded shuffle of kernelFootprint / kernelCommutativity
// / staticStats calls over fourteen kernels (the ten workload kernels and
// the four frame kernels), each kernel and call kind requested twice. The
// first request for a kernel compiles it; requests arriving after that
// compile finished are cache hits; requests arriving while it is in
// flight wait and are counted in neither.
//
// The operation the end-to-end latency measures is the phase: a cold
// Runtime serving every request of its clients. Per-request compile
// latency depends on where a request lands in the cache lock's queue, and
// its median moves from run to run with the host's load, so it is a
// per-layer metric (runtime.compile_request_ms).
//
// Checks: every request gets a footprint / commutativity result, and the
// staticStats op mix of every key equals the one set-up computed.
//
//===----------------------------------------------------------------------===//

#include "FrameKernels.h"
#include "Trace.h"
#include "Workloads.h"

#include "analysis/Commutativity.h"
#include "analysis/Footprint.h"

#include <atomic>
#include <chrono>
#include <thread>

using namespace concord;
using namespace perfbench;

namespace {

enum class Kind { Footprint, Commutativity, Stats };
const char *kindName(Kind K) {
  return K == Kind::Footprint ? "kernelFootprint"
         : K == Kind::Commutativity ? "kernelCommutativity"
                                    : "staticStats";
}

struct Request {
  unsigned Spec;
  Kind K;
};

constexpr unsigned RequestsPerKind = 2;
/// A set-up sample is taken before every SetupEvery-th round, so set-up is
/// sampled across the run's host conditions, not only at its start.
constexpr unsigned SetupEvery = 2;

/// Pause between a client's requests. Without it the clients' back-to-back
/// cache hits keep the (reader-preferring) cache lock busy, and how long a
/// compile waits for it becomes a race that differs from run to run.
constexpr std::chrono::microseconds ThinkTime{100};

bool sameMix(const codegen::OpMixStats &A, const codegen::OpMixStats &B) {
  return A.Total == B.Total && A.ControlFlow == B.ControlFlow &&
         A.Memory == B.Memory;
}

/// Per-request latencies of one client thread.
struct ClientLog {
  std::vector<double> CompileSec, HitSec;
  std::vector<std::string> Failures;
  uint64_t Requests = 0;
};

/// One Runtime stormed by \p Clients threads over \p List.
void stormOne(runtime::Runtime &RT, const std::vector<NamedSpec> &Specs,
              const std::vector<codegen::OpMixStats> &RefMix,
              const std::vector<Request> &List, unsigned Clients,
              const char *Config, std::vector<ClientLog> &Logs) {
  // 0 = not requested, 1 = compiling, 2 = compiled.
  std::vector<std::atomic<int>> State(Specs.size());
  for (auto &S : State)
    S.store(0);
  std::atomic<size_t> Next{0};
  const uint64_t Parent = trace::current();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      ClientLog &Log = Logs[C];
      for (size_t I; (I = Next.fetch_add(1)) < List.size();) {
        const Request &Q = List[I];
        int Expected = 0;
        const bool Compiles =
            State[Q.Spec].compare_exchange_strong(Expected, 1);
        const bool Hit = !Compiles && Expected == 2;
        Span S(Compiles ? "runtime.compile_request"
               : Hit    ? "runtime.cache_hit"
                        : "runtime.wait_request",
               Parent);
        bool Ok = false;
        codegen::OpMixStats Mix;
        const runtime::KernelSpec &Spec = Specs[Q.Spec].Spec;
        try {
          switch (Q.K) {
          case Kind::Footprint:
            Ok = RT.kernelFootprint(Spec) != nullptr;
            break;
          case Kind::Commutativity:
            Ok = RT.kernelCommutativity(Spec) != nullptr;
            break;
          case Kind::Stats:
            Ok = RT.staticStats(Spec, &Mix) && sameMix(Mix, RefMix[Q.Spec]);
            break;
          }
        } catch (const std::exception &) {
          Ok = false;
        }
        const double Sec = S.end();
        if (Compiles) {
          State[Q.Spec].store(2);
          Log.CompileSec.push_back(Sec);
        } else if (Hit) {
          Log.HitSec.push_back(Sec);
        }
        ++Log.Requests;
        if (!Ok)
          Log.Failures.push_back(std::string(kindName(Q.K)) + " on " +
                                 Specs[Q.Spec].Name + "/" + Config +
                                 (Q.K == Kind::Stats ? ": op mix differs"
                                                     : ": no result"));
        std::this_thread::sleep_for(ThinkTime);
      }
    });
  for (std::thread &T : Threads)
    T.join();
}

} // namespace

Result perfbench::runCompileStorm(const Options &O) {
  Result R;
  const auto Machine = gpusim::MachineConfig::ultrabook();
  std::vector<NamedSpec> Specs = workloadSpecs();
  for (NamedSpec &S : frameSpecs())
    Specs.push_back(std::move(S));

  // Set-up: the reference op mix of every key, compiled cold through one
  // Runtime per configuration. Repeated; every repeat must agree.
  std::vector<std::vector<codegen::OpMixStats>> RefMix(
      NumGpuConfigs, std::vector<codegen::OpMixStats>(Specs.size()));
  std::vector<double> SetupTimes;
  auto SetUp = [&] {
    const bool First = SetupTimes.empty();
    Span S("bench.setup");
    svm::SharedRegion Region(16 << 20);
    for (unsigned C = 0; C < NumGpuConfigs; ++C) {
      runtime::Runtime RT(Machine, Region, gpuConfig(C));
      for (size_t K = 0; K < Specs.size(); ++K) {
        codegen::OpMixStats Mix;
        std::string Error;
        R.attempt();
        if (!RT.staticStats(Specs[K].Spec, &Mix, &Error))
          R.fail("staticStats on " + Specs[K].Name + "/" + GpuConfigNames[C] +
                 " failed in set-up: " + Error);
        else if (First)
          RefMix[C][K] = Mix;
        else if (!sameMix(Mix, RefMix[C][K]))
          R.fail("op mix of " + Specs[K].Name + "/" + GpuConfigNames[C] +
                 " differs between set-up repeats");
      }
    }
    SetupTimes.push_back(S.end());
  };

  std::vector<Request> Base;
  for (unsigned K = 0; K < Specs.size(); ++K)
    for (Kind Q : {Kind::Footprint, Kind::Commutativity, Kind::Stats})
      for (unsigned Rep = 0; Rep < RequestsPerKind; ++Rep)
        Base.push_back({K, Q});

  Rng Gen(O.Seed);
  std::vector<double> Walls, Busy, PhaseMs, CompileMs, HitUs;
  double JitSec = 0;
  svm::SharedRegion Region(64 << 20);
  const double Start = now();
  do {
    if (Walls.size() % SetupEvery == 0)
      SetUp();
    Span Round("bench.round");
    double RoundBusy = 0;
    for (unsigned C = 0; C < NumGpuConfigs; ++C) {
      std::vector<Request> List = Base;
      Gen.shuffle(List);
      std::vector<ClientLog> Logs(O.Threads.Clients);
      {
        Span Phase("bench.phase");
        runtime::Runtime RT(Machine, Region, gpuConfig(C));
        stormOne(RT, Specs, RefMix[C], List, O.Threads.Clients,
                 GpuConfigNames[C], Logs);
        PhaseMs.push_back(Phase.end() * 1e3);
        RoundBusy += PhaseMs.back() * 1e-3;
      }
      for (const ClientLog &L : Logs) {
        R.attempt(L.Requests);
        for (const std::string &F : L.Failures)
          R.fail(F);
        for (double S : L.CompileSec) {
          CompileMs.push_back(S * 1e3);
          JitSec += S;
        }
        for (double S : L.HitSec)
          HitUs.push_back(S * 1e6);
      }
    }
    Walls.push_back(Round.end());
    Busy.push_back(RoundBusy);
  } while (now() - Start + Walls.back() +
               (Walls.size() % SetupEvery == 0 ? SetupTimes.back() : 0) <=
           O.Seconds);
  double Elapsed = now() - Start;
  for (double S : SetupTimes)
    Elapsed -= S;

  R.e2e("setup_s", median(SetupTimes), "s");
  R.e2e("wall_s", median(Walls), "s");
  reportDistribution(R, /*EndToEnd=*/true, "op_ms", distribution(PhaseMs),
                     "ms");
  R.e2e("ops_per_s", double(PhaseMs.size()) / Elapsed, "1/s");
  R.e2e("busy_s", median(Busy), "s");

  if (!trace::enabled())
    return R;
  R.layer("runtime.jit_s", JitSec, "s");
  reportDistribution(R, /*EndToEnd=*/false, "runtime.compile_request_ms",
                     distribution(CompileMs), "ms");
  reportDistribution(R, /*EndToEnd=*/false, "runtime.cache_hit_us",
                     distribution(HitUs), "us");
  probeCompileStages(R, Specs, /*Reps=*/3, /*ReportHits=*/false);
  return R;
}
