//===- Common.cpp ---------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "analysis/Coalescing.h"
#include "analysis/Commutativity.h"
#include "analysis/Footprint.h"
#include "analysis/PointsTo.h"
#include "analysis/Uniformity.h"
#include "analysis/ValueRange.h"
#include "codegen/CodeGen.h"
#include "frontend/Compile.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sched.h>
#include <sys/resource.h>

using namespace concord;
using namespace perfbench;

void Result::fail(const std::string &Why) {
  ++Failed;
  if (Failures.size() < 20)
    Failures.push_back(Why);
}

ThreadPlan perfbench::planThreads(const std::string &Workload,
                                  unsigned Nproc) {
  ThreadPlan P;
  if (Workload == "paper_matrix") {
    P.Jobs = std::min(4u, Nproc);
    P.SimThreads = std::max(1u, Nproc / P.Jobs);
    P.Active = P.Jobs * P.SimThreads;
  } else if (Workload == "compile_storm") {
    // Compiles serialise on the runtime's cache lock. With a client on
    // every CPU, a lock holder preempted by anything else on the host
    // stalls every other client, and the phase wall of a run spread by
    // 0.3 between runs of one set; two leave CPUs to spare.
    P.Clients = std::min(2u, Nproc);
    P.Active = P.Clients;
  } else if (Workload == "sched_frames") {
    // One worker. A hybrid launch simulates its CPU partition on a second
    // host thread, so each worker may keep two busy; and with two workers
    // the task a worker picks next, and so where data-aware placement puts
    // it, depends on which launch finishes first, which spread the median
    // frame latency of a run by a quarter.
    P.SimThreads = 1;
    P.Sessions = 1;
    P.Workers = 1;
    P.Active = 1 + P.Workers * 2 * P.SimThreads + P.Sessions;
  }
  return P;
}

std::string perfbench::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += static_cast<unsigned char>(C) < 0x20 ? ' ' : C;
  }
  return Out + "\"";
}

double perfbench::now() {
  static const auto Origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Origin)
      .count();
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

Distribution perfbench::distribution(std::vector<double> V) {
  Distribution D;
  D.Samples = V.size();
  if (V.empty())
    return D;
  D.P50 = median(V);
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  // The eleventh largest sample: ten samples lie beyond it.
  const size_t Rank = N > 10 ? N - 10 : N;
  D.Tail = V[Rank - 1];
  D.TailPct = 100.0 * double(Rank) / double(N);
  return D;
}

void perfbench::reportDistribution(Result &R, bool EndToEnd,
                                   const std::string &Name,
                                   const Distribution &D,
                                   const std::string &Unit) {
  if (EndToEnd) {
    R.e2e(Name + ".p50", D.P50, Unit);
    R.e2e(Name + ".tail", D.Tail, Unit);
  } else {
    R.layer(Name + ".p50", D.P50, Unit);
    R.layer(Name + ".tail", D.Tail, Unit);
  }
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "{\"percentile\": %g, \"samples\": %zu}",
                D.TailPct, D.Samples);
  R.info(Name + ".tail", Buf);
}

double perfbench::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

unsigned perfbench::availableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  return unsigned(std::max(1, CPU_COUNT(&Set)));
}

const char *const perfbench::GpuConfigNames[NumGpuConfigs] = {
    "GPU", "GPU+PTROPT", "GPU+L3OPT", "GPU+ALL"};

transforms::PipelineOptions perfbench::gpuConfig(unsigned Index) {
  switch (Index) {
  case 0:
    return transforms::PipelineOptions::gpuBaseline();
  case 1:
    return transforms::PipelineOptions::gpuPtrOpt();
  case 2:
    return transforms::PipelineOptions::gpuL3Opt();
  default:
    return transforms::PipelineOptions::gpuAll();
  }
}

std::vector<NamedSpec> perfbench::workloadSpecs() {
  std::vector<NamedSpec> Specs;
  auto Ws = workloads::allWorkloads();
  Ws.push_back(workloads::makeDegreeHistogram());
  for (const auto &W : Ws)
    Specs.push_back({W->name(), W->kernelSpec()});
  return Specs;
}

namespace {

/// Per-key timings of one probe repetition, in seconds.
struct StageTimes {
  double Cold = 0, Hit = 0;
  double Frontend = 0, Transforms = 0, Codegen = 0;
  double Footprint = 0, PointsTo = 0, ValueRange = 0, Commut = 0,
         Coalescing = 0, Uniformity = 0;
  double stageSum() const {
    return Frontend + Transforms + Codegen + Footprint + PointsTo +
           ValueRange + Commut + Coalescing + Uniformity;
  }
};

/// Compiles one (spec, config) key stage by stage. Returns false with
/// \p Error when a stage fails.
bool timeStages(const runtime::KernelSpec &Spec,
                const transforms::PipelineOptions &Opts, StageTimes &T,
                uint64_t *IrInsts, uint64_t *Removed, uint64_t *Bytecode,
                std::string *Error) {
  DiagnosticEngine Diags;
  Span FE("frontend.compile");
  auto M = frontend::compileProgram(Spec.Source, Spec.BodyClass, Diags);
  cir::Function *Entry =
      M ? frontend::createKernelEntry(*M, Spec.BodyClass, Diags) : nullptr;
  T.Frontend = FE.end();
  if (!Entry) {
    *Error = "frontend failed: " + Diags.str();
    return false;
  }
  const std::string KernelName = Entry->name();
  *IrInsts = M->countInstructions();

  transforms::PipelineStats Stats;
  std::string VerifyError;
  Span TR("transforms.pipeline");
  bool PipeOk = transforms::runPipeline(*M, Opts, Stats, &VerifyError, &Diags);
  T.Transforms = TR.end();
  if (!PipeOk) {
    *Error = "pipeline failed: " + VerifyError;
    return false;
  }
  *Removed = Stats.InstructionsRemoved;

  Span CG("codegen.compile");
  codegen::CodeGenResult Code = codegen::compileModule(*M);
  T.Codegen = CG.end();
  if (!Code.ok()) {
    *Error = "codegen failed: " + Code.Error;
    return false;
  }
  *Bytecode = 0;
  for (const codegen::BKernel &K : Code.Program.Kernels)
    *Bytecode += K.Code.size();

  cir::Function *KF = M->findFunction(KernelName);
  if (!KF) {
    *Error = "kernel " + KernelName + " missing after the pipeline";
    return false;
  }
  {
    Span S("analysis.footprint");
    analysis::KernelFootprint FP = analysis::computeFootprint(*KF);
    T.Footprint = S.end();
    if (!FP.Analyzed) {
      *Error = "footprint not analysed";
      return false;
    }
  }
  {
    Span S("analysis.pointsto");
    analysis::PointsTo PT(*KF);
    T.PointsTo = S.end();
  }
  {
    Span S("analysis.valuerange");
    analysis::ValueRanges VR(*KF);
    for (cir::BasicBlock *BB : *KF)
      for (cir::Instruction *I : *BB)
        if (I->type() && I->type()->isInteger())
          (void)VR.rangeOf(I, BB);
    T.ValueRange = S.end();
  }
  {
    Span S("analysis.commutativity");
    (void)analysis::computeCommutativity(*KF, Opts.RelaxedFPReduction);
    T.Commut = S.end();
  }
  {
    Span S("analysis.coalescing");
    (void)analysis::computeCoalescing(*KF);
    T.Coalescing = S.end();
  }
  {
    Span S("analysis.uniformity");
    analysis::UniformityAnalysis U(*KF);
    T.Uniformity = S.end();
  }
  return true;
}

} // namespace

void perfbench::probeCompileStages(Result &R,
                                   const std::vector<NamedSpec> &Specs,
                                   unsigned Reps, bool ReportHits) {
  const auto Machine = gpusim::MachineConfig::ultrabook();
  const size_t Keys = Specs.size() * NumGpuConfigs;
  std::vector<std::vector<StageTimes>> Times(Keys);
  uint64_t IrInsts = 0, Removed = 0, Bytecode = 0;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    for (size_t S = 0; S < Specs.size(); ++S) {
      for (unsigned C = 0; C < NumGpuConfigs; ++C) {
        const std::string KeyName =
            Specs[S].Name + "/" + GpuConfigNames[C];
        Span KeySpan("bench.probe_key");
        StageTimes T;
        R.attempt();
        svm::SharedRegion Region(16 << 20);
        runtime::Runtime RT(Machine, Region, gpuConfig(C));
        Span Cold("runtime.cold_compile");
        const analysis::KernelFootprint *FP =
            RT.kernelFootprint(Specs[S].Spec);
        T.Cold = Cold.end();
        Span Hit("runtime.cache_hit");
        const analysis::KernelFootprint *Again =
            RT.kernelFootprint(Specs[S].Spec);
        T.Hit = Hit.end();
        if (!FP || FP != Again) {
          R.fail("compile probe " + KeyName + ": no footprint");
          continue;
        }
        uint64_t Ir = 0, Rm = 0, Bc = 0;
        std::string Error;
        if (!timeStages(Specs[S].Spec, gpuConfig(C), T, &Ir, &Rm, &Bc,
                        &Error)) {
          R.fail("compile probe " + KeyName + ": " + Error);
          continue;
        }
        if (Rep == 0) {
          IrInsts += Ir;
          Removed += Rm;
          Bytecode += Bc;
        }
        Times[S * NumGpuConfigs + C].push_back(T);
      }
    }
  }

  // Per key, the median over repetitions; then the mean over keys.
  auto PerKey = [&](double StageTimes::*Field) {
    double Sum = 0;
    size_t N = 0;
    for (const auto &KeyTimes : Times) {
      if (KeyTimes.empty())
        continue;
      std::vector<double> V;
      for (const StageTimes &T : KeyTimes)
        V.push_back(T.*Field);
      Sum += median(V);
      ++N;
    }
    return N ? Sum / double(N) : 0.0;
  };
  R.layer("frontend.ms", PerKey(&StageTimes::Frontend) * 1e3, "ms");
  R.layer("frontend.ir_insts", double(IrInsts), "count");
  R.layer("transforms.ms", PerKey(&StageTimes::Transforms) * 1e3, "ms");
  R.layer("transforms.insts_removed", double(Removed), "count");
  R.layer("codegen.ms", PerKey(&StageTimes::Codegen) * 1e3, "ms");
  R.layer("codegen.bytecode_insts", double(Bytecode), "count");
  R.layer("analysis.footprint_ms", PerKey(&StageTimes::Footprint) * 1e3,
          "ms");
  R.layer("analysis.pointsto_ms", PerKey(&StageTimes::PointsTo) * 1e3, "ms");
  R.layer("analysis.valuerange_ms", PerKey(&StageTimes::ValueRange) * 1e3,
          "ms");
  R.layer("analysis.commutativity_ms", PerKey(&StageTimes::Commut) * 1e3,
          "ms");
  R.layer("analysis.coalescing_ms", PerKey(&StageTimes::Coalescing) * 1e3,
          "ms");
  R.layer("analysis.uniformity_ms", PerKey(&StageTimes::Uniformity) * 1e3,
          "ms");
  const double Cold = PerKey(&StageTimes::Cold);
  double StageSum = 0;
  for (const auto &KeyTimes : Times) {
    std::vector<double> V;
    for (const StageTimes &T : KeyTimes)
      V.push_back(T.stageSum());
    StageSum += median(V);
  }
  size_t Measured = size_t(std::count_if(
      Times.begin(), Times.end(), [](const auto &V) { return !V.empty(); }));
  R.layer("runtime.cold_compile_ms", Cold * 1e3, "ms");
  R.layer("runtime.compile_overhead_ratio",
          StageSum > 0 ? Cold * double(Measured) / StageSum : 0, "ratio");
  if (ReportHits) {
    std::vector<double> Hits;
    for (const auto &KeyTimes : Times)
      for (const StageTimes &T : KeyTimes)
        Hits.push_back(T.Hit * 1e6);
    reportDistribution(R, /*EndToEnd=*/false, "runtime.cache_hit_us",
                       distribution(Hits), "us");
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "{\"keys\": %zu, \"reps\": %u}", Keys,
                Reps);
  R.info("compile_probe", Buf);
}
