//===- PaperMatrix.cpp - The Figure 7 Ultrabook matrix --------------------===//
//
// 45 cells: the nine Table 1 workloads on the CPU model and on GPU,
// GPU+PTROPT, GPU+L3OPT and GPU+ALL. Each cell builds its own shared
// region and a cold Runtime, runs Workload::setup, Workload::run and
// Workload::verify, and records its modelled seconds, joules and final
// launch statistics. Cells run on Options::Jobs threads, longest first.
//
// Inputs are fixed by Workload::setup; the seed does not change them.
// Modelled numbers must be bit-identical across batches of one run and
// across runs (Options::ModelledRef keeps the first run's values).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "svm/ObjectStore.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

using namespace concord;
using namespace perfbench;

namespace {

constexpr unsigned Cols = NumGpuConfigs + 1; // Column 0 is the CPU model.
/// Set-up samples taken before the measured batches, and again after
/// them. The host's speed shifts between regimes lasting seconds; samples
/// at both ends of the run keep the median from following one of them.
constexpr unsigned SetupReps = 16;
const char *colName(unsigned C) {
  return C == 0 ? "CPU" : GpuConfigNames[C - 1];
}

/// Paper reference, Ultrabook GPU+ALL averages (section 5, Figs. 7 and 8).
constexpr double PaperSpeedup = 2.5;
constexpr double PaperEnergySaving = 2.04;

struct Cell {
  unsigned W = 0, C = 0;
  std::string Name; ///< "<workload>/<column>".
  bool Ok = false;
  std::string Error;
  double SetupSec = 0, RunSec = 0, VerifySec = 0;
  workloads::WorkloadRun Run;
  uint64_t PeakBytes = 0, BadFrees = 0;
  double Fragmentation = 0;
};

/// The bits the determinism check compares, as one text line.
std::string modelledLine(const Cell &X) {
  const gpusim::SimResult &S = X.Run.LastSim;
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "%s seconds=%a joules=%a launches=%u cycles=%a "
                "warp_insts=%" PRIu64 " lane_ops=%" PRIu64 " mem=%" PRIu64
                " lines=%" PRIu64 " hits=%" PRIu64 " misses=%" PRIu64
                " l1=%" PRIu64,
                X.Name.c_str(), X.Run.Seconds, X.Run.Joules, X.Run.Launches,
                S.Cycles, S.WarpInstructions, S.LaneOps, S.MemAccesses,
                S.LinesTouched, S.CacheHits, S.CacheMisses, S.L1Hits);
  return Buf;
}

/// Cells ordered longest first, so the critical-path cells start
/// immediately: workloads by their measured scale-1 cost on a 4-core
/// host (FaceDetect and BarnesHut take several seconds per cell, the
/// graph workloads a few hundred milliseconds), each with its CPU column
/// first. Workloads missing from the list go last.
std::vector<std::pair<unsigned, unsigned>> cellOrder() {
  static const char *const ByCost[] = {
      "FaceDetect", "BarnesHut", "Raytracer", "SkipList",          "BTree",
      "ClothPhysics", "BFS",     "SSSP",      "ConnectedComponent"};
  auto Ws = workloads::allWorkloads();
  std::vector<unsigned> Rank;
  for (const char *Name : ByCost)
    for (unsigned W = 0; W < Ws.size(); ++W)
      if (Ws[W]->name() == std::string(Name))
        Rank.push_back(W);
  for (unsigned W = 0; W < Ws.size(); ++W)
    if (std::find(Rank.begin(), Rank.end(), W) == Rank.end())
      Rank.push_back(W);
  std::vector<std::pair<unsigned, unsigned>> Order;
  for (unsigned W : Rank)
    for (unsigned C = 0; C < Cols; ++C)
      Order.emplace_back(W, C);
  return Order;
}

void runCell(Cell &X, const gpusim::MachineConfig &Machine,
             const gpusim::SimOptions &Sim, uint64_t Parent) {
  Span CellSpan("bench.cell", Parent);
  auto Ws = workloads::allWorkloads();
  workloads::Workload &W = *Ws[X.W];
  svm::SharedRegion Region(256 << 20);
  runtime::Runtime RT(Machine, Region);
  RT.setSimOptions(Sim);
  if (X.C > 0)
    RT.setGpuOptions(gpuConfig(X.C - 1));

  Span Setup("workloads.setup");
  bool SetupOk = W.setup(Region, /*Scale=*/1);
  X.SetupSec = Setup.end();
  if (!SetupOk) {
    X.Error = "setup failed";
    return;
  }
  Span Run("gpusim.run");
  X.Run = W.run(RT, /*OnCpu=*/X.C == 0);
  X.RunSec = Run.end();
  if (!X.Run.Ok) {
    X.Error = "run failed: " + X.Run.Error;
    return;
  }
  Span Verify("workloads.verify");
  std::string VerifyError;
  bool Verified = W.verify(&VerifyError);
  X.VerifySec = Verify.end();
  if (!Verified) {
    X.Error = "verify failed: " + VerifyError;
    return;
  }
  svm::RegionStats St = Region.stats();
  X.PeakBytes = St.PeakBytes;
  if (const svm::ObjectStore *Store = Region.objectStore()) {
    X.BadFrees = Store->badFrees();
    X.Fragmentation = Store->fragmentation();
  }
  X.Ok = true;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / double(V.size()));
}

/// Compares every cell's modelled line with the reference file, writing
/// the file when it does not exist yet. Mismatches are failures naming
/// the cell.
void checkAgainstReference(Result &R, const std::string &Path,
                           const std::vector<std::string> &Lines) {
  std::ifstream In(Path);
  if (!In) {
    std::ofstream Out(Path);
    for (const std::string &L : Lines)
      Out << L << "\n";
    if (!Out)
      R.fail("cannot write modelled reference " + Path);
    return;
  }
  std::map<std::string, std::string> Ref;
  for (std::string L; std::getline(In, L);)
    Ref[L.substr(0, L.find(' '))] = L;
  for (const std::string &L : Lines) {
    std::string Name = L.substr(0, L.find(' '));
    auto It = Ref.find(Name);
    if (It == Ref.end())
      R.fail("modelled reference has no cell " + Name);
    else if (It->second != L)
      R.fail("modelled numbers of " + Name + " differ from an earlier run: " +
             L + " vs " + It->second);
  }
}

} // namespace

Result perfbench::runPaperMatrix(const Options &O) {
  Result R;
  const auto Machine = gpusim::MachineConfig::ultrabook();
  gpusim::SimOptions Sim;
  Sim.NumThreads = O.Threads.SimThreads;

  // Set-up: build every workload's inputs in a fresh region.
  std::vector<double> SetupTimes;
  auto SetUp = [&] {
    for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
      Span S("bench.setup");
      for (auto &W : workloads::allWorkloads()) {
        svm::SharedRegion Region(256 << 20);
        Span WS("workloads.setup");
        if (!W->setup(Region, 1))
          R.fail(std::string("setup of ") + W->name() + " failed");
      }
      SetupTimes.push_back(S.end());
    }
  };
  SetUp();

  // Measured batches: the whole matrix, at least once, and again only
  // while another batch as long as the last still fits in the budget.
  const auto Order = cellOrder();
  std::vector<double> Walls, Busy;
  std::vector<Cell> Cells; // Last batch, in Order.
  std::map<std::string, std::string> FirstLines;
  std::vector<std::string> Lines;
  const double Start = now();
  do {
    Span Batch("bench.batch");
    std::vector<Cell> Out(Order.size());
    for (size_t I = 0; I < Order.size(); ++I) {
      Out[I].W = Order[I].first;
      Out[I].C = Order[I].second;
    }
    std::atomic<size_t> Next{0};
    std::vector<std::thread> Threads;
    const uint64_t Parent = Batch.id();
    for (unsigned J = 0; J < O.Threads.Jobs; ++J)
      Threads.emplace_back([&] {
        for (size_t I; (I = Next.fetch_add(1)) < Out.size();) {
          try {
            runCell(Out[I], Machine, Sim, Parent);
          } catch (const std::exception &E) {
            Out[I].Ok = false;
            Out[I].Error = std::string("exception: ") + E.what();
          }
        }
      });
    for (std::thread &T : Threads)
      T.join();
    Walls.push_back(Batch.end());

    auto Ws = workloads::allWorkloads();
    double Sum = 0;
    Lines.clear();
    for (Cell &X : Out) {
      X.Name = std::string(Ws[X.W]->name()) + "/" + colName(X.C);
      R.attempt();
      if (!X.Ok) {
        R.fail("cell " + X.Name + ": " + X.Error);
        continue;
      }
      Sum += X.RunSec;
      Lines.push_back(modelledLine(X));
      // Repeats within the run must agree bit for bit.
      auto [It, Fresh] = FirstLines.emplace(X.Name, Lines.back());
      if (!Fresh && It->second != Lines.back())
        R.fail("modelled numbers of " + X.Name + " changed between batches");
    }
    Busy.push_back(Sum);
    Cells = std::move(Out);
  } while (now() - Start + Walls.back() <= O.Seconds);
  const double Elapsed = now() - Start;
  SetUp();
  R.e2e("setup_s", median(SetupTimes), "s");

  if (!O.ModelledRef.empty())
    checkAgainstReference(R, O.ModelledRef, Lines);

  std::printf("%-28s %10s %10s %14s %14s\n", "cell", "run_ms", "jit_ms",
              "modelled_s", "modelled_J");
  for (const Cell &X : Cells) {
    if (!X.Ok)
      continue;
    std::printf("%-28s %10.1f %10.1f %14.6g %14.6g\n", X.Name.c_str(),
                X.RunSec * 1e3, X.Run.CompileSeconds * 1e3, X.Run.Seconds,
                X.Run.Joules);
  }
  // The matrix is a batch, not a stream of requests: the operation is the
  // whole matrix. (The 45 cells are a fixed, heterogeneous set; their
  // median and tail would pick whichever cell sits at a rank.)
  std::vector<double> WallMs;
  for (double W : Walls)
    WallMs.push_back(W * 1e3);
  R.e2e("wall_s", median(Walls), "s");
  reportDistribution(R, /*EndToEnd=*/true, "op_ms", distribution(WallMs),
                     "ms");
  R.e2e("ops_per_s", double(Walls.size()) / Elapsed, "1/s");
  R.e2e("busy_s", median(Busy), "s");

  // Modelled Figure 7/8 numbers: GPU+ALL against the CPU model.
  std::vector<double> Speed, Energy;
  std::map<unsigned, const Cell *> CpuOf;
  for (const Cell &X : Cells)
    if (X.Ok && X.C == 0)
      CpuOf[X.W] = &X;
  for (const Cell &X : Cells) {
    if (!X.Ok || X.C != Cols - 1 || !CpuOf.count(X.W))
      continue;
    Speed.push_back(CpuOf[X.W]->Run.Seconds / X.Run.Seconds);
    Energy.push_back(CpuOf[X.W]->Run.Joules / X.Run.Joules);
  }
  const double GeoSpeed = geomean(Speed), GeoEnergy = geomean(Energy);
  const double SpeedErr = (GeoSpeed / PaperSpeedup - 1) * 100;
  const double EnergyErr = (GeoEnergy / PaperEnergySaving - 1) * 100;
  std::printf("modelled GPU+ALL vs CPU (Ultrabook, %zu workloads): speedup "
              "%.4fx, energy saving %.4fx\n",
              Speed.size(), GeoSpeed, GeoEnergy);
  std::printf("paper reference (Ultrabook GPU+ALL averages): speedup %.2fx, "
              "energy saving %.2fx\n",
              PaperSpeedup, PaperEnergySaving);
  std::printf("modelled error against the paper: speedup %+.1f%%, energy "
              "saving %+.1f%%\n",
              SpeedErr, EnergyErr);
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "{\"speedup_geomean\": %.6f, \"energy_saving_geomean\": %.6f, "
                "\"paper_speedup\": %.2f, \"paper_energy_saving\": %.2f, "
                "\"speedup_error_pct\": %.2f, \"energy_saving_error_pct\": "
                "%.2f}",
                GeoSpeed, GeoEnergy, PaperSpeedup, PaperEnergySaving, SpeedErr,
                EnergyErr);
  R.info("modelled", Buf);

  if (!trace::enabled())
    return R;

  // Per-layer numbers of the last batch.
  double SetupSum = 0, VerifySum = 0, Jit = 0, Slowest = 0;
  double CellSec[2] = {0, 0}, NsNum[2] = {0, 0}, NsDen[2] = {0, 0};
  uint64_t Mem = 0, Hits = 0, Misses = 0, PeakBytes = 0, BadFrees = 0;
  double Frag = 0;
  for (const Cell &X : Cells) {
    if (!X.Ok)
      continue;
    const unsigned Dev = X.C == 0 ? 0 : 1;
    SetupSum += X.SetupSec;
    VerifySum += X.VerifySec;
    Jit += X.Run.CompileSeconds;
    Slowest = std::max(Slowest, X.RunSec);
    const double SimSec = std::max(0.0, X.RunSec - X.Run.CompileSeconds);
    CellSec[Dev] += SimSec;
    if (X.Run.Launches == 1) {
      NsNum[Dev] += SimSec * 1e9;
      NsDen[Dev] += double(X.Run.LastSim.WarpInstructions);
    }
    Mem += X.Run.LastSim.MemAccesses;
    Hits += X.Run.LastSim.CacheHits;
    Misses += X.Run.LastSim.CacheMisses;
    PeakBytes = std::max(PeakBytes, X.PeakBytes);
    BadFrees += X.BadFrees;
    Frag = std::max(Frag, X.Fragmentation);
  }
  R.layer("workloads.setup_s", SetupSum, "s");
  R.layer("workloads.verify_s", VerifySum, "s");
  R.layer("gpusim.cpu_cell_s", CellSec[0], "s");
  R.layer("gpusim.gpu_cell_s", CellSec[1], "s");
  R.layer("gpusim.slowest_cell_s", Slowest, "s");
  R.layer("gpusim.cpu_ns_per_warp_inst", NsDen[0] ? NsNum[0] / NsDen[0] : 0,
          "ns");
  R.layer("gpusim.gpu_ns_per_warp_inst", NsDen[1] ? NsNum[1] / NsDen[1] : 0,
          "ns");
  R.layer("gpusim.mem_accesses", double(Mem), "count");
  R.layer("gpusim.llc_hit_ratio",
          Hits + Misses ? double(Hits) / double(Hits + Misses) : 0, "ratio");
  R.layer("gpusim.modelled_speedup_geomean", GeoSpeed, "x");
  R.layer("gpusim.modelled_energy_saving_geomean", GeoEnergy, "x");
  R.layer("runtime.jit_s", Jit, "s");
  R.layer("svm.peak_bytes", double(PeakBytes), "bytes");
  R.layer("svm.fragmentation", Frag, "ratio");
  R.layer("svm.bad_frees", double(BadFrees), "count");

  std::vector<NamedSpec> Specs = workloadSpecs();
  Specs.pop_back(); // The matrix runs the nine Table 1 kernels.
  probeCompileStages(R, Specs, /*Reps=*/3, /*ReportHits=*/true);
  return R;
}
