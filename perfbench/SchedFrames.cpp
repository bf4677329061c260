//===- SchedFrames.cpp - Seeded frames through the task scheduler --------===//
//
// One producer thread submits frames to a sched::Scheduler running under
// FootprintPolicy::Verify with hybrid splitting, data-aware placement and
// SOA staging at their defaults. A frame is six tasks: a three-stage Axpb
// chain, a histogram accumulating into bins every frame shares, a pointer
// chase over a seeded ring, and a Pack stage writing interleaved pairs.
// The loop is closed: at most FramesInFlight frames are outstanding
// (MaxQueued covers their tasks), and the producer waits for the oldest
// frame, checks its outputs against a host reference, and reuses its
// buffers for the next frame. A batch is BatchFrames frames on a fresh
// region, runtime and scheduler, followed by a drain, which folds the
// histogram shadows back; the bins are checked then. Session clients
// churn Runtime::sharedAlloc/sharedFree and object-store sessions
// alongside.
//
// All inputs (values, stage constants, bin permutations, ring order) come
// from the seed.
//
//===----------------------------------------------------------------------===//

#include "FrameKernels.h"
#include "Trace.h"
#include "Workloads.h"

#include "sched/Scheduler.h"
#include "svm/ObjectStore.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>

using namespace concord;
using namespace perfbench;

namespace {

constexpr int Items = 32768;
constexpr int Stages = 3;
constexpr int HistBins = 64;
// 96 nodes x 16 bytes: a requested size nothing else in the run uses, so
// the size-class hull the points-to analysis reports covers node rings
// only (the chase declaration reads exactly that hull).
constexpr int ChaseLen = 96;
constexpr int ChaseItems = 256;
constexpr size_t NodeArrayBytes = ChaseLen * sizeof(ChaseNode);
constexpr float PackK = 0.5f;
constexpr unsigned FramesInFlight = 2;
constexpr size_t TasksPerFrame = Stages + 3;
constexpr unsigned BatchFrames = 8;

/// The buffers and bodies of one in-flight frame, reused round robin.
struct Slot {
  float *In = nullptr;
  float *Buf[Stages] = {};
  int32_t *Keys = nullptr;
  ChaseNode *Nodes = nullptr;
  float *ChaseOut = nullptr;
  float *PackOut = nullptr;
  Axpb *Chain[Stages] = {};
  Hist *HistBody = nullptr;
  Chase *ChaseBody = nullptr;
  Pack *PackBody = nullptr;
  // Host reference for the frame currently using the slot.
  float K[Stages] = {}, B[Stages] = {};
  float ChaseSum = 0;
};

/// Everything set-up builds: region, runtime (warm), slots, shared bins.
struct Rig {
  std::unique_ptr<svm::SharedRegion> Region;
  std::unique_ptr<runtime::Runtime> RT;
  std::vector<Slot> Slots;
  int32_t *Bins = nullptr;
};

template <typename T> T *alloc(svm::SharedRegion &Region, size_t N) {
  T *P = Region.allocArray<T>(N);
  if (!P)
    throw std::runtime_error("shared region exhausted");
  return P;
}

template <typename T> T *create(svm::SharedRegion &Region) {
  T *P = Region.create<T>();
  if (!P)
    throw std::runtime_error("shared region exhausted");
  return P;
}

std::unique_ptr<Rig> buildRig(const gpusim::MachineConfig &Machine,
                              unsigned SimThreads) {
  auto R = std::make_unique<Rig>();
  R->Region = std::make_unique<svm::SharedRegion>(256 << 20);
  svm::SharedRegion &Region = *R->Region;
  R->RT = std::make_unique<runtime::Runtime>(Machine, Region);
  R->RT->setFootprintPolicy(runtime::FootprintPolicy::Verify);
  gpusim::SimOptions Sim;
  Sim.NumThreads = SimThreads;
  R->RT->setSimOptions(Sim);

  R->Slots.resize(FramesInFlight);
  // Node rings first and back to back: their size-class hull then spans
  // node rings only.
  for (Slot &S : R->Slots)
    S.Nodes = alloc<ChaseNode>(Region, ChaseLen);
  R->Bins = alloc<int32_t>(Region, HistBins);
  std::memset(R->Bins, 0, HistBins * sizeof(int32_t));
  for (Slot &S : R->Slots) {
    S.In = alloc<float>(Region, Items);
    for (float *&B : S.Buf)
      B = alloc<float>(Region, Items);
    S.Keys = alloc<int32_t>(Region, HistBins);
    S.ChaseOut = alloc<float>(Region, ChaseItems);
    S.PackOut = alloc<float>(Region, 2 * size_t(Items));
    for (int St = 0; St < Stages; ++St) {
      S.Chain[St] = create<Axpb>(Region);
      S.Chain[St]->In = St == 0 ? S.In : S.Buf[St - 1];
      S.Chain[St]->Out = S.Buf[St];
    }
    S.HistBody = create<Hist>(Region);
    S.HistBody->Keys = S.Keys;
    S.HistBody->Bins = R->Bins;
    S.ChaseBody = create<Chase>(Region);
    S.ChaseBody->Out = S.ChaseOut;
    S.ChaseBody->Len = ChaseLen;
    S.PackBody = create<Pack>(Region);
    S.PackBody->In = S.In;
    S.PackBody->Out = S.PackOut;
    S.PackBody->K = PackK;
  }
  // Warm the JIT: every frame kernel compiled (and its footprint proven)
  // before the first submit.
  for (const NamedSpec &N : frameSpecs())
    if (!R->RT->kernelFootprint(N.Spec))
      throw std::runtime_error("no footprint for frame kernel " + N.Name);
  return R;
}

/// Writes frame inputs generated from \p Gen into \p S.
void fillFrame(Slot &S, Rng &Gen) {
  static const float Ks[] = {0.5f, 0.75f, 1.25f, 1.5f};
  static const float Bs[] = {-1.0f, 0.5f, 3.0f, 0.25f};
  for (int I = 0; I < Items; ++I)
    S.In[I] = float(Gen.below(97)) * 0.5f;
  for (int St = 0; St < Stages; ++St) {
    S.K[St] = S.Chain[St]->K = Ks[Gen.below(4)];
    S.B[St] = S.Chain[St]->B = Bs[Gen.below(4)];
  }
  std::vector<int32_t> Perm(HistBins);
  for (int I = 0; I < HistBins; ++I)
    Perm[size_t(I)] = I;
  Gen.shuffle(Perm);
  std::memcpy(S.Keys, Perm.data(), HistBins * sizeof(int32_t));

  // A ring visiting every node once in a seeded order, entered at the
  // array's first node (the points-to analysis resolves the head's pool
  // from an allocation start); values are multiples of 0.5 so the float
  // sum is exact in any order.
  std::vector<int32_t> Ring(ChaseLen - 1);
  for (int I = 1; I < ChaseLen; ++I)
    Ring[size_t(I - 1)] = I;
  Gen.shuffle(Ring);
  Ring.insert(Ring.begin(), 0);
  S.ChaseSum = 0;
  for (int I = 0; I < ChaseLen; ++I) {
    ChaseNode &N = S.Nodes[Ring[size_t(I)]];
    N.Next = &S.Nodes[Ring[size_t((I + 1) % ChaseLen)]];
    N.Val = float(Gen.below(17)) * 0.5f;
    S.ChaseSum += N.Val;
  }
  S.ChaseBody->Head = &S.Nodes[Ring[0]];
}

/// Checks a finished frame's outputs against the host reference. Returns
/// an empty string when they match.
std::string checkFrame(const Slot &S) {
  char Buf[160];
  for (int I = 0; I < Items; ++I) {
    float V = S.In[I];
    for (int St = 0; St < Stages; ++St)
      V = V * S.K[St] + S.B[St];
    if (S.Buf[Stages - 1][I] != V) {
      std::snprintf(Buf, sizeof(Buf), "chain item %d: expected %g, got %g",
                    I, double(V), double(S.Buf[Stages - 1][I]));
      return Buf;
    }
    if (S.PackOut[2 * I] != S.In[I] * PackK ||
        S.PackOut[2 * I + 1] != S.In[I] + PackK) {
      std::snprintf(Buf, sizeof(Buf), "pack item %d differs", I);
      return Buf;
    }
  }
  for (int I = 0; I < ChaseItems; ++I)
    if (S.ChaseOut[I] != S.ChaseSum) {
      std::snprintf(Buf, sizeof(Buf), "chase item %d: expected %g, got %g", I,
                    double(S.ChaseSum), double(S.ChaseOut[I]));
      return Buf;
    }
  return "";
}

struct InFlight {
  uint64_t Frame = 0;
  unsigned SlotIdx = 0;
  double Start = 0;
  std::vector<sched::TaskHandle> Handles;
};

/// Sums the counters of one batch's scheduler into \p Into.
void addStats(sched::Scheduler::Stats &Into,
              const sched::Scheduler::Stats &S) {
  Into.Submitted += S.Submitted;
  Into.Failed += S.Failed;
  Into.VerifyRejected += S.VerifyRejected;
  Into.HazardEdges += S.HazardEdges;
  Into.HybridLaunches += S.HybridLaunches;
  Into.AccumTasks += S.AccumTasks;
  Into.ShadowReused += S.ShadowReused;
  Into.PlacedGpu += S.PlacedGpu;
  Into.PlacedCpu += S.PlacedCpu;
  Into.MaxTasksInFlight = std::max(Into.MaxTasksInFlight, S.MaxTasksInFlight);
}

/// Latencies one session client measured, in microseconds.
struct SessionLog {
  std::vector<double> AllocUs, FreeUs, EndUs;
  uint64_t Rounds = 0;
  std::vector<std::string> Failures;
};

/// Stops and joins the session clients on every way out of the run.
struct SessionClients {
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
  SessionClients() = default;
  SessionClients(const SessionClients &) = delete;
  SessionClients &operator=(const SessionClients &) = delete;
  ~SessionClients() { stop(); }
  void stop() {
    Stop = true;
    for (std::thread &T : Threads)
      if (T.joinable())
        T.join();
  }
};

/// A session client: allocate through Runtime::sharedAlloc, fill and
/// check, run an object-store session the same way, end it, free, pause.
/// Its round spans hang under \p Parent, a span of the producer thread.
void sessionRounds(runtime::Runtime &RT, svm::ObjectStore &Store,
                   uint64_t Seed, uint64_t Parent,
                   const std::atomic<bool> &Stop, SessionLog &Log) try {
  constexpr int Allocs = 8;
  Rng Gen(Seed);
  while (!Stop.load(std::memory_order_relaxed)) {
    Span Round("bench.session_round", Parent);
    void *Ptrs[Allocs] = {};
    size_t Sizes[Allocs] = {};
    for (int A = 0; A < Allocs; ++A) {
      size_t Bytes = 64 * (2 + Gen.below(63));
      if (Bytes == NodeArrayBytes)
        Bytes += 64;
      Span S("svm.alloc");
      Ptrs[A] = RT.sharedAlloc(Bytes, 64);
      Log.AllocUs.push_back(S.end() * 1e6);
      Sizes[A] = Bytes;
      if (!Ptrs[A])
        Log.Failures.push_back("sharedAlloc returned null");
      else
        std::memset(Ptrs[A], A + 1, Bytes);
    }
    uint32_t Session = Store.createSession();
    if (Session == svm::ObjectStore::InvalidRegion) {
      Log.Failures.push_back("createSession found no free region");
    } else {
      for (int A = 0; A < Allocs; ++A) {
        auto *P =
            static_cast<uint32_t *>(Store.allocateInRegion(Session, 4096));
        if (!P) {
          Log.Failures.push_back("session allocation returned null");
          break;
        }
        for (int I = 0; I < 1024; ++I)
          P[I] = uint32_t(I * 2654435761u) ^ uint32_t(A);
        for (int I = 0; I < 1024; ++I)
          if (P[I] != (uint32_t(I * 2654435761u) ^ uint32_t(A))) {
            Log.Failures.push_back("session allocation corrupted");
            break;
          }
      }
      Span S("svm.session_end");
      Store.endSession(Session);
      Log.EndUs.push_back(S.end() * 1e6);
    }
    for (int A = 0; A < Allocs; ++A) {
      if (!Ptrs[A])
        continue;
      const auto *B = static_cast<const unsigned char *>(Ptrs[A]);
      for (size_t I = 0; I < Sizes[A]; ++I)
        if (B[I] != A + 1) {
          Log.Failures.push_back("sharedAlloc block overwritten");
          break;
        }
      Span S("svm.free");
      RT.sharedFree(Ptrs[A]);
      Log.FreeUs.push_back(S.end() * 1e6);
    }
    ++Log.Rounds;
    Round.end();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
} catch (const std::exception &E) {
  Log.Failures.push_back(std::string("exception: ") + E.what());
}

} // namespace

Result perfbench::runSchedFrames(const Options &O) {
  Result R;
  const auto Machine = gpusim::MachineConfig::ultrabook();

  sched::SchedulerOptions SO;
  SO.NumWorkers = O.Threads.Workers;
  SO.MaxQueued = FramesInFlight * TasksPerFrame;

  Rng Gen(O.Seed);
  std::vector<double> SetupTimes, Walls, Busy, FrameMs, SubmitUs, QueueMs, ExecMs,
      CompileMs;
  std::vector<SessionLog> SessionLogs;
  uint64_t Frames = 0, PeakBytes = 0, BadFrees = 0;
  double Fragmentation = 0;
  sched::Scheduler::Stats St;
  std::unique_ptr<Rig> Rg;
  std::deque<InFlight> Window;
  double BatchBusy = 0;
  // Waits for the oldest frame, checks it, and records its latency.
  auto Retire = [&] {
    InFlight F = std::move(Window.front());
    Window.pop_front();
    Span Wait("sched.wait");
    bool TasksOk = true;
    for (const sched::TaskHandle &H : F.Handles) {
      const sched::TaskResult &TR = H.wait();
      QueueMs.push_back(TR.Timing.QueueSeconds * 1e3);
      ExecMs.push_back(TR.Timing.ExecuteSeconds * 1e3);
      CompileMs.push_back(TR.Timing.CompileSeconds * 1e3);
      BatchBusy += TR.Timing.ExecuteSeconds;
      if (!TR.Ok) {
        R.fail("frame " + std::to_string(F.Frame) + " task " + TR.Label +
               ": " + TR.Error);
        TasksOk = false;
      }
    }
    Wait.end();
    FrameMs.push_back((now() - F.Start) * 1e3);
    R.attempt();
    std::string Error = TasksOk ? checkFrame(Rg->Slots[F.SlotIdx]) : "";
    if (!Error.empty())
      R.fail("frame " + std::to_string(F.Frame) + ": " + Error);
  };

  const double Start = now();
  do {
    // Every batch is one frame set on a fresh region, runtime (JIT warmed
    // by buildRig) and scheduler, like one sched_pipeline run: no
    // placement or hybrid-split history carries over, so a run averages
    // independent batches instead of following one history. Building
    // the rig is the set-up; timing it before every batch samples it
    // across the whole run rather than in the first milliseconds.
    Rg.reset();
    try {
      Span Setup("bench.setup");
      R.attempt();
      Rg = buildRig(Machine, O.Threads.SimThreads);
      SetupTimes.push_back(Setup.end());
    } catch (const std::exception &E) {
      R.fail(std::string("set-up: ") + E.what());
      break;
    }
    runtime::Runtime &RT = *Rg->RT;
    svm::SharedRegion &Region = *Rg->Region;
    svm::ObjectStore *Store = Region.objectStore();
    if (!Store) {
      R.fail("the shared region has no object store");
      break;
    }
    const size_t FirstLog = SessionLogs.size();
    SessionLogs.resize(FirstLog + O.Threads.Sessions);
    const uint64_t SessionSeed = Gen.next();
    Span ClientSpan("bench.session_clients");
    SessionClients Sessions;
    for (unsigned C = 0; C < O.Threads.Sessions; ++C)
      Sessions.Threads.emplace_back([&, C] {
        sessionRounds(RT, *Store, SessionSeed + C, ClientSpan.id(),
                      Sessions.Stop, SessionLogs[FirstLog + C]);
      });

    Span Batch("bench.batch");
    sched::Scheduler Sched(RT, SO);
    BatchBusy = 0;
    for (unsigned B = 0; B < BatchFrames; ++B, ++Frames) {
      if (Window.size() == FramesInFlight)
        Retire();
      const unsigned SlotIdx = unsigned(Frames % FramesInFlight);
      Slot &S = Rg->Slots[SlotIdx];
      fillFrame(S, Gen);
      Span FrameSpan("bench.frame_submit");
      InFlight F;
      F.Frame = Frames;
      F.SlotIdx = SlotIdx;
      F.Start = now();
      auto Submit = [&](const char *Label, const runtime::KernelSpec &Spec,
                        int64_t N, void *Body, sched::AccessSet Access) {
        sched::TaskDesc D;
        D.Spec = Spec;
        D.N = N;
        D.BodyPtr = Body;
        D.Label = "frame" + std::to_string(Frames) + "/" + Label;
        Span Sub("sched.submit");
        F.Handles.push_back(Sched.submit(std::move(D), std::move(Access)));
        SubmitUs.push_back(Sub.end() * 1e6);
      };
      for (int K = 0; K < Stages; ++K)
        Submit("axpb", specOf<Axpb>(), Items, S.Chain[K],
               sched::AccessSet()
                   .readArray(S.Chain[K]->In, size_t(Items))
                   .writeArray(S.Chain[K]->Out, size_t(Items)));
      Submit("hist", specOf<Hist>(), HistBins, S.HistBody,
             sched::AccessSet()
                 .readArray(S.Keys, HistBins)
                 .accumulateArray(Rg->Bins, HistBins));
      svm::MemRange Hull = Region.poolExtent(S.Nodes);
      Submit("chase", specOf<Chase>(), ChaseItems, S.ChaseBody,
             sched::AccessSet()
                 .read(reinterpret_cast<const void *>(Hull.Begin),
                       Hull.size())
                 .writeArray(S.ChaseOut, ChaseItems));
      Submit("pack", specOf<Pack>(), Items, S.PackBody,
             sched::AccessSet()
                 .readArray(S.In, size_t(Items))
                 .writeArray(S.PackOut, 2 * size_t(Items)));
      Window.push_back(std::move(F));
    }
    while (!Window.empty())
      Retire();
    Sched.drain();
    // Every frame of the batch added one to every bin.
    R.attempt();
    for (int B = 0; B < HistBins; ++B)
      if (Rg->Bins[B] != int32_t(BatchFrames)) {
        R.fail("bin " + std::to_string(B) + ": expected " +
               std::to_string(BatchFrames) + ", got " +
               std::to_string(Rg->Bins[B]));
        break;
      }
    addStats(St, Sched.stats());
    Walls.push_back(Batch.end());
    Busy.push_back(BatchBusy);
    Sessions.stop();
    ClientSpan.end();
    Fragmentation = std::max(Fragmentation, Store->fragmentation());
    PeakBytes = std::max<uint64_t>(PeakBytes, Region.stats().PeakBytes);
    BadFrees += Store->badFrees();
  } while (now() - Start + Walls.back() <= O.Seconds);
  const double Elapsed = now() - Start;
  if (Walls.empty())
    return R;

  if (St.Failed != 0 || St.VerifyRejected != 0)
    R.fail("scheduler reported " + std::to_string(St.Failed) +
           " failed and " + std::to_string(St.VerifyRejected) +
           " verify-rejected tasks");
  for (const SessionLog &L : SessionLogs) {
    R.attempt(L.Rounds);
    for (const std::string &F : L.Failures)
      R.fail("session client: " + F);
  }

  R.e2e("setup_s", median(SetupTimes), "s");
  R.e2e("wall_s", median(Walls), "s");
  reportDistribution(R, /*EndToEnd=*/true, "op_ms", distribution(FrameMs),
                     "ms");
  R.e2e("ops_per_s", double(Frames) / Elapsed, "1/s");
  R.e2e("busy_s", median(Busy), "s");
  std::printf("sched_frames: %llu frames in %.2f s, %llu tasks, %llu hazard "
              "edges, %llu hybrid, placed %llu gpu / %llu cpu, %llu "
              "accumulate, max %u in flight\n",
              (unsigned long long)Frames, Elapsed,
              (unsigned long long)St.Submitted,
              (unsigned long long)St.HazardEdges,
              (unsigned long long)St.HybridLaunches,
              (unsigned long long)St.PlacedGpu,
              (unsigned long long)St.PlacedCpu,
              (unsigned long long)St.AccumTasks, St.MaxTasksInFlight);

  if (!trace::enabled())
    return R;
  reportDistribution(R, /*EndToEnd=*/false, "sched.submit_us",
                     distribution(SubmitUs), "us");
  R.layer("sched.queue_ms", median(QueueMs), "ms");
  R.layer("sched.task_exec_ms", median(ExecMs), "ms");
  R.layer("sched.task_compile_ms", median(CompileMs), "ms");
  R.layer("sched.hazard_edges", double(St.HazardEdges), "count");
  R.layer("sched.placed_gpu", double(St.PlacedGpu), "count");
  R.layer("sched.placed_cpu", double(St.PlacedCpu), "count");
  R.layer("sched.hybrid_launches", double(St.HybridLaunches), "count");
  R.layer("sched.accum_tasks", double(St.AccumTasks), "count");
  R.layer("sched.shadow_reuse_ratio",
          St.AccumTasks ? double(St.ShadowReused) / double(St.AccumTasks) : 0,
          "ratio");
  R.layer("sched.max_in_flight", double(St.MaxTasksInFlight), "count");

  std::vector<double> AllocUs, FreeUs, EndUs;
  for (const SessionLog &L : SessionLogs) {
    AllocUs.insert(AllocUs.end(), L.AllocUs.begin(), L.AllocUs.end());
    FreeUs.insert(FreeUs.end(), L.FreeUs.begin(), L.FreeUs.end());
    EndUs.insert(EndUs.end(), L.EndUs.begin(), L.EndUs.end());
  }
  R.layer("svm.alloc_us", median(AllocUs), "us");
  R.layer("svm.free_us", median(FreeUs), "us");
  R.layer("svm.session_end_us", median(EndUs), "us");
  R.layer("svm.fragmentation", Fragmentation, "ratio");
  R.layer("svm.peak_bytes", double(PeakBytes), "bytes");
  R.layer("svm.bad_frees", double(BadFrees), "count");

  probeCompileStages(R, frameSpecs(), /*Reps=*/3, /*ReportHits=*/true);
  return R;
}
