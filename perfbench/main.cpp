//===- main.cpp - perfbench binary ----------------------------------------===//
//
// Runs one workload and prints its result record as the last line of
// standard output, prefixed "PERFBENCH_RESULT ". perfbench/run.py builds
// this binary, runs it and turns the record into the benchmark's output.
//
//   perfbench --workload paper_matrix|compile_storm|sched_frames
//             --seed N --seconds S [--trace FILE] [--modelled-ref FILE]
//
// Thread counts are derived from the CPUs this process may use
// (planThreads); a plan whose active threads exceed them is refused
// (exit 2).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  char Buf[64];
  for (size_t I = 0; I < Ms.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", Ms[I].Value);
    Out += (I ? ", " : "") + jsonString(Ms[I].Name) + ": {\"value\": " + Buf +
           ", \"unit\": " + jsonString(Ms[I].Unit) + "}";
  }
  return Out + "}";
}

[[noreturn]] void usage(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      usage("missing value for " + A);
    const char *V = argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V);
    else if (A == "--trace")
      O.TracePath = V;
    else if (A == "--modelled-ref")
      O.ModelledRef = V;
    else
      usage("unknown option " + A);
  }

  const unsigned N = availableCpus();
  O.Threads = planThreads(O.Workload, N);
  const ThreadPlan &P = O.Threads;
  if (P.Active == 0)
    usage("unknown workload '" + O.Workload +
          "' (paper_matrix, compile_storm, sched_frames)");
  if (P.Active > N) {
    std::fprintf(stderr,
                 "perfbench: %u active threads needed but only %u CPUs are "
                 "available; refusing to run\n",
                 P.Active, N);
    return 2;
  }

  const std::string RunId = O.Workload + "/seed" + std::to_string(O.Seed);
  const bool Traced = !O.TracePath.empty();
  if (Traced)
    trace::enable(RunId);

  Result R;
  {
    Span Run("bench.run");
    if (O.Workload == "paper_matrix")
      R = runPaperMatrix(O);
    else if (O.Workload == "compile_storm")
      R = runCompileStorm(O);
    else
      R = runSchedFrames(O);
  }
  R.e2e("peak_rss_mb", peakRssMb(), "MiB");
  R.e2e("ok_ratio",
        R.Attempted ? double(R.Attempted - R.Failed) / double(R.Attempted) : 0,
        "ratio");

  if (Traced) {
    R.layer("trace.spans", double(trace::spanCount()), "count");
    std::string Error;
    if (!trace::write(O.TracePath, &Error))
      R.fail("trace: " + Error);
  }

  char Budget[256];
  std::snprintf(Budget, sizeof(Budget),
                "{\"nproc\": %u, \"active_threads\": %u, \"matrix_jobs\": %u, "
                "\"sim_threads_per_launch\": %u, \"sched_workers\": %u, "
                "\"session_clients\": %u, \"storm_clients\": %u}",
                N, P.Active, P.Jobs, P.SimThreads, P.Workers, P.Sessions,
                P.Clients);
  R.info("threads", Budget);

  for (const std::string &F : R.Failures)
    std::fprintf(stderr, "perfbench: FAILED %s\n", F.c_str());

  std::string Json = "{\"run\": " + jsonString(RunId) +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"failures\": [";
  for (size_t I = 0; I < R.Failures.size(); ++I)
    Json += (I ? ", " : "") + jsonString(R.Failures[I]);
  Json += "], \"end_to_end\": " + metricsJson(R.EndToEnd) +
          ", \"per_layer\": " + metricsJson(R.PerLayer) + ", \"info\": {";
  for (size_t I = 0; I < R.Info.size(); ++I)
    Json += (I ? ", " : "") + jsonString(R.Info[I].first) + ": " +
            R.Info[I].second;
  Json += "}}";
  std::printf("PERFBENCH_RESULT %s\n", Json.c_str());
  return R.Failed ? 1 : 0;
}
