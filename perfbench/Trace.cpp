//===- Trace.cpp ----------------------------------------------------------===//

#include "Trace.h"
#include "Common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

using namespace perfbench;

namespace {

struct Record {
  const char *Name;
  uint64_t Id, Parent;
  int64_t StartNs, EndNs;
  uint32_t Tid;
};

/// One thread's spans. Only the owning thread touches it while the run is
/// going; readers (totals, write) run after the workload joined its
/// threads.
struct ThreadBuf {
  uint32_t Tid = 0;
  std::vector<Record> Records;
  std::vector<uint64_t> Open; ///< Stack of open span ids.
};

std::atomic<bool> Enabled{false};
std::string RunId;
std::atomic<uint64_t> NextId{1};
std::mutex BufMutex;
std::vector<std::unique_ptr<ThreadBuf>> Bufs; // guarded by BufMutex
thread_local ThreadBuf *Local = nullptr;

const auto Origin = std::chrono::steady_clock::now();

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Origin)
      .count();
}

ThreadBuf &localBuf() {
  if (!Local) {
    std::lock_guard<std::mutex> Lock(BufMutex);
    Bufs.push_back(std::make_unique<ThreadBuf>());
    Bufs.back()->Tid = uint32_t(Bufs.size());
    Local = Bufs.back().get();
  }
  return *Local;
}

std::vector<Record> allRecords() {
  std::lock_guard<std::mutex> Lock(BufMutex);
  std::vector<Record> All;
  for (const auto &B : Bufs)
    All.insert(All.end(), B->Records.begin(), B->Records.end());
  return All;
}

} // namespace

void trace::enable(const std::string &Id) {
  RunId = Id;
  Enabled = true;
}

bool trace::enabled() { return Enabled.load(std::memory_order_relaxed); }

uint64_t trace::current() {
  if (!enabled())
    return 0;
  ThreadBuf &B = localBuf();
  return B.Open.empty() ? 0 : B.Open.back();
}

uint64_t trace::spanCount() {
  std::lock_guard<std::mutex> Lock(BufMutex);
  uint64_t N = 0;
  for (const auto &B : Bufs)
    N += B->Records.size();
  return N;
}

bool trace::write(const std::string &Path, std::string *Error) {
  {
    std::lock_guard<std::mutex> Lock(BufMutex);
    for (const auto &B : Bufs)
      if (!B->Open.empty()) {
        *Error = "span " + std::to_string(B->Open.back()) +
                 " still open on thread " + std::to_string(B->Tid);
        return false;
      }
  }
  std::vector<Record> All = allRecords();
  struct Event {
    int64_t Ts;
    bool Begin;
    size_t Rec;
  };
  std::vector<Event> Events;
  Events.reserve(All.size() * 2);
  for (size_t I = 0; I < All.size(); ++I) {
    Events.push_back({All[I].StartNs, true, I});
    Events.push_back({All[I].EndNs, false, I});
  }
  // At equal timestamps ends come before begins, begins open outer spans
  // (older ids) first and ends close inner spans (newer ids) first.
  auto Key = [&](const Event &E) {
    int64_t Id = int64_t(All[E.Rec].Id);
    return std::make_tuple(E.Ts, E.Begin ? 1 : 0, E.Begin ? Id : -Id);
  };
  std::sort(Events.begin(), Events.end(),
            [&](const Event &A, const Event &B) { return Key(A) < Key(B); });
  const std::string Run = jsonString(RunId);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    *Error = "cannot write " + Path;
    return false;
  }
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":%s},"
                  "\"traceEvents\":[\n",
               Run.c_str());
  for (size_t I = 0; I < Events.size(); ++I) {
    const Record &R = All[Events[I].Rec];
    if (Events[I].Begin)
      std::fprintf(F,
                   "{\"name\":\"%s\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":1,"
                   "\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu,"
                   "\"run\":%s}}",
                   R.Name, double(R.StartNs) * 1e-3, R.Tid,
                   (unsigned long long)R.Id, (unsigned long long)R.Parent,
                   Run.c_str());
    else
      std::fprintf(F,
                   "{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,"
                   "\"tid\":%u,\"args\":{\"id\":%llu}}",
                   R.Name, double(R.EndNs) * 1e-3, R.Tid,
                   (unsigned long long)R.Id);
    std::fputs(I + 1 < Events.size() ? ",\n" : "\n", F);
  }
  std::fputs("]}\n", F);
  if (std::fclose(F) != 0) {
    *Error = "cannot write " + Path;
    return false;
  }
  return true;
}

Span::Span(const char *Name, uint64_t ParentId) : Name(Name) {
  StartNs = nowNs();
  if (!trace::enabled())
    return;
  ThreadBuf &B = localBuf();
  Id = NextId.fetch_add(1, std::memory_order_relaxed);
  Parent = ParentId != ~0ull ? ParentId : (B.Open.empty() ? 0 : B.Open.back());
  B.Open.push_back(Id);
}

double Span::end() {
  if (EndNs < 0) {
    EndNs = nowNs();
    if (Id) {
      ThreadBuf &B = localBuf();
      auto It = std::find(B.Open.begin(), B.Open.end(), Id);
      if (It != B.Open.end())
        B.Open.erase(It);
      B.Records.push_back({Name, Id, Parent, StartNs, EndNs, B.Tid});
    }
  }
  return double(EndNs - StartNs) * 1e-9;
}
