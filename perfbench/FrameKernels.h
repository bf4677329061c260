//===- FrameKernels.h - Kernels of one scheduler frame ---------*- C++ -*-===//
///
/// \file
/// The four stage kernels of a sched_frames frame, the same shape as the
/// repository's scheduler pipeline: an Axpb chain (out = in * k + b), a
/// histogram accumulating into bins shared by every frame, a pointer chase
/// over a pool-allocated ring, and a Pack stage writing interleaved pairs
/// (the strided AoS walk the SOA transform rewrites). Host structs mirror
/// the CKL classes field for field; compile_storm compiles the same specs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_FRAMEKERNELS_H
#define PERFBENCH_FRAMEKERNELS_H

#include "Common.h"

#include <cstdint>

namespace perfbench {

struct Axpb {
  float *In;
  float *Out;
  float K;
  float B;
  static const char *source() {
    return R"(
      class Axpb {
      public:
        float* in;
        float* out;
        float k;
        float b;
        void operator()(int i) {
          out[i] = in[i] * k + b;
        }
      };
    )";
  }
  static const char *name() { return "Axpb"; }
};

/// bins[keys[i]] += 1; keys is a permutation within one launch, so the
/// only sharing is across frames, which the accumulate protocol merges.
struct Hist {
  int32_t *Keys;
  int32_t *Bins;
  static const char *source() {
    return R"(
      class Hist {
      public:
        int* keys;
        int* bins;
        void operator()(int i) {
          int h = keys[i];
          bins[h] = bins[h] + 1;
        }
      };
    )";
  }
  static const char *name() { return "Hist"; }
};

struct ChaseNode {
  ChaseNode *Next;
  float Val;
};

/// out[i] = sum of val over a len-step walk from head.
struct Chase {
  ChaseNode *Head;
  float *Out;
  int32_t Len;
  static const char *source() {
    return R"(
      class ChaseNode {
      public:
        ChaseNode* next;
        float val;
      };
      class Chase {
      public:
        ChaseNode* head;
        float* out;
        int len;
        void operator()(int i) {
          ChaseNode* n = head;
          float s = 0.0f;
          for (int k = 0; k < len; k++) {
            s = s + n->val;
            n = n->next;
          }
          out[i] = s;
        }
      };
    )";
  }
  static const char *name() { return "Chase"; }
};

/// out[2i] = in[i] * k, out[2i+1] = in[i] + k.
struct Pack {
  float *In;
  float *Out;
  float K;
  static const char *source() {
    return R"(
      class Pack {
      public:
        float* in;
        float* out;
        float k;
        void operator()(int i) {
          float v = in[i];
          out[2*i] = v * k;
          out[2*i+1] = v + k;
        }
      };
    )";
  }
  static const char *name() { return "Pack"; }
};

template <typename BodyT> concord::runtime::KernelSpec specOf() {
  return {BodyT::source(), BodyT::name()};
}

/// The frame kernels as named specs, in stage order.
inline std::vector<NamedSpec> frameSpecs() {
  return {{Axpb::name(), specOf<Axpb>()},
          {Hist::name(), specOf<Hist>()},
          {Chase::name(), specOf<Chase>()},
          {Pack::name(), specOf<Pack>()}};
}

} // namespace perfbench

#endif // PERFBENCH_FRAMEKERNELS_H
