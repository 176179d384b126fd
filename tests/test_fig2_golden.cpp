// Golden test for the paper's Fig. 2: the exact lowered instruction
// sequences of the vecAdd kernel under the four placements of its input
// vectors. This pins down the addressing-mode lowering end to end — the
// SASS-level structure the paper derives its 2/0/1/1 instruction counts
// from.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/generator.hpp"
#include "workloads/workloads.hpp"

namespace gpuhms {
namespace {

// Compact signature of a warp's lowered trace: one token per op.
//   i = IAlu, a = addressing IAlu, f = FAlu, Y = sync
//   Lg/Lc/Lt/L2/Ls = load from global/constant/tex1D/tex2D/shared
//   Sg/Ss          = store to global/shared
std::string signature(const std::vector<TraceOp>& ops) {
  std::string sig;
  for (const TraceOp& op : ops) {
    switch (op.cls) {
      case OpClass::IAlu:
        sig += op.is_addr_calc ? "a" : "i";
        break;
      case OpClass::FAlu: sig += "f"; break;
      case OpClass::DAlu: sig += "d"; break;
      case OpClass::Sfu: sig += "u"; break;
      case OpClass::Sync: sig += "Y"; break;
      case OpClass::Load:
      case OpClass::Store: {
        sig += op.cls == OpClass::Load ? "L" : "S";
        switch (op.space) {
          case MemSpace::Global: sig += "g"; break;
          case MemSpace::Constant: sig += "c"; break;
          case MemSpace::Texture1D: sig += "t"; break;
          case MemSpace::Texture2D: sig += "2"; break;
          case MemSpace::Shared: sig += "s"; break;
        }
        break;
      }
    }
  }
  return sig;
}

std::string warp0_signature(const KernelInfo& k, const DataPlacement& p) {
  const TraceMaterializer mat(k, p, kepler_arch());
  const TraceSkeleton skeleton(k, kepler_arch());
  const auto traces = mat.generate(skeleton, 0, 1);
  return signature(traces.front().ops);
}

class Fig2 : public ::testing::Test {
 protected:
  Fig2() : kernel_(workloads::make_vecadd(1 << 12)),
           base_(DataPlacement::defaults(kernel_)),
           ia_(kernel_.array_index("a")), ib_(kernel_.array_index("b")) {}

  DataPlacement both(MemSpace s) const {
    return base_.with(ia_, s).with(ib_, s);
  }

  KernelInfo kernel_;
  DataPlacement base_;
  int ia_, ib_;
};

TEST_F(Fig2, GlobalPlacement) {
  // Fig. 2a: register-indirect addressing — an IMAD pair (aa) per reference.
  // v's store is always global.
  EXPECT_EQ(warp0_signature(kernel_, both(MemSpace::Global)),
            "i" "aaLg" "aaLg" "f" "aaSg");
}

TEST_F(Fig2, TexturePlacement) {
  // Fig. 2b: tex1Dfetch consumes the element index directly — no addressing
  // instructions for the loads.
  EXPECT_EQ(warp0_signature(kernel_, both(MemSpace::Texture1D)),
            "i" "Lt" "Lt" "f" "aaSg");
}

TEST_F(Fig2, ConstantPlacement) {
  // Fig. 2c: indexed-absolute addressing — one SHL per reference.
  EXPECT_EQ(warp0_signature(kernel_, both(MemSpace::Constant)),
            "i" "aLc" "aLc" "f" "aaSg");
}

TEST_F(Fig2, SharedPlacement) {
  // Fig. 2d: one SHL per reference, preceded by the one-time staging
  // copy-in (global load + shared store per array) and a barrier — the
  // "initialization phase" of Sec. III-B.
  EXPECT_EQ(warp0_signature(kernel_, both(MemSpace::Shared)),
            "aaLgSs" "aaLgSs" "Y" "i" "aLs" "aLs" "f" "aaSg");
}

TEST_F(Fig2, ExecutedInstructionOrdering) {
  // The per-placement executed-instruction counts order exactly as the
  // paper's 2/0/1/1 addressing table implies: T < C < G (< S, which adds
  // the staging phase).
  const auto len = [&](MemSpace s) {
    return warp0_signature(kernel_, both(s)).size();
  };
  EXPECT_LT(len(MemSpace::Texture1D), len(MemSpace::Constant));
  EXPECT_LT(len(MemSpace::Constant), len(MemSpace::Global));
  EXPECT_LT(len(MemSpace::Global), len(MemSpace::Shared));
}

TEST_F(Fig2, MixedPlacementComposes) {
  const auto p = base_.with(ia_, MemSpace::Texture1D)
                     .with(ib_, MemSpace::Constant);
  EXPECT_EQ(warp0_signature(kernel_, p), "i" "Lt" "aLc" "f" "aaSg");
}

}  // namespace
}  // namespace gpuhms
