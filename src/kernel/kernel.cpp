#include "kernel/kernel.hpp"

#include <string>
#include <unordered_set>

namespace gpuhms {

Status validate(const KernelInfo& k) {
  const std::string who =
      "kernel '" + (k.name.empty() ? std::string("<unnamed>") : k.name) + "'";
  if (k.fn == nullptr)
    return InvalidArgumentError(who + " has no warp function (fn is null)");
  if (k.num_blocks < 1)
    return InvalidArgumentError(who + " has num_blocks " +
                                std::to_string(k.num_blocks) +
                                "; must be >= 1");
  if (k.threads_per_block < 1)
    return InvalidArgumentError(who + " has threads_per_block " +
                                std::to_string(k.threads_per_block) +
                                "; must be >= 1");
  if (k.arrays.empty())
    return InvalidArgumentError(who + " declares no arrays; placement search "
                                      "has nothing to optimize");
  std::unordered_set<std::string_view> names;
  for (std::size_t i = 0; i < k.arrays.size(); ++i) {
    const ArrayDecl& a = k.arrays[i];
    const std::string where = who + " array #" + std::to_string(i) + " ('" +
                              a.name + "')";
    if (a.name.empty())
      return InvalidArgumentError(who + " array #" + std::to_string(i) +
                                  " has an empty name");
    if (!names.insert(a.name).second)
      return InvalidArgumentError(where + " duplicates an earlier array name");
    if (a.elems == 0)
      return InvalidArgumentError(where + " has zero elements");
    if (a.shared_slice_elems > a.elems)
      return InvalidArgumentError(
          where + " has shared_slice_elems " +
          std::to_string(a.shared_slice_elems) + " > elems " +
          std::to_string(a.elems));
    if (a.width > a.elems)
      return InvalidArgumentError(where + " has row width " +
                                  std::to_string(a.width) + " > elems " +
                                  std::to_string(a.elems));
  }
  return OkStatus();
}

int KernelInfo::array_index(std::string_view name_) const {
  for (std::size_t i = 0; i < arrays.size(); ++i)
    if (arrays[i].name == name_) return static_cast<int>(i);
  GPUHMS_CHECK_MSG(false, "unknown array name");
  return -1;
}

const ArrayDecl& KernelInfo::array(std::string_view name_) const {
  return arrays[static_cast<std::size_t>(array_index(name_))];
}

WarpCtx record_warp(const KernelInfo& k, std::int64_t block,
                    int warp_in_block, std::vector<DslOp>& ops) {
  GPUHMS_CHECK(k.fn != nullptr);
  WarpCtx ctx;
  ctx.block = block;
  ctx.warp_in_block = warp_in_block;
  ctx.threads_per_block = k.threads_per_block;
  ctx.num_blocks = k.num_blocks;
  const int remaining = k.threads_per_block - warp_in_block * kWarpSize;
  ctx.lanes_active = remaining >= kWarpSize ? kWarpSize : remaining;
  WarpEmitter em(ctx, std::move(ops));
  k.fn(em, ctx);
  ops = em.take();
  return ctx;
}

}  // namespace gpuhms
