// Kepler-class GPU configuration shared by the timing simulator (the
// "hardware" substrate standing in for the paper's Tesla K80) and the
// analytical models.
//
// All times are in core-clock cycles. We document the convention
// 1 cycle == 1 ns (a 1 GHz core clock) so the paper's nanosecond latencies
// (352/742/1008 ns row-buffer hit/miss/conflict, Sec. III-C2) map directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/mem_space.hpp"
#include "common/status.hpp"

namespace gpuhms {

// Row-buffer management policy of the memory controller. Open-page (the
// paper's assumption and the default) keeps rows open between accesses,
// producing the hit/miss/conflict latency levels Algorithm 1 detects;
// closed-page auto-precharges after every access, flattening them.
enum class PagePolicy { Open, Closed };

struct DramTiming {
  PagePolicy page_policy = PagePolicy::Open;
  // Fixed pipeline latency between an SM and the DRAM bank (interconnect,
  // memory controller front end, data return), not occupying the bank.
  std::uint64_t pipeline_lat = 316;
  // Bank-occupancy (service) times by row-buffer outcome. Chosen so that the
  // unloaded end-to-end latencies are 352 / 742 / 1008 cycles, matching the
  // paper's K80 measurements in shape and magnitude.
  std::uint64_t row_hit_service = 36;
  std::uint64_t row_miss_service = 426;    // activate a closed row
  std::uint64_t row_conflict_service = 692;  // write back open row + activate
};

// Which physical address bits play which DRAM role (Algorithm 1's output,
// expressed as data). Interpreted by dram/arch_mapping(); the defaults mirror
// the Kepler-class GDDR5 layout that kepler_mapping() has always hardwired,
// so a default-constructed GpuArch decodes bit-identically to the historical
// path. `bank_xor_bits` optionally XOR-swizzles the bank index with
// higher-order (row) bits, the permutation-based interleaving HBM-class
// controllers use to spread row-sequential streams over channels; empty means
// no swizzle. Swizzled maps require a power-of-two bank count (the XOR is a
// within-field bijection; combining it with modulo folding would alias).
struct AddressMapSpec {
  int transaction_bits = 7;  // 128 B transactions
  std::vector<int> bank_bits{7, 8, 9, 10, 11, 12, 13};
  std::vector<int> column_bits{14, 15, 16, 17};
  std::vector<int> row_bits{18, 19, 20, 21, 22, 23,
                            24, 25, 26, 27, 28, 29, 30, 31, 32, 33};
  std::vector<int> bank_xor_bits;  // same length as bank_bits when non-empty
};

struct GpuArch {
  // --- Compute fabric -----------------------------------------------------
  int num_sms = 13;             // GK210 die of a K80
  int warp_size = 32;
  int max_warps_per_sm = 64;
  int max_blocks_per_sm = 16;
  int simd_width = 32;          // lanes issued per slot (single issue model)

  // Instruction latencies (cycles).
  std::uint64_t ialu_lat = 9;
  std::uint64_t falu_lat = 9;
  std::uint64_t dalu_lat = 16;  // double-precision pipe
  std::uint64_t sfu_lat = 18;
  std::uint64_t avg_inst_lat = 9;  // used by Eq. 13/15

  // --- On-chip memories ---------------------------------------------------
  std::uint64_t shared_lat = 44;          // shared-memory load-to-use
  int shared_banks = 32;
  // Extra cycles a shared access serializes per additional conflicting word.
  std::uint64_t shared_conflict_penalty = 4;
  std::size_t shared_capacity = 48 * 1024;    // per SM, bytes
  std::size_t constant_capacity = 64 * 1024;  // total constant memory

  // Caches. Line size is uniform; the paper (and Sim et al.) use a single
  // cache hit latency for all caches (Eq. 5 discussion) — we keep per-cache
  // sizes but a shared hit latency.
  std::size_t cache_line = 128;
  std::uint64_t cache_hit_lat = 160;     // L2-class hit latency
  // Hardware hit latencies of the per-SM read-only caches. The analytical
  // model deliberately ignores the difference and uses cache_hit_lat for all
  // caches (the paper's Eq. 5 simplification); the simulator keeps them.
  std::uint64_t const_cache_hit_lat = 48;
  std::uint64_t tex_cache_hit_lat = 104;
  std::size_t l2_capacity = 1536 * 1024;  // shared across SMs
  int l2_ways = 16;
  std::size_t const_cache_capacity = 8 * 1024;  // per SM
  int const_cache_ways = 4;
  std::size_t tex_cache_capacity = 24 * 1024;   // per SM
  int tex_cache_ways = 8;

  // --- Off-chip GDDR ------------------------------------------------------
  // The paper's Kepler has M=6 memory partitions; we use 8 so the bank count
  // is a power of two (128 banks) and the 7-bit bank field of the address
  // mapping decodes without modulo folding — folding aliases two address
  // ranges onto the low banks and row-thrashes them, a pathology real
  // controllers avoid with hashing that would defeat Algorithm 1.
  int dram_channels = 8;
  int banks_per_channel = 16;
  DramTiming dram;
  // Byte-address bit roles for this architecture's memory controller
  // (consumed by dram/arch_mapping(), which folds the decoded bank field
  // modulo total_banks()).
  AddressMapSpec addr_map;

  int total_banks() const { return dram_channels * banks_per_channel; }

  // Unloaded end-to-end DRAM latencies as a microbenchmark would observe
  // them (Algorithm 1 measures exactly these).
  std::uint64_t unloaded_row_hit() const {
    return dram.pipeline_lat + dram.row_hit_service;
  }
  std::uint64_t unloaded_row_miss() const {
    return dram.pipeline_lat + dram.row_miss_service;
  }
  std::uint64_t unloaded_row_conflict() const {
    return dram.pipeline_lat + dram.row_conflict_service;
  }
};

// Alignment of each array's per-block shared-memory segment (the allocator
// rounds every shared slice up to it).
inline constexpr std::uint64_t kSharedAlign = 128;

// The trace skeleton folds shared-memory bank conflicts once per kernel, on
// slice-local offsets (TraceSkeleton::shared_fold). That fold is exact only
// when the kSharedAlign-byte slice base shifts 4-byte words by whole bank
// rotations. validate() rejects a bank count that breaks this, and the fold
// CHECKs it.
constexpr bool shared_banks_foldable(int shared_banks) {
  return shared_banks > 0 &&
         kSharedAlign % (4 * static_cast<std::uint64_t>(shared_banks)) == 0;
}

// Most ways a cache may have: the cache model keeps each set's dirty bits in
// one 64-bit mask (SetAssocCache).
inline constexpr int kMaxCacheWays = 64;

// Most SMs an arch may have: the SoA lowering stores each record's SM index
// in 16 bits (SoaRecord::sm).
inline constexpr int kMaxSms = 1 << 16;

// The default configuration used everywhere unless a test overrides fields.
const GpuArch& kepler_arch();

// A Fermi-class preset (the other architecture the paper names: M = 6
// partitions on Kepler *and* Fermi): fewer, smaller SMs, smaller L2,
// slightly slower DRAM. Useful for the generality experiments.
const GpuArch& fermi_arch();

// Checks a (possibly user-built) configuration for values the simulator and
// models cannot operate on: non-positive structural counts, a warp size
// other than the DSL's fixed 32 lanes, a non-power-of-two cache line, zero
// latencies/capacities, more than kMaxSms SMs, a shared bank count the conflict fold cannot handle
// (shared_banks_foldable), a cache with more than kMaxCacheWays ways or whose
// capacity is not a whole, positive number of cache_line x ways sets.
// Returns INVALID_ARGUMENT naming the offending field.
Status validate(const GpuArch& arch);

}  // namespace gpuhms
