#include "arch/gpu_arch.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace gpuhms {

const GpuArch& kepler_arch() {
  static const GpuArch arch{};
  return arch;
}

const GpuArch& fermi_arch() {
  static const GpuArch arch = [] {
    GpuArch a;
    a.num_sms = 14;            // GF110-like SM count
    a.max_warps_per_sm = 48;
    a.max_blocks_per_sm = 8;
    a.l2_capacity = 768 * 1024;
    a.shared_capacity = 48 * 1024;
    a.tex_cache_capacity = 12 * 1024;
    a.dram_channels = 8;       // power-of-two field; see dram_channels note
    a.dram.row_hit_service = 44;
    a.dram.row_miss_service = 520;
    a.dram.row_conflict_service = 840;
    a.dram.pipeline_lat = 380;
    a.cache_hit_lat = 200;
    return a;
  }();
  return arch;
}

namespace {

Status field_error(const char* field, const std::string& why) {
  return InvalidArgumentError("GpuArch." + std::string(field) + " " + why);
}

bool power_of_two(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

Status validate(const GpuArch& arch) {
  const auto positive = [](long long v) { return v >= 1; };
  struct IntField {
    const char* name;
    long long value;
  };
  for (const IntField f : {
           IntField{"num_sms", arch.num_sms},
           IntField{"max_warps_per_sm", arch.max_warps_per_sm},
           IntField{"max_blocks_per_sm", arch.max_blocks_per_sm},
           IntField{"simd_width", arch.simd_width},
           IntField{"shared_banks", arch.shared_banks},
           IntField{"dram_channels", arch.dram_channels},
           IntField{"banks_per_channel", arch.banks_per_channel},
           IntField{"l2_ways", arch.l2_ways},
           IntField{"const_cache_ways", arch.const_cache_ways},
           IntField{"tex_cache_ways", arch.tex_cache_ways},
           IntField{"ialu_lat", static_cast<long long>(arch.ialu_lat)},
           IntField{"falu_lat", static_cast<long long>(arch.falu_lat)},
           IntField{"dalu_lat", static_cast<long long>(arch.dalu_lat)},
           IntField{"sfu_lat", static_cast<long long>(arch.sfu_lat)},
           IntField{"avg_inst_lat", static_cast<long long>(arch.avg_inst_lat)},
           IntField{"shared_lat", static_cast<long long>(arch.shared_lat)},
           IntField{"cache_hit_lat", static_cast<long long>(arch.cache_hit_lat)},
           IntField{"shared_capacity",
                    static_cast<long long>(arch.shared_capacity)},
           IntField{"constant_capacity",
                    static_cast<long long>(arch.constant_capacity)},
           IntField{"l2_capacity", static_cast<long long>(arch.l2_capacity)},
           IntField{"const_cache_capacity",
                    static_cast<long long>(arch.const_cache_capacity)},
           IntField{"tex_cache_capacity",
                    static_cast<long long>(arch.tex_cache_capacity)},
       }) {
    if (!positive(f.value))
      return field_error(f.name,
                         "must be >= 1 (got " + std::to_string(f.value) + ")");
  }
  if (arch.num_sms > kMaxSms)
    return field_error("num_sms", "must be at most " + std::to_string(kMaxSms) +
                                      " (got " + std::to_string(arch.num_sms) +
                                      ")");
  if (!shared_banks_foldable(arch.shared_banks))
    return field_error(
        "shared_banks",
        "must divide the " + std::to_string(kSharedAlign) +
            "-byte shared slice alignment into whole 4-byte bank rotations "
            "(kSharedAlign % (4 * shared_banks) == 0; got " +
            std::to_string(arch.shared_banks) + ")");
  // The DSL, coalescer and trace formats are all fixed at 32-lane warps.
  if (arch.warp_size != 32)
    return field_error("warp_size", "must be 32 (got " +
                                        std::to_string(arch.warp_size) + ")");
  if (!power_of_two(arch.cache_line))
    return field_error("cache_line",
                       "must be a power of two (got " +
                           std::to_string(arch.cache_line) + ")");
  // The cache model (SetAssocCache) needs whole sets and at most
  // kMaxCacheWays ways; a remainder would be silently dropped.
  struct CacheField {
    const char* capacity_name;
    const char* ways_name;
    std::size_t capacity;
    int ways;
  };
  for (const CacheField c : {
           CacheField{"l2_capacity", "l2_ways", arch.l2_capacity, arch.l2_ways},
           CacheField{"const_cache_capacity", "const_cache_ways",
                      arch.const_cache_capacity, arch.const_cache_ways},
           CacheField{"tex_cache_capacity", "tex_cache_ways",
                      arch.tex_cache_capacity, arch.tex_cache_ways},
       }) {
    if (c.ways > kMaxCacheWays)
      return field_error(c.ways_name,
                         "must be at most " + std::to_string(kMaxCacheWays) +
                             " (got " + std::to_string(c.ways) + ")");
    const std::size_t ways = static_cast<std::size_t>(c.ways);
    // Checked before the product, which could overflow.
    const bool no_set = arch.cache_line > c.capacity / ways;
    const std::size_t set_bytes = arch.cache_line * ways;
    if (no_set || c.capacity % set_bytes != 0 ||
        c.capacity / set_bytes > std::numeric_limits<std::uint32_t>::max())
      return field_error(
          c.capacity_name,
          "must be a whole number of cache_line x " + std::string(c.ways_name) +
              " = " + std::to_string(set_bytes) +
              "-byte sets, at least one and below 2^32 (got " +
              std::to_string(c.capacity) + ")");
  }
  if (arch.dram.row_hit_service < 1 || arch.dram.row_miss_service < 1 ||
      arch.dram.row_conflict_service < 1)
    return field_error("dram", "row-buffer service times must be >= 1");

  // Address-map structure. The full overlap/coverage rules live in the
  // AddressMapping constructor (dram layer); here we reject what would make
  // that constructor abort, so try_* entry points stay non-aborting.
  const AddressMapSpec& m = arch.addr_map;
  if (m.transaction_bits < 0 || m.transaction_bits > 32)
    return field_error("addr_map.transaction_bits", "must be in [0, 32]");
  if (m.row_bits.empty())
    return field_error("addr_map.row_bits", "must be non-empty");
  std::vector<int> roles;
  for (const std::vector<int>* g : {&m.bank_bits, &m.column_bits, &m.row_bits}) {
    for (int b : *g) {
      if (b < m.transaction_bits || b > 63)
        return field_error("addr_map",
                           "bit " + std::to_string(b) +
                               " outside [transaction_bits, 63]");
      roles.push_back(b);
    }
  }
  std::sort(roles.begin(), roles.end());
  if (std::adjacent_find(roles.begin(), roles.end()) != roles.end())
    return field_error("addr_map", "an address bit is assigned to two roles");
  if (!m.bank_xor_bits.empty()) {
    if (m.bank_xor_bits.size() != m.bank_bits.size())
      return field_error("addr_map.bank_xor_bits",
                         "must match bank_bits length when non-empty");
    if (m.bank_bits.size() >= 31 ||
        arch.total_banks() != (1 << static_cast<int>(m.bank_bits.size())))
      return field_error("addr_map.bank_xor_bits",
                         "XOR swizzle requires total_banks == 2^|bank_bits| "
                         "(swizzle + modulo folding would alias banks)");
    for (int b : m.bank_xor_bits) {
      if (b < m.transaction_bits || b > 63)
        return field_error("addr_map.bank_xor_bits",
                           "bit " + std::to_string(b) +
                               " outside [transaction_bits, 63]");
    }
  }
  return OkStatus();
}

}  // namespace gpuhms
