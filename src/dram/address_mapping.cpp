#include "dram/address_mapping.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gpuhms {

std::uint64_t extract_bits(std::uint64_t addr,
                           const std::vector<int>& positions) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    v |= ((addr >> positions[i]) & 1ull) << i;
  }
  return v;
}

AddressMapping::AddressMapping(Fields f) : fields_(std::move(f)) {
  GPUHMS_CHECK(fields_.num_banks > 0);
  GPUHMS_CHECK(!fields_.row_bits.empty());
  int hi = fields_.transaction_bits - 1;
  auto check_group = [&](const std::vector<int>& g) {
    for (int b : g) {
      GPUHMS_CHECK_MSG(b >= fields_.transaction_bits,
                       "field bit overlaps transaction offset");
      hi = std::max(hi, b);
    }
  };
  check_group(fields_.bank_bits);
  check_group(fields_.column_bits);
  check_group(fields_.row_bits);
  // No role may be assigned twice.
  std::vector<int> all;
  for (const auto* g : {&fields_.bank_bits, &fields_.column_bits,
                        &fields_.row_bits})
    all.insert(all.end(), g->begin(), g->end());
  std::sort(all.begin(), all.end());
  GPUHMS_CHECK_MSG(std::adjacent_find(all.begin(), all.end()) == all.end(),
                   "address bit assigned to two roles");
  if (!fields_.bank_xor_bits.empty()) {
    GPUHMS_CHECK_MSG(fields_.bank_xor_bits.size() == fields_.bank_bits.size(),
                     "bank_xor_bits must match bank_bits length");
    GPUHMS_CHECK_MSG(
        fields_.bank_bits.size() < 31 &&
            fields_.num_banks == (1 << static_cast<int>(fields_.bank_bits.size())),
        "XOR-swizzled maps require num_banks == 2^|bank_bits|");
    for (int b : fields_.bank_xor_bits) {
      GPUHMS_CHECK_MSG(b >= fields_.transaction_bits,
                       "xor bit overlaps transaction offset");
      GPUHMS_CHECK_MSG(std::find(fields_.bank_bits.begin(),
                                 fields_.bank_bits.end(),
                                 b) == fields_.bank_bits.end(),
                       "xor bit may not be a bank bit");
      hi = std::max(hi, b);
    }
  }
  usable_bits_ = hi + 1;
  bank_runs_ = runs_of(fields_.bank_bits);
  xor_runs_ = runs_of(fields_.bank_xor_bits);
  column_runs_ = runs_of(fields_.column_bits);
  row_runs_ = runs_of(fields_.row_bits);
}

std::vector<AddressMapping::BitRun> AddressMapping::runs_of(
    const std::vector<int>& positions) {
  std::vector<BitRun> runs;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    GPUHMS_CHECK(positions[i] >= 0 && positions[i] < 64);
    if (i > 0 && positions[i] == positions[i - 1] + 1) {
      runs.back().mask = (runs.back().mask << 1) | 1;
    } else {
      runs.push_back({static_cast<unsigned>(positions[i]),
                      static_cast<unsigned>(i), 1});
    }
  }
  return runs;
}

AddressMapping::Decoded AddressMapping::decode(std::uint64_t addr) const {
  Decoded d;
  // Without swizzling xor_runs_ is empty and XORs in zero.
  const std::uint64_t bank_field =
      extract_runs(addr, bank_runs_) ^ extract_runs(addr, xor_runs_);
  const auto banks = static_cast<std::uint64_t>(fields_.num_banks);
  d.bank = static_cast<int>(bank_field < banks ? bank_field
                                               : bank_field % banks);
  d.row = extract_runs(addr, row_runs_);
  d.column = extract_runs(addr, column_runs_);
  return d;
}

namespace {

// Inverse of extract_bits: scatter the low |positions| bits of `value` to
// the given address-bit positions.
std::uint64_t deposit_bits(std::uint64_t value,
                           const std::vector<int>& positions) {
  std::uint64_t addr = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    addr |= ((value >> i) & 1ull) << positions[i];
  }
  return addr;
}

}  // namespace

std::uint64_t AddressMapping::encode(const Decoded& d) const {
  GPUHMS_CHECK(d.bank >= 0 && d.bank < fields_.num_banks);
  GPUHMS_CHECK_MSG(fields_.bank_bits.size() >= 64 ||
                       static_cast<std::uint64_t>(d.bank) <
                           (1ull << fields_.bank_bits.size()),
                   "bank index does not fit the bank bit field");
  GPUHMS_CHECK(fields_.column_bits.size() >= 64 ||
               d.column < (1ull << fields_.column_bits.size()));
  GPUHMS_CHECK(fields_.row_bits.size() >= 64 ||
               d.row < (1ull << fields_.row_bits.size()));
  std::uint64_t addr = deposit_bits(d.row, fields_.row_bits) |
                       deposit_bits(d.column, fields_.column_bits);
  // Row/column bits are already placed, so the swizzle contribution is fixed;
  // store bank ^ x in the bank field and decode's XOR recovers d.bank.
  std::uint64_t bank_field = static_cast<std::uint64_t>(d.bank);
  if (!fields_.bank_xor_bits.empty())
    bank_field ^= extract_bits(addr, fields_.bank_xor_bits);
  return addr | deposit_bits(bank_field, fields_.bank_bits);
}

bool AddressMapping::invertible() const {
  if (fields_.bank_bits.size() >= 31 ||
      fields_.num_banks != (1 << static_cast<int>(fields_.bank_bits.size())))
    return false;
  std::size_t classified = fields_.bank_bits.size() +
                           fields_.column_bits.size() +
                           fields_.row_bits.size();
  return static_cast<int>(classified) + fields_.transaction_bits ==
         usable_bits_;
}

AddressMapping kepler_mapping(const GpuArch& arch) {
  AddressMapping::Fields f;
  f.transaction_bits = 7;
  f.bank_bits = {7, 8, 9, 10, 11, 12, 13};
  f.column_bits = {14, 15, 16, 17};
  f.row_bits = {18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33};
  f.num_banks = arch.total_banks();
  return AddressMapping(std::move(f));
}

AddressMapping arch_mapping(const GpuArch& arch) {
  AddressMapping::Fields f;
  f.transaction_bits = arch.addr_map.transaction_bits;
  f.bank_bits = arch.addr_map.bank_bits;
  f.column_bits = arch.addr_map.column_bits;
  f.row_bits = arch.addr_map.row_bits;
  f.bank_xor_bits = arch.addr_map.bank_xor_bits;
  f.num_banks = arch.total_banks();
  return AddressMapping(std::move(f));
}

}  // namespace gpuhms
