#include "dram/address_mapping.hpp"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "arch/arch_registry.hpp"
#include "common/rng.hpp"

namespace gpuhms {
namespace {

TEST(ExtractBits, Basics) {
  EXPECT_EQ(extract_bits(0b101100, {2, 3, 5}), 0b111u);
  EXPECT_EQ(extract_bits(0xff, {}), 0u);
  EXPECT_EQ(extract_bits(1ull << 40, {40}), 1u);
}

TEST(KeplerMapping, FieldLayout) {
  const auto m = kepler_mapping(kepler_arch());
  EXPECT_EQ(m.num_banks(), 128);
  EXPECT_EQ(m.fields().transaction_bits, 7);
  EXPECT_EQ(m.usable_bits(), 34);
}

TEST(KeplerMapping, SequentialLinesSweepBanks) {
  const auto m = kepler_mapping(kepler_arch());
  std::set<int> banks;
  for (std::uint64_t line = 0; line < 128; ++line) {
    banks.insert(m.decode(line * 128).bank);
  }
  EXPECT_EQ(banks.size(), 128u);  // full bank-level parallelism on streams
}

TEST(KeplerMapping, SameRowWithinColumnSpan) {
  const auto m = kepler_mapping(kepler_arch());
  // Two addresses differing only in column bits: same bank, same row.
  const std::uint64_t a = 0x12340000;
  const std::uint64_t b = a ^ (1ull << 15);
  EXPECT_EQ(m.decode(a).bank, m.decode(b).bank);
  EXPECT_EQ(m.decode(a).row, m.decode(b).row);
  EXPECT_NE(m.decode(a).column, m.decode(b).column);
}

TEST(KeplerMapping, RowBitsChangeRowOnly) {
  const auto m = kepler_mapping(kepler_arch());
  const std::uint64_t a = 0x00ac3f80;
  const std::uint64_t b = a ^ (1ull << 20);
  EXPECT_EQ(m.decode(a).bank, m.decode(b).bank);
  EXPECT_NE(m.decode(a).row, m.decode(b).row);
}

TEST(KeplerMapping, BankBitsChangeBank) {
  const auto m = kepler_mapping(kepler_arch());
  for (int bit : {7, 8, 9, 10, 11, 12, 13}) {
    const std::uint64_t a = 0x00ac3f80;
    const std::uint64_t b = a ^ (1ull << bit);
    EXPECT_NE(m.decode(a).bank, m.decode(b).bank) << "bit " << bit;
  }
}

TEST(KeplerMapping, TransactionBitsAreNeutral) {
  const auto m = kepler_mapping(kepler_arch());
  for (int bit = 0; bit < 7; ++bit) {
    const std::uint64_t a = 0x00ac3f80;
    const std::uint64_t b = a ^ (1ull << bit);
    EXPECT_EQ(m.decode(a).bank, m.decode(b).bank);
    EXPECT_EQ(m.decode(a).row, m.decode(b).row);
    EXPECT_EQ(m.decode(a).column, m.decode(b).column);
  }
}

TEST(AddressMapping, RejectsOverlappingRoles) {
  AddressMapping::Fields f;
  f.transaction_bits = 4;
  f.bank_bits = {4, 5};
  f.column_bits = {5, 6};  // bit 5 doubly assigned
  f.row_bits = {7, 8};
  f.num_banks = 4;
  EXPECT_DEATH(AddressMapping{std::move(f)}, "two roles");
}

TEST(AddressMapping, RejectsBitsInsideTransaction) {
  AddressMapping::Fields f;
  f.transaction_bits = 7;
  f.bank_bits = {3};  // inside the transaction offset
  f.column_bits = {14};
  f.row_bits = {18};
  f.num_banks = 2;
  EXPECT_DEATH(AddressMapping{std::move(f)}, "transaction");
}

// Inverse of extract_bits: bit i of `value` lands at addr bit positions[i].
std::uint64_t scatter_bits(std::uint64_t value,
                           const std::vector<int>& positions) {
  std::uint64_t addr = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    addr |= ((value >> i) & 1ull) << positions[i];
  }
  return addr;
}

// Property: with a power-of-two bank count (the modulo fold in decode() is
// the identity) and every non-transaction bit classified, decode() loses no
// information — (bank, row, column) plus the transaction offset reassemble
// to the exact original address, for 10k random addresses. This pins both
// directions of the field extraction, including interleaved (non-contiguous)
// role assignments like the real bank/column striping.
TEST(AddressMapping, DecodeRoundTripsWithPowerOfTwoBanks) {
  AddressMapping::Fields f;
  f.transaction_bits = 7;
  f.bank_bits = {7, 9, 11};            // interleaved with column bits
  f.column_bits = {8, 10, 12, 13};
  f.row_bits = {14, 15, 16, 17, 18, 19, 20, 21};
  f.num_banks = 8;  // == 2^|bank_bits|: decode's % num_banks is lossless
  const std::vector<int> bank_bits = f.bank_bits;
  const std::vector<int> column_bits = f.column_bits;
  const std::vector<int> row_bits = f.row_bits;
  const AddressMapping m(std::move(f));
  ASSERT_EQ(m.usable_bits(), 22);

  Rng rng(0x5ca77e);
  const std::uint64_t txn_mask = (1ull << 7) - 1;
  for (int trial = 0; trial < 10000; ++trial) {
    const std::uint64_t addr = rng.next_below(1ull << m.usable_bits());
    const auto d = m.decode(addr);
    EXPECT_GE(d.bank, 0);
    EXPECT_LT(d.bank, m.num_banks());
    const std::uint64_t rebuilt =
        (addr & txn_mask) |
        scatter_bits(static_cast<std::uint64_t>(d.bank), bank_bits) |
        scatter_bits(d.column, column_bits) | scatter_bits(d.row, row_bits);
    ASSERT_EQ(rebuilt, addr) << "trial " << trial;
  }
}

// The default Kepler mapping folds 7 bank bits into 96 banks (not a power
// of two), so full inversion is impossible by design — but decode() must
// still keep every field in range and respect the documented widths for
// random addresses across the whole usable window.
TEST(KeplerMapping, DecodeFieldsInRangeForRandomAddresses) {
  const auto m = kepler_mapping(kepler_arch());
  Rng rng(0xdec0de);
  for (int trial = 0; trial < 10000; ++trial) {
    const std::uint64_t addr = rng.next_below(1ull << m.usable_bits());
    const auto d = m.decode(addr);
    EXPECT_GE(d.bank, 0);
    EXPECT_LT(d.bank, m.num_banks());
    EXPECT_LT(d.column, 1ull << m.fields().column_bits.size());
    EXPECT_LT(d.row, 1ull << m.fields().row_bits.size());
  }
}

// decode() reads each field as runs of contiguous bits. On any 64-bit
// address it must equal the bit-by-bit extract_bits of every field, folded
// and swizzled as the mapping says.
void expect_decode_matches_extract(const AddressMapping& m,
                                   std::uint64_t seed) {
  const AddressMapping::Fields& f = m.fields();
  Rng rng(seed);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::uint64_t addr = rng.next_u64();
    std::uint64_t bank = extract_bits(addr, f.bank_bits);
    if (!f.bank_xor_bits.empty()) bank ^= extract_bits(addr, f.bank_xor_bits);
    const AddressMapping::Decoded d = m.decode(addr);
    ASSERT_EQ(d.bank, static_cast<int>(
                          bank % static_cast<std::uint64_t>(f.num_banks)))
        << std::hex << addr;
    ASSERT_EQ(d.row, extract_bits(addr, f.row_bits)) << std::hex << addr;
    ASSERT_EQ(d.column, extract_bits(addr, f.column_bits)) << std::hex << addr;
  }
}

TEST(AddressMapping, DecodeMatchesBitByBitExtraction) {
  std::uint64_t seed = 7;
  for (const std::string& name : ArchRegistry::builtin().names()) {
    SCOPED_TRACE(name);
    expect_decode_matches_extract(
        arch_mapping(ArchRegistry::builtin().find(name)->arch), seed++);
  }
  // Scattered, out-of-order fields up to bit 63, XOR-swizzled by row,
  // column and unclassified bits; then the same bank bits folded % 48.
  AddressMapping::Fields f;
  f.transaction_bits = 5;
  f.bank_bits = {5, 6, 9, 31, 30, 12};
  f.column_bits = {7, 8, 40, 13};
  f.row_bits = {14, 15, 16, 17, 19, 20, 21, 22, 23, 24, 25,
                26, 27, 28, 29, 50, 51, 52, 63};
  f.bank_xor_bits = {20, 21, 45, 46, 8, 63};
  f.num_banks = 64;
  SCOPED_TRACE("synthetic");
  expect_decode_matches_extract(AddressMapping(f), seed++);
  f.bank_xor_bits.clear();
  f.num_banks = 48;
  expect_decode_matches_extract(AddressMapping(f), seed++);
}

// --- registered-geometry properties ------------------------------------------
// Every ArchRegistry backend declares its own AddressMapSpec; these
// properties must hold for all of them — including maxwell's non-power-of-two
// 192-bank fold and hbm2's XOR-swizzled channel map.

// decode(encode(d)) == d for every mapping: encode() is a right inverse on
// the Decoded domain even when the bank field is modulo-folded or swizzled.
TEST(AddressMapping, EncodeDecodeRoundTripsForEveryRegisteredGeometry) {
  for (const std::string& name : ArchRegistry::builtin().names()) {
    SCOPED_TRACE(name);
    const GpuArch& arch = ArchRegistry::builtin().find(name)->arch;
    const AddressMapping m = arch_mapping(arch);
    Rng rng(0xdeca7 + static_cast<std::uint64_t>(name.size()));
    for (int trial = 0; trial < 10000; ++trial) {
      AddressMapping::Decoded d;
      d.bank = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(m.num_banks())));
      d.column = rng.next_below(1ull << m.fields().column_bits.size());
      d.row = rng.next_below(1ull << m.fields().row_bits.size());
      const std::uint64_t addr = m.encode(d);
      ASSERT_LT(addr, 1ull << m.usable_bits());
      const auto back = m.decode(addr);
      ASSERT_EQ(back.bank, d.bank) << "trial " << trial;
      ASSERT_EQ(back.column, d.column) << "trial " << trial;
      ASSERT_EQ(back.row, d.row) << "trial " << trial;
    }
  }
}

// encode(decode(a)) == a additionally requires invertibility (no modulo
// fold, gap-free bit coverage) and a zero transaction offset. The kepler and
// hbm2 geometries are invertible; maxwell's 8-bit field folded to 192 banks
// is not, by design.
TEST(AddressMapping, DecodeEncodeRoundTripsForInvertibleGeometries) {
  std::size_t invertible_count = 0;
  for (const std::string& name : ArchRegistry::builtin().names()) {
    SCOPED_TRACE(name);
    const GpuArch& arch = ArchRegistry::builtin().find(name)->arch;
    const AddressMapping m = arch_mapping(arch);
    if (!m.invertible()) continue;
    ++invertible_count;
    Rng rng(0x1d + static_cast<std::uint64_t>(name.size()));
    const std::uint64_t txn = 1ull << m.fields().transaction_bits;
    for (int trial = 0; trial < 10000; ++trial) {
      // Canonical (offset-zero) addresses only: encode() rebuilds those.
      const std::uint64_t addr =
          rng.next_below(1ull << m.usable_bits()) / txn * txn;
      ASSERT_EQ(m.encode(m.decode(addr)), addr) << "trial " << trial;
    }
  }
  EXPECT_GE(invertible_count, 2u);  // kepler-layout maps + the hbm2 swizzle
  EXPECT_FALSE(arch_mapping(ArchRegistry::builtin().find("maxwell")->arch)
                   .invertible());  // 2^8 folded to 192
}

// Bank-partition exhaustiveness: within one row sweep, decode() reaches
// every bank of every registered geometry — the modulo fold and the XOR
// swizzle may permute banks but must not orphan any (an unreachable bank
// would silently halve the queuing model's parallelism).
TEST(AddressMapping, EveryRegisteredGeometryReachesAllBanks) {
  for (const std::string& name : ArchRegistry::builtin().names()) {
    SCOPED_TRACE(name);
    const GpuArch& arch = ArchRegistry::builtin().find(name)->arch;
    const AddressMapping m = arch_mapping(arch);
    ASSERT_EQ(m.num_banks(), arch.total_banks());
    const std::uint64_t txn = 1ull << m.fields().transaction_bits;
    std::set<int> banks;
    // 2x the bank count of consecutive transactions covers the whole bank
    // field even under folding (the field is wider than the bank count).
    for (std::uint64_t line = 0;
         line < 4ull * static_cast<std::uint64_t>(m.num_banks()); ++line) {
      const int bank = m.decode(line * txn).bank;
      ASSERT_GE(bank, 0);
      ASSERT_LT(bank, m.num_banks());
      banks.insert(bank);
    }
    EXPECT_EQ(banks.size(), static_cast<std::size_t>(m.num_banks()));
  }
}

// The hbm2 swizzle is the point of bank_xor_bits: a row-sequential stream
// (fixed bank field, increasing row) must rotate over banks instead of
// hammering one — and the swizzle must stay a per-row bijection.
TEST(AddressMapping, XorSwizzleRotatesRowSequentialStreams) {
  const GpuArch& hbm2 = ArchRegistry::builtin().find("hbm2")->arch;
  ASSERT_FALSE(hbm2.addr_map.bank_xor_bits.empty());
  const AddressMapping swizzled = arch_mapping(hbm2);
  GpuArch plain = hbm2;
  plain.addr_map.bank_xor_bits.clear();
  const AddressMapping unswizzled = arch_mapping(plain);

  const int row_bit = hbm2.addr_map.row_bits.front();
  std::set<int> swizzled_banks, plain_banks;
  for (std::uint64_t row = 0; row < 64; ++row) {
    const std::uint64_t addr = row << row_bit;  // bank field stays zero
    swizzled_banks.insert(swizzled.decode(addr).bank);
    plain_banks.insert(unswizzled.decode(addr).bank);
    // Swizzling permutes banks within a row; row and column are untouched.
    EXPECT_EQ(swizzled.decode(addr).row, unswizzled.decode(addr).row);
    EXPECT_EQ(swizzled.decode(addr).column, unswizzled.decode(addr).column);
  }
  EXPECT_EQ(plain_banks.size(), 1u);       // no swizzle: one hot bank
  EXPECT_GT(swizzled_banks.size(), 32u);   // swizzle: spread over channels
}

TEST(AddressMapping, RejectsXorSwizzleWithFoldedBanks) {
  AddressMapping::Fields f;
  f.transaction_bits = 7;
  f.bank_bits = {7, 8, 9};
  f.column_bits = {10, 11};
  f.row_bits = {12, 13, 14};
  f.bank_xor_bits = {12, 13, 14};
  f.num_banks = 6;  // != 2^3: fold + XOR would alias
  EXPECT_DEATH(AddressMapping{std::move(f)},
               "require num_banks == 2");
}

TEST(AddressMapping, DecodeStableUnderRandomizedFields) {
  // Property: decode() only depends on the classified bits — flipping an
  // unclassified (higher) bit changes nothing.
  Rng rng(21);
  AddressMapping::Fields f;
  f.transaction_bits = 6;
  f.bank_bits = {6, 9, 12};
  f.column_bits = {7, 10};
  f.row_bits = {8, 11, 13, 14};
  f.num_banks = 8;
  const AddressMapping m(std::move(f));
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t a = rng.next_below(1ull << 15);
    const auto d1 = m.decode(a);
    const auto d2 = m.decode(a ^ (1ull << 40));
    EXPECT_EQ(d1.bank, d2.bank);
    EXPECT_EQ(d1.row, d2.row);
    EXPECT_EQ(d1.column, d2.column);
  }
}

}  // namespace
}  // namespace gpuhms
