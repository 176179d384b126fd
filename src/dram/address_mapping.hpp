// DRAM address-mapping scheme (Sec. III-C2).
//
// The mapping resolves a physical byte address into (bank, row, column).
// Which bits play which role determines how memory requests distribute over
// banks and whether consecutive requests hit open rows — exactly what
// Algorithm 1 of the paper detects on real hardware and what the queuing
// model consumes. The mapping here is fully configurable so the detector can
// be property-tested against randomized schemes; the default mirrors a
// Kepler-class GDDR5 layout (6 channels x 16 banks, 2 KiB row per bank,
// channel/bank interleaving right above the 128 B transaction).
#pragma once

#include <cstdint>
#include <vector>

#include "arch/gpu_arch.hpp"

namespace gpuhms {

class AddressMapping {
 public:
  struct Fields {
    // Bit positions (byte-address bit indices) for each role. Bits below
    // `transaction_bits` address bytes within one DRAM transaction.
    int transaction_bits = 7;  // 128 B transactions
    std::vector<int> bank_bits;    // folded modulo num_banks
    std::vector<int> column_bits;  // column within the open row
    std::vector<int> row_bits;     // row within the bank
    // Optional permutation-based interleaving: the bank index becomes
    // extract(bank_bits) XOR extract(bank_xor_bits). XOR bits may reuse
    // row/column positions (that is the point — row-sequential streams then
    // rotate over banks) but not bank positions or the transaction offset.
    // Non-empty requires num_banks == 2^|bank_bits| so the swizzle stays a
    // bijection; empty decodes exactly as before.
    std::vector<int> bank_xor_bits;
    int num_banks = 96;
  };

  explicit AddressMapping(Fields f);

  struct Decoded {
    int bank = 0;
    std::uint64_t row = 0;
    std::uint64_t column = 0;
  };
  Decoded decode(std::uint64_t addr) const;

  // Builds the canonical (transaction-offset-zero) address whose decode()
  // yields `d`. Requires d.bank in [0, num_banks) and d.row/d.column within
  // their field widths (checked). For swizzled maps the bank field is stored
  // pre-XORed so decode() recovers d.bank exactly. decode(encode(d)) == d for
  // every mapping; encode(decode(a)) == a additionally requires
  // invertible() and a transaction offset of zero in `a`.
  std::uint64_t encode(const Decoded& d) const;

  // True when decode() loses no information outside the transaction offset:
  // the bank field is not modulo-folded (num_banks == 2^|bank_bits|) and
  // every bit in [transaction_bits, usable_bits) has a role.
  bool invertible() const;

  int num_banks() const { return fields_.num_banks; }
  const Fields& fields() const { return fields_; }

  // Highest classified bit + 1; addresses must stay below 1 << usable_bits()
  // (the allocator guarantees this) so every relevant bit has a role.
  int usable_bits() const { return usable_bits_; }

 private:
  // A run of contiguous address bits [from, from + width) that lands at
  // field bits [to, to + width): mask has the run's width in ones.
  struct BitRun {
    unsigned from = 0;
    unsigned to = 0;
    std::uint64_t mask = 0;
  };
  static std::vector<BitRun> runs_of(const std::vector<int>& positions);
  // extract_bits(addr, positions) for the positions `runs` was made from:
  // one shift and one mask per run.
  static std::uint64_t extract_runs(std::uint64_t addr,
                                    const std::vector<BitRun>& runs) {
    std::uint64_t v = 0;
    for (const BitRun& r : runs) v |= ((addr >> r.from) & r.mask) << r.to;
    return v;
  }

  Fields fields_;
  int usable_bits_;
  // The fields' bit positions as runs, for decode().
  std::vector<BitRun> bank_runs_, xor_runs_, column_runs_, row_runs_;
};

// Kepler-like default: transaction bits 0-6, bank-select bits 7-13
// (7 bits folded % 96 -> single-bit flips always change the bank), column
// bits 14-17 (16 x 128 B = 2 KiB row), row bits 18-33.
AddressMapping kepler_mapping(const GpuArch& arch);

// Builds the mapping an architecture declares via GpuArch::addr_map, with
// the bank field folded modulo arch.total_banks(). For a default-constructed
// GpuArch this is field-for-field identical to kepler_mapping(); registry
// backends with HBM-style or swizzled geometries diverge here.
AddressMapping arch_mapping(const GpuArch& arch);

// Extract the bits of `addr` at `positions` (low position = LSB of result).
std::uint64_t extract_bits(std::uint64_t addr, const std::vector<int>& positions);

}  // namespace gpuhms
