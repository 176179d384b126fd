// Data placements: which memory space each array of a kernel lives in, plus
// validation against hardware constraints and enumeration of the legal
// placement space (the m^n exploration space of the paper's introduction).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "kernel/kernel.hpp"

namespace gpuhms {

class DataPlacement {
 public:
  DataPlacement() = default;
  explicit DataPlacement(std::vector<MemSpace> spaces)
      : spaces_(std::move(spaces)) {}

  // The kernel's shipped placement (every array in its default_space).
  static DataPlacement defaults(const KernelInfo& k);

  // Parses the Table IV short-code form produced by to_string(), e.g.
  // "G,S,2T" (one code per array, in declaration order). Returns nullopt on
  // unknown codes or a length mismatch; legality is NOT checked — call
  // validate_placement for that.
  static std::optional<DataPlacement> from_string(const KernelInfo& k,
                                                  std::string_view str);

  std::size_t size() const { return spaces_.size(); }
  MemSpace of(int array) const {
    return spaces_[static_cast<std::size_t>(array)];
  }
  void set(int array, MemSpace s) {
    spaces_[static_cast<std::size_t>(array)] = s;
  }

  // Returns a copy with one array moved ("target data placement").
  DataPlacement with(int array, MemSpace s) const;

  // Short form like "G,S,T" in array order (Table IV code letters).
  std::string to_string() const;
  // Difference vs. a baseline placement, e.g. "weights(G->S)".
  std::string describe_vs(const DataPlacement& base,
                          const KernelInfo& k) const;

  bool operator==(const DataPlacement&) const = default;

 private:
  std::vector<MemSpace> spaces_;
};

// Why a placement is illegal; empty optional = legal. Aborts if p.size()
// mismatches the kernel's array count (internal-invariant API — use
// validate() below for caller-supplied placements).
std::optional<std::string> validate_placement(const KernelInfo& k,
                                              const DataPlacement& p,
                                              const GpuArch& arch);

// Non-aborting variant for caller-supplied placements: also diagnoses an
// array-count mismatch, and names the kernel in every message.
Status validate(const KernelInfo& k, const DataPlacement& p,
                const GpuArch& arch);

// Legal spaces for one array under the hardware constraints.
std::vector<MemSpace> legal_spaces(const KernelInfo& k, int array,
                                   const GpuArch& arch);

// Full legal placement space (cartesian product filtered by
// validate_placement) with the cap made observable: a search over a
// truncated space is NOT a full search, and benchmark numbers must be able
// to tell the difference.
struct PlacementSpace {
  std::vector<DataPlacement> placements;  // legal, in enumeration order
  // True when the cap stopped enumeration before the cartesian space was
  // exhausted; skipped_combinations counts the m^n combinations (legal or
  // not) that were never examined.
  bool truncated = false;
  std::uint64_t skipped_combinations = 0;
};

PlacementSpace enumerate_placement_space(const KernelInfo& k,
                                         const GpuArch& arch,
                                         std::size_t cap = 4096);

// Convenience accessor: just the legal placements (silently capped — prefer
// enumerate_placement_space where the distinction matters).
std::vector<DataPlacement> enumerate_placements(const KernelInfo& k,
                                                const GpuArch& arch,
                                                std::size_t cap = 4096);

}  // namespace gpuhms
