// Deterministic structural hashing for cache keys.
//
// Fnv1a is a streaming 64-bit FNV-1a hasher: feed it scalars, strings, or
// raw byte ranges and read the digest at any point. The serving layer keys
// its skeleton/prediction caches on fingerprints built with it (see
// src/serve/service.cpp), so the digest must be stable across processes and
// platforms — it depends only on the bytes fed in, never on pointer values,
// container addresses, or std::hash (whose result is implementation-
// defined). Do not feed raw struct memory (padding bytes); feed fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace gpuhms {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  Fnv1a& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= kPrime;
    }
    return *this;
  }

  // Integral/enum values are widened to 8 little-endian bytes so the digest
  // does not depend on the declared width of a field.
  template <typename T>
    requires(std::is_integral_v<T> || std::is_enum_v<T>)
  Fnv1a& mix(T v) {
    std::uint64_t u;
    if constexpr (std::is_enum_v<T>)
      u = static_cast<std::uint64_t>(
          static_cast<std::underlying_type_t<T>>(v));
    else
      u = static_cast<std::uint64_t>(v);  // negatives wrap deterministically
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(u >> (8 * i));
    return bytes(b, sizeof b);
  }

  Fnv1a& mix(bool v) { return mix(static_cast<std::uint64_t>(v ? 1 : 0)); }

  // Doubles hash by bit pattern (bit-identical inputs, bit-identical keys).
  Fnv1a& mix(double v) {
    std::uint64_t u;
    static_assert(sizeof u == sizeof v);
    __builtin_memcpy(&u, &v, sizeof u);
    return mix(u);
  }

  // Length-prefixed so {"ab","c"} and {"a","bc"} digest differently.
  Fnv1a& mix(std::string_view s) {
    mix(s.size());
    return bytes(s.data(), s.size());
  }

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = kOffsetBasis;
};

}  // namespace gpuhms
