// Sequential prefix allocator: carves disjoint sub-prefixes out of a pool.
// The topology generator uses an AddressPlan (a chain of them) to hand each
// AS its address space, and each AS uses one to number routers, offnet
// servers, and user prefixes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ip/ipv4.h"

namespace repro {

/// Allocates non-overlapping prefixes and single addresses from a pool
/// prefix, in address order. Throws Error when the pool is exhausted.
class PrefixAllocator {
 public:
  explicit PrefixAllocator(Prefix pool);

  /// Allocates the next aligned prefix of the given length.
  /// Requires length >= pool.length().
  Prefix allocate_prefix(int length);

  /// True when allocate_prefix(length) would succeed.
  bool fits(int length) const noexcept;

  /// Allocates a single address (equivalent to allocate_prefix(32)).
  Ipv4 allocate_address();

  /// Addresses remaining in the pool.
  std::uint64_t remaining() const noexcept;

  const Prefix& pool() const noexcept { return pool_; }

  /// Offset of the first unallocated address; with pool(), the allocator's
  /// complete state (for serialization).
  std::uint64_t next_offset() const noexcept { return next_offset_; }

  /// Restores a serialized position. Throws Error when the offset lies
  /// outside the pool.
  void restore_next_offset(std::uint64_t offset);

 private:
  Prefix pool_;
  std::uint64_t next_offset_ = 0;  // offset of the first unallocated address
};

/// An ordered chain of pools. Allocates from the first pool until a request
/// no longer fits there, then moves on to the next pool for good, so a world
/// that fits its first pool is numbered exactly as by a lone PrefixAllocator.
/// Throws Error when the last pool is exhausted.
class AddressPlan {
 public:
  explicit AddressPlan(std::vector<Prefix> pools);

  Prefix allocate_prefix(int length);

 private:
  std::vector<PrefixAllocator> pools_;
  std::size_t current_ = 0;
};

}  // namespace repro
