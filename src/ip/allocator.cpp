#include "ip/allocator.h"

#include "util/error.h"

namespace repro {

namespace {

/// Offset of the first multiple of `block` at or after `offset`.
std::uint64_t align_up(std::uint64_t offset, std::uint64_t block) noexcept {
  return (offset + block - 1) / block * block;
}

}  // namespace

PrefixAllocator::PrefixAllocator(Prefix pool) : pool_(pool) {}

Prefix PrefixAllocator::allocate_prefix(int length) {
  require(length >= pool_.length() && length <= 32,
          "PrefixAllocator: bad requested length");
  const std::uint64_t block = std::uint64_t{1} << (32 - length);
  const std::uint64_t aligned = align_up(next_offset_, block);
  require(aligned + block <= pool_.size(), "PrefixAllocator: pool exhausted");
  next_offset_ = aligned + block;
  return Prefix(pool_.at(aligned), length);
}

bool PrefixAllocator::fits(int length) const noexcept {
  if (length < pool_.length() || length > 32) return false;
  const std::uint64_t block = std::uint64_t{1} << (32 - length);
  return align_up(next_offset_, block) + block <= pool_.size();
}

Ipv4 PrefixAllocator::allocate_address() {
  return allocate_prefix(32).network();
}

std::uint64_t PrefixAllocator::remaining() const noexcept {
  return pool_.size() - next_offset_;
}

AddressPlan::AddressPlan(std::vector<Prefix> pools) {
  require(!pools.empty(), "AddressPlan: need at least one pool");
  pools_.reserve(pools.size());
  for (const Prefix& pool : pools) pools_.emplace_back(pool);
}

Prefix AddressPlan::allocate_prefix(int length) {
  while (current_ + 1 < pools_.size() && !pools_[current_].fits(length)) {
    ++current_;
  }
  return pools_[current_].allocate_prefix(length);
}

void PrefixAllocator::restore_next_offset(std::uint64_t offset) {
  require(offset <= pool_.size(), "PrefixAllocator: offset outside pool");
  next_offset_ = offset;
}

}  // namespace repro
