// Transactions: smart-contract calls carried by blocks.
//
// A transaction's payload is a structured contract call (contract id,
// operation id, integer arguments). The execution layer (src/vm) interprets
// the call against a state snapshot and records the read/write sets the
// concurrency-control layer consumes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/sha256.h"
#include "common/status.h"

namespace nezha {

/// A contract call's integer arguments. Up to kInline of them (the most any
/// contract takes: the token contract's transferFrom) live in place, so a
/// transaction owns no heap memory; a longer list, which only a malformed
/// or future call carries, spills to the heap. Decoding accepts any length,
/// and the contracts' arity checks see exactly what the wire said.
class TxArgs {
 public:
  static constexpr std::size_t kInline = 4;

  TxArgs() = default;
  TxArgs(std::initializer_list<std::uint64_t> args) {
    assign(args.begin(), args.end());
  }
  TxArgs(const TxArgs& other) { assign(other.begin(), other.end()); }
  TxArgs(TxArgs&& other) noexcept { *this = std::move(other); }
  TxArgs& operator=(const TxArgs& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  TxArgs& operator=(TxArgs&& other) noexcept {
    if (this != &other) {
      heap_ = std::move(other.heap_);
      std::copy_n(other.inline_, kInline, inline_);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, kInline);
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  const std::uint64_t* data() const { return heap_ ? heap_.get() : inline_; }
  std::uint64_t* data() { return heap_ ? heap_.get() : inline_; }
  const std::uint64_t* begin() const { return data(); }
  const std::uint64_t* end() const { return data() + size_; }
  const std::uint64_t& operator[](std::size_t i) const { return data()[i]; }
  std::uint64_t& operator[](std::size_t i) { return data()[i]; }

  void reserve(std::size_t n) {
    if (n <= capacity_) return;
    if (n > UINT32_MAX) throw std::length_error("TxArgs::reserve");
    auto grown = std::make_unique_for_overwrite<std::uint64_t[]>(n);
    std::copy(begin(), end(), grown.get());
    heap_ = std::move(grown);
    capacity_ = static_cast<std::uint32_t>(n);
  }
  void push_back(std::uint64_t arg) {
    if (size_ == capacity_) reserve(std::size_t{capacity_} * 2);
    data()[size_++] = arg;
  }
  void assign(const std::uint64_t* first, const std::uint64_t* last) {
    const auto n = static_cast<std::size_t>(last - first);
    size_ = 0;
    reserve(n);
    std::copy(first, last, data());
    size_ = static_cast<std::uint32_t>(n);
  }

  friend bool operator==(const TxArgs& a, const TxArgs& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::uint64_t inline_[kInline] = {};
  std::unique_ptr<std::uint64_t[]> heap_;  ///< set once args outgrow inline_
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInline;
};

/// A structured contract call.
struct TxPayload {
  std::uint32_t contract = 0;  ///< contract id (e.g. kSmallBankContract)
  std::uint32_t op = 0;        ///< operation selector within the contract
  TxArgs args;

  friend bool operator==(const TxPayload& a, const TxPayload& b) {
    return a.contract == b.contract && a.op == b.op && a.args == b.args;
  }
};

struct Transaction {
  std::uint64_t nonce = 0;  ///< client-assigned; makes duplicates detectable
  TxPayload payload;

  /// Canonical byte encoding (varint-framed) — the hashing preimage.
  std::string Serialize() const;
  static Result<Transaction> Deserialize(std::string_view data);

  /// SHA-256 of the canonical encoding; identifies the transaction.
  Hash256 Id() const;

  friend bool operator==(const Transaction& a, const Transaction& b) {
    return a.nonce == b.nonce && a.payload == b.payload;
  }
};

// Epochs hold thousands of transactions by value; keep each one within a
// cache line and free of heap allocations.
static_assert(sizeof(Transaction) <= 64);

/// Cheap (non-cryptographic) 64-bit key over the transaction content, for
/// keyed observability tables (obs::TxLifecycleTracer). Unlike Id() this
/// costs a handful of multiplies, not a SHA-256 over the serialization.
/// Always nonzero; collisions merely merge two lifecycle records.
inline std::uint64_t LifecycleKey(const Transaction& tx) {
  std::uint64_t h = (tx.nonce + 1) * 0x9E3779B97F4A7C15ULL;
  h ^= ((static_cast<std::uint64_t>(tx.payload.contract) << 32) |
        tx.payload.op) +
       0xBF58476D1CE4E5B9ULL;
  h *= 0x94D049BB133111EBULL;
  for (const std::uint64_t arg : tx.payload.args) {
    h ^= arg + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
  }
  h ^= h >> 29;
  return h | 1;  // never zero
}

}  // namespace nezha
