#include "runtime/concurrent_executor.h"

#include <atomic>

namespace nezha {
namespace {

ReadWriteSet SimulateOne(const StateSnapshot& snapshot, const Transaction& tx,
                         ExecMode mode, std::atomic<std::size_t>& malformed) {
  auto result = SimulateTransaction(snapshot, tx, mode);
  if (result.ok()) return std::move(result.value());
  malformed.fetch_add(1, std::memory_order_relaxed);
  ReadWriteSet failed;
  failed.ok = false;
  return failed;
}

}  // namespace

BatchExecutionResult ExecuteBatchConcurrent(ThreadPool& pool,
                                            const StateSnapshot& snapshot,
                                            std::span<const Transaction> txs,
                                            ExecMode mode) {
  BatchExecutionResult result;
  result.rwsets.resize(txs.size());
  std::atomic<std::size_t> malformed{0};
  pool.ParallelFor(0, txs.size(), [&](std::size_t i) {
    result.rwsets[i] = SimulateOne(snapshot, txs[i], mode, malformed);
  });
  result.malformed = malformed.load();
  return result;
}

BatchExecutionResult ExecuteBatchSerial(const StateSnapshot& snapshot,
                                        std::span<const Transaction> txs,
                                        ExecMode mode) {
  BatchExecutionResult result;
  result.rwsets.resize(txs.size());
  std::atomic<std::size_t> malformed{0};
  for (std::size_t i = 0; i < txs.size(); ++i) {
    result.rwsets[i] = SimulateOne(snapshot, txs[i], mode, malformed);
  }
  result.malformed = malformed.load();
  return result;
}

}  // namespace nezha
