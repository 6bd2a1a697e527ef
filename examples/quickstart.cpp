// Quickstart: schedule a handful of conflicting transactions with Nezha.
//
// Walks the library's core loop in ~60 lines:
//   1. build a state snapshot,
//   2. speculatively execute a small SmallBank batch against it,
//   3. run Nezha concurrency control over the read/write sets,
//   4. inspect the commit groups (same group = commits concurrently),
//   5. apply the schedule and print the resulting balances.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "cc/nezha/nezha_scheduler.h"
#include "cc/nezha/parallel_executor.h"
#include "common/thread_pool.h"
#include "runtime/concurrent_executor.h"
#include "storage/state_db.h"
#include "vm/smallbank.h"

using namespace nezha;

int main() {
  // 1. A tiny world: three accounts with funded checking balances.
  StateDB state;
  for (std::uint64_t account : {0u, 1u, 2u}) {
    state.Set(CheckingAddress(account), 100);
  }
  const StateSnapshot snapshot = state.MakeSnapshot(/*epoch=*/0);

  // 2. Four transactions, two of which race on account 0's checking cell.
  std::vector<Transaction> txs(4);
  txs[0].payload = MakeSmallBankCall(SmallBankOp::kSendPayment, {0, 1, 30});
  txs[1].payload = MakeSmallBankCall(SmallBankOp::kUpdateBalance, {0, 5});
  txs[2].payload = MakeSmallBankCall(SmallBankOp::kGetBalance, {2});
  txs[3].payload = MakeSmallBankCall(SmallBankOp::kUpdateSavings, {2, 50});

  ThreadPool pool(2);
  const BatchExecutionResult exec = ExecuteBatchConcurrent(pool, snapshot, txs);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    std::printf("T%zu reads %zu addresses, writes %zu\n", i,
                exec.rwsets[i].reads.size(), exec.rwsets[i].writes.size());
  }

  // 3. Nezha: ACG -> rank division -> hierarchical sorting.
  NezhaScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(exec.rwsets);
  if (!schedule.ok()) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 schedule.status().ToString().c_str());
    return 1;
  }

  // 4. Inspect the outcome.
  std::printf("\ncommit groups (one line per group; same line = concurrent):\n");
  for (const auto& group : schedule->groups) {
    std::printf("  seq %u:", schedule->sequence[group[0]]);
    for (TxIndex t : group) std::printf(" T%u", t);
    std::printf("\n");
  }
  for (TxIndex t = 0; t < txs.size(); ++t) {
    if (schedule->aborted[t]) std::printf("  T%u aborted\n", t);
  }

  // 5. Commit and read the final balances.
  ExecuteScheduleParallel(pool, state, snapshot, *schedule, exec.rwsets);
  std::printf("\nfinal checking balances: acct0=%lld acct1=%lld acct2=%lld\n",
              static_cast<long long>(state.Get(CheckingAddress(0))),
              static_cast<long long>(state.Get(CheckingAddress(1))),
              static_cast<long long>(state.Get(CheckingAddress(2))));
  std::printf("state root: %s\n", state.RootHash().ToHex().c_str());
  return 0;
}
