// Transaction simulation: the "concurrent execution phase" entry point.
//
// Executes one transaction speculatively against an immutable snapshot and
// returns its read/write set. Two execution paths exist:
//  * kNative — the contract's C++ implementation (fast path);
//  * kBytecode — compile to MiniVM and interpret (the EVM-like path).
// They are behaviourally identical (tested); benches default to native and
// use the cost model to account for EVM-grade interpretation overhead.
#pragma once

#include "common/status.h"
#include "ledger/transaction.h"
#include "storage/state_db.h"
#include "vm/rwset.h"

namespace nezha {

class LoggedStateView;

enum class ExecMode { kNative, kBytecode };

/// Runs `tx` against `view` on the chosen execution path — the one place
/// the native/bytecode dispatch lives. Errors on malformed payloads,
/// unknown contracts or VM faults; a contract-level revert is an ok()
/// status with the view marked reverted.
Status ExecuteTransaction(const Transaction& tx, LoggedStateView& view,
                          ExecMode mode);

/// Simulates `tx` against `snapshot`; returns its read/write set.
/// Errors on malformed payloads or unknown contracts; a contract-level
/// revert yields ok() status with rwset.ok == false.
Result<ReadWriteSet> SimulateTransaction(const StateSnapshot& snapshot,
                                         const Transaction& tx,
                                         ExecMode mode = ExecMode::kNative);

}  // namespace nezha
