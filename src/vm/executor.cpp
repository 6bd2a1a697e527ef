#include "vm/executor.h"

#include "vm/contract.h"
#include "vm/logged_state.h"
#include "vm/minivm.h"

namespace nezha {

Status ExecuteTransaction(const Transaction& tx, LoggedStateView& view,
                          ExecMode mode) {
  if (mode == ExecMode::kNative) return ExecuteContract(tx.payload, view);
  auto program = CompileContract(tx.payload);
  if (!program.ok()) return program.status();
  return RunProgram(program.value(), view).status;
}

Result<ReadWriteSet> SimulateTransaction(const StateSnapshot& snapshot,
                                         const Transaction& tx,
                                         ExecMode mode) {
  LoggedStateView view(snapshot);
  if (Status s = ExecuteTransaction(tx, view, mode); !s.ok()) return s;
  return view.TakeRWSet();
}

}  // namespace nezha
