// Tests for Algorithm 2 (per-address transaction sorting) and the §IV.D
// reordering enhancement, anchored on the paper's Fig. 7 walkthrough and on
// the sorting-anomaly scenarios of Fig. 5 and Fig. 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/schedule_verifier.h"
#include "cc/nezha/acg.h"
#include "cc/nezha/rank_division.h"
#include "cc/nezha/tx_sorter.h"
#include "obs/abort_attribution.h"

namespace nezha {
namespace {

ReadWriteSet RW(std::vector<std::uint64_t> reads,
                std::vector<std::uint64_t> writes) {
  ReadWriteSet rw;
  for (std::uint64_t a : reads) rw.reads.push_back(Address(a));
  for (std::uint64_t a : writes) {
    rw.writes.push_back(Address(a));
    rw.write_values.push_back(1);
  }
  std::sort(rw.reads.begin(), rw.reads.end());
  std::sort(rw.writes.begin(), rw.writes.end());
  return rw;
}

TxSorterResult SortAll(const std::vector<ReadWriteSet>& rwsets,
                       bool reorder = true) {
  const auto acg = AddressConflictGraph::Build(rwsets);
  const auto ranks = ComputeSortingRanks(acg.dependencies());
  TxSorterOptions options;
  options.enable_reordering = reorder;
  return SortTransactions(acg, ranks, rwsets.size(), options);
}

/// Checks the fundamental per-address invariants on the sorter's raw output.
void ExpectSound(const std::vector<ReadWriteSet>& rwsets,
                 const TxSorterResult& result) {
  Schedule schedule;
  schedule.sequence = result.sequence;
  schedule.aborted = result.aborted;
  for (TxIndex t = 0; t < rwsets.size(); ++t) {
    if (!schedule.aborted[t] && schedule.sequence[t] == kUnassignedSeq) {
      schedule.sequence[t] = 1;  // untouched txs join group 1
    }
  }
  schedule.RebuildGroups();
  const auto report = analysis::VerifySchedule(schedule, rwsets);
  EXPECT_TRUE(report.ok) << report.counterexample.ToString();
}

// ---------- the paper's Fig. 7 walkthrough ----------

TEST(TxSorterTest, PaperFig7EndToEnd) {
  const std::vector<ReadWriteSet> rwsets = {
      RW({2}, {1}),  // T1
      RW({3}, {2}),  // T2
      RW({4}, {2}),  // T3
      RW({4}, {3}),  // T4
      RW({4}, {4}),  // T5
      RW({1}, {3}),  // T6
  };
  const TxSorterResult result = SortAll(rwsets);

  // Fig. 7: T1 is the unserializable victim and aborts.
  EXPECT_TRUE(result.aborted[0]);
  for (TxIndex t = 1; t < 6; ++t) EXPECT_FALSE(result.aborted[t]) << t;

  // T3 and T4 share a sequence number (their writes do not conflict) —
  // the paper's "certain degree of concurrency".
  EXPECT_EQ(result.sequence[2], result.sequence[3]);
  // T2 precedes T3/T4 (its write on A2 carries rank-1 ordering).
  EXPECT_LT(result.sequence[1], result.sequence[2]);
  // T5 and T6 come after T3/T4.
  EXPECT_GT(result.sequence[4], result.sequence[2]);
  EXPECT_GT(result.sequence[5], result.sequence[2]);

  ExpectSound(rwsets, result);
}

// ---------- basic shapes ----------

TEST(TxSorterTest, DisjointTxsShareTheFirstGroup) {
  const std::vector<ReadWriteSet> rwsets = {RW({}, {1}), RW({}, {2}),
                                            RW({}, {3})};
  const TxSorterResult result = SortAll(rwsets);
  EXPECT_EQ(result.sequence[0], result.sequence[1]);
  EXPECT_EQ(result.sequence[1], result.sequence[2]);
  EXPECT_FALSE(result.aborted[0]);
  ExpectSound(rwsets, result);
}

TEST(TxSorterTest, ReadersShareOneNumberWritersStack) {
  // Three readers + two writers of one address: reads share a number, the
  // writes get distinct larger numbers ordered by subscript.
  const std::vector<ReadWriteSet> rwsets = {
      RW({9}, {}), RW({9}, {}), RW({9}, {}), RW({}, {9}), RW({}, {9})};
  const TxSorterResult result = SortAll(rwsets);
  EXPECT_EQ(result.sequence[0], result.sequence[1]);
  EXPECT_EQ(result.sequence[1], result.sequence[2]);
  EXPECT_GT(result.sequence[3], result.sequence[0]);
  EXPECT_GT(result.sequence[4], result.sequence[3]);  // subscript order
  ExpectSound(rwsets, result);
}

TEST(TxSorterTest, PureReadersNeverAbort) {
  const std::vector<ReadWriteSet> rwsets = {
      RW({1, 2, 3}, {}), RW({1}, {}), RW({2, 3}, {}), RW({}, {1}),
      RW({}, {2})};
  const TxSorterResult result = SortAll(rwsets);
  EXPECT_FALSE(result.aborted[0]);
  EXPECT_FALSE(result.aborted[1]);
  EXPECT_FALSE(result.aborted[2]);
  ExpectSound(rwsets, result);
}

TEST(TxSorterTest, TwoReadModifyWritesOnOneAddressAbortOne) {
  // Both increment address 5 from the snapshot: inherently unserializable;
  // exactly one must survive (the smaller subscript).
  const std::vector<ReadWriteSet> rwsets = {RW({5}, {5}), RW({5}, {5})};
  const TxSorterResult result = SortAll(rwsets);
  EXPECT_FALSE(result.aborted[0]);
  EXPECT_TRUE(result.aborted[1]);
  ExpectSound(rwsets, result);
}

TEST(TxSorterTest, SingleReadModifyWriteSurvives) {
  const std::vector<ReadWriteSet> rwsets = {RW({5}, {5}), RW({5}, {}),
                                            RW({}, {5})};
  const TxSorterResult result = SortAll(rwsets);
  EXPECT_FALSE(result.aborted[0]);
  EXPECT_FALSE(result.aborted[1]);
  EXPECT_FALSE(result.aborted[2]);
  // RMW write must exceed the plain read's number; plain write above both.
  EXPECT_GT(result.sequence[0], result.sequence[1]);
  EXPECT_NE(result.sequence[2], result.sequence[0]);
  ExpectSound(rwsets, result);
}

// ---------- Fig. 8 reordering scenario ----------

TEST(TxSorterTest, ReorderingRescuesWriteWriteAnomaly) {
  // Fig. 8: Tu (smaller subscript) writes A10 and A20; Tv writes A10 and
  // reads A20. On A10 the write units get increasing numbers by subscript
  // (Tu below Tv), so on A20 Tu's write lands below Tv's read — the
  // unserializable signature. Reordering re-seats Tu above everything it
  // touches instead of aborting it.
  const std::vector<ReadWriteSet> rwsets = {
      RW({}, {10, 20}),  // Tu (index 0)
      RW({20}, {10}),    // Tv (index 1)
  };
  const TxSorterResult with_reorder = SortAll(rwsets, /*reorder=*/true);
  EXPECT_FALSE(with_reorder.aborted[0]);
  EXPECT_FALSE(with_reorder.aborted[1]);
  EXPECT_EQ(with_reorder.reordered_txs, 1u);
  EXPECT_GT(with_reorder.sequence[0], with_reorder.sequence[1]);
  ExpectSound(rwsets, with_reorder);

  // Without the enhancement the paper's plain Algorithm 2 aborts Tu.
  const TxSorterResult without = SortAll(rwsets, /*reorder=*/false);
  EXPECT_TRUE(without.aborted[0]);
  EXPECT_FALSE(without.aborted[1]);
  ExpectSound(rwsets, without);
}

TEST(TxSorterTest, ReorderingRefusedWhenReadPinsTx) {
  // T0 writes A1 and A2; T1 reads A2, writes A1 — T0's write on A2 would
  // need to move above T1's read, but T0 (as analysed in Fig. 5) cannot
  // always be re-seated when its own reads pin it below existing writes.
  // Whatever the outcome, the result must stay sound.
  const std::vector<ReadWriteSet> rwsets = {
      RW({3}, {1, 2}),  // T0 also reads A3
      RW({2}, {1}),     // T1
      RW({}, {3}),      // T2 writes A3 (pins T0's read from above)
  };
  const TxSorterResult result = SortAll(rwsets);
  ExpectSound(rwsets, result);
}

// ---------- chains across addresses ----------

TEST(TxSorterTest, AddressDependencyChainOrdersTotally) {
  // Figure 1's scenario: T1, T2 write A1; T3 reads A1, writes A2;
  // T4 reads A2. Total order must be {T1, T2} before T3 before T4 — i.e.
  // T3's write number exceeds T1/T2's... no: T1/T2 write A1 which T3 reads,
  // so T3's read must come BEFORE T1/T2's writes. The paper's Fig. 1 uses
  // dependent-transaction semantics where T1, T2 precede T3; under snapshot
  // reads the sound order is reads-first. Assert soundness + totality.
  const std::vector<ReadWriteSet> rwsets = {
      RW({}, {1}),   // T1
      RW({}, {1}),   // T2
      RW({1}, {2}),  // T3
      RW({2}, {}),   // T4
  };
  const TxSorterResult result = SortAll(rwsets);
  ExpectSound(rwsets, result);
  // T3 reads A1 => before T1 and T2's writes. T4 reads A2 => before T3's
  // write.
  EXPECT_LT(result.sequence[2], result.sequence[0]);
  EXPECT_LT(result.sequence[2], result.sequence[1]);
  EXPECT_LT(result.sequence[3], result.sequence[2]);
}

TEST(TxSorterTest, DeterministicAcrossRuns) {
  const std::vector<ReadWriteSet> rwsets = {
      RW({2}, {1}), RW({3}, {2}), RW({4}, {2}), RW({4}, {3}),
      RW({4}, {4}), RW({1}, {3}), RW({1, 4}, {2, 3}), RW({}, {5})};
  const TxSorterResult a = SortAll(rwsets);
  const TxSorterResult b = SortAll(rwsets);
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.aborted, b.aborted);
}

TEST(TxSorterTest, EmptyBatch) {
  const TxSorterResult result = SortAll({});
  EXPECT_TRUE(result.sequence.empty());
}

// ---------- adversarial structures ----------

TEST(TxSorterTest, LongDependencyChainStaysSound) {
  // T_i reads A_i and writes A_{i+1}: a 60-deep address-dependency chain.
  std::vector<ReadWriteSet> rwsets;
  for (std::uint64_t i = 0; i < 60; ++i) {
    rwsets.push_back(RW({i}, {i + 1}));
  }
  const TxSorterResult result = SortAll(rwsets);
  ExpectSound(rwsets, result);
  // No conflicts except read-write chains; everything should commit.
  for (TxIndex t = 0; t < 60; ++t) EXPECT_FALSE(result.aborted[t]) << t;
  // Each T_i reads what T_{i-1} writes, so T_i must precede T_{i-1}.
  for (TxIndex t = 1; t < 60; ++t) {
    EXPECT_LT(result.sequence[t], result.sequence[t - 1]) << t;
  }
}

TEST(TxSorterTest, StarHubWriterAgainstManyReaders) {
  // 30 readers of one hub address + 1 writer; then 30 writers of leaf
  // addresses the hub writer also reads.
  std::vector<ReadWriteSet> rwsets;
  for (std::uint64_t i = 0; i < 30; ++i) rwsets.push_back(RW({100}, {}));
  rwsets.push_back(RW({}, {100}));  // hub writer (index 30)
  const TxSorterResult result = SortAll(rwsets);
  ExpectSound(rwsets, result);
  for (TxIndex t = 0; t <= 30; ++t) EXPECT_FALSE(result.aborted[t]);
  // All readers share one number; the writer exceeds it.
  for (TxIndex t = 1; t < 30; ++t) {
    EXPECT_EQ(result.sequence[t], result.sequence[0]);
  }
  EXPECT_GT(result.sequence[30], result.sequence[0]);
}

TEST(TxSorterTest, MultiAddressCycleDetected) {
  // A 3-step unserializable cycle through three addresses:
  // T0 reads A1 writes A2; T1 reads A2 writes A3; T2 reads A3 writes A1.
  // Serially ordering any one first breaks another's snapshot read — at
  // least one must abort, and the result must stay sound.
  const std::vector<ReadWriteSet> rwsets = {
      RW({1}, {2}), RW({2}, {3}), RW({3}, {1})};
  const TxSorterResult result = SortAll(rwsets);
  ExpectSound(rwsets, result);
  const auto aborted =
      std::count(result.aborted.begin(), result.aborted.end(), true);
  EXPECT_GE(aborted, 1);
  EXPECT_LE(aborted, 2);  // never nukes the whole cycle
}

TEST(TxSorterTest, ManyIndependentClustersScheduleConcurrently) {
  // 20 disjoint 3-tx clusters: sound, zero aborts, and the group count is
  // bounded by one cluster's depth (clusters share numbers).
  std::vector<ReadWriteSet> rwsets;
  for (std::uint64_t c = 0; c < 20; ++c) {
    const std::uint64_t base = c * 10;
    rwsets.push_back(RW({base}, {}));
    rwsets.push_back(RW({base}, {}));
    rwsets.push_back(RW({}, {base}));
  }
  const TxSorterResult result = SortAll(rwsets);
  ExpectSound(rwsets, result);
  for (TxIndex t = 0; t < rwsets.size(); ++t) {
    EXPECT_FALSE(result.aborted[t]);
  }
  std::set<SeqNum> distinct(result.sequence.begin(), result.sequence.end());
  EXPECT_LE(distinct.size(), 3u);
}

TEST(TxSorterTest, WideTransactionTouchingManyAddresses) {
  // One transaction reads 20 addresses and writes 20 others, among a crowd
  // of small transactions on the same addresses.
  std::vector<ReadWriteSet> rwsets;
  {
    std::vector<std::uint64_t> reads, writes;
    for (std::uint64_t i = 0; i < 20; ++i) {
      reads.push_back(i);
      writes.push_back(100 + i);
    }
    rwsets.push_back(RW(reads, writes));
  }
  for (std::uint64_t i = 0; i < 20; ++i) {
    rwsets.push_back(RW({100 + i}, {i}));  // inverts the wide tx's direction
  }
  const TxSorterResult result = SortAll(rwsets);
  ExpectSound(rwsets, result);
}

// ---------- abort attribution (docs/OBSERVABILITY.md taxonomy) ----------
//
// Each scenario drives one decision point in SortTransactions and pins the
// AbortRecord it emits: conflict kind, address, sequence number at the
// decision, and whether/why the §IV.D raise failed. Where the natural
// ComputeSortingRanks order would dodge the conflict, the test hands
// SortTransactions an explicit rank order (entries() is ascending by
// address, vertex i == entries()[i]).

TxSorterResult SortWithRankOrder(const std::vector<ReadWriteSet>& rwsets,
                                 std::vector<Digraph::Vertex> order,
                                 bool reorder = true) {
  const auto acg = AddressConflictGraph::Build(rwsets);
  TxSorterOptions options;
  options.enable_reordering = reorder;
  return SortTransactions(acg, order, rwsets.size(), options);
}

TEST(TxSorterTest, AttributionDuplicateRmwIsReadWriteNotAttempted) {
  // Two read-modify-writes on address 5: the second read-writer dies in
  // Phase B without a raise attempt (RMW conflicts are never reorderable).
  const std::vector<ReadWriteSet> rwsets = {RW({5}, {5}), RW({5}, {5})};
  const TxSorterResult result = SortAll(rwsets);
  ASSERT_EQ(result.abort_records.size(), 1u);
  const obs::AbortRecord& record = result.abort_records[0];
  EXPECT_EQ(record.tx, 1u);
  EXPECT_EQ(record.address, 5u);
  EXPECT_EQ(record.kind, obs::ConflictKind::kReadWrite);
  EXPECT_FALSE(record.reorder_attempted);
  EXPECT_EQ(record.reorder_failure, obs::ReorderFailure::kNotAttempted);
  EXPECT_EQ(result.reorder_attempts, 0u);
}

TEST(TxSorterTest, AttributionPinnedRmwIsReadWriteUpperBound) {
  // Address 1 sorts first: T0 reads it (seq 1), T1 writes it (seq 2).
  // On address 2, T0 is a read-writer at max_read — Phase B must raise it,
  // but any number >= 2 would order T1's committed write on address 1
  // before T0's read there. The raise hits the read-side upper bound.
  const std::vector<ReadWriteSet> rwsets = {
      RW({1, 2}, {2}),  // T0: RMW on A2, pinned by its read of A1
      RW({}, {1}),      // T1: writes A1 above T0's read
      RW({2}, {}),      // T2: plain reader holding max_read on A2
  };
  const TxSorterResult result = SortWithRankOrder(rwsets, {0, 1});
  ASSERT_EQ(result.abort_records.size(), 1u);
  const obs::AbortRecord& record = result.abort_records[0];
  EXPECT_EQ(record.tx, 0u);
  EXPECT_EQ(record.address, 2u);
  EXPECT_EQ(record.kind, obs::ConflictKind::kReadWrite);
  EXPECT_EQ(record.seq_at_decision, 1u);
  EXPECT_TRUE(record.reorder_attempted);
  EXPECT_EQ(record.reorder_failure, obs::ReorderFailure::kUpperBoundHit);
  // Phase B raises are not §IV.D write-side attempts.
  EXPECT_EQ(result.reorder_attempts, 0u);
  EXPECT_FALSE(result.aborted[1]);
  EXPECT_FALSE(result.aborted[2]);
}

TEST(TxSorterTest, AttributionPlainAlgorithm2AbortIsRankCycle) {
  // Fig. 8 with reordering disabled: Tu's write on A20 lands below Tv's
  // read — the unserializability signature, attributed as a rank cycle
  // with no raise attempted.
  const std::vector<ReadWriteSet> rwsets = {
      RW({}, {10, 20}),  // Tu
      RW({20}, {10}),    // Tv
  };
  const TxSorterResult result = SortAll(rwsets, /*reorder=*/false);
  ASSERT_EQ(result.abort_records.size(), 1u);
  const obs::AbortRecord& record = result.abort_records[0];
  EXPECT_EQ(record.tx, 0u);
  EXPECT_EQ(record.address, 20u);
  EXPECT_EQ(record.kind, obs::ConflictKind::kRankCycle);
  EXPECT_EQ(record.seq_at_decision, 1u);
  EXPECT_FALSE(record.reorder_attempted);
  EXPECT_EQ(record.reorder_failure, obs::ReorderFailure::kNotAttempted);
  EXPECT_EQ(result.reorder_attempts, 0u);
}

TEST(TxSorterTest, AttributionFailedRaiseIsRankCycleUpperBound) {
  // Sorting A30 first seats T0's read at 1 and T2's write at 2. When T0's
  // write on A20 then lands below T1's read, the §IV.D raise needs a number
  // above 2 — past T2's committed write over T0's read of A30. Attempt
  // counted, upper bound hit, rank-cycle abort.
  const std::vector<ReadWriteSet> rwsets = {
      RW({30}, {10, 20}),  // T0
      RW({20}, {10}),      // T1
      RW({}, {30}),        // T2
  };
  // entries: 10 -> 0, 20 -> 1, 30 -> 2; sort A30 before the conflict.
  const TxSorterResult result = SortWithRankOrder(rwsets, {2, 0, 1});
  ASSERT_EQ(result.abort_records.size(), 1u);
  const obs::AbortRecord& record = result.abort_records[0];
  EXPECT_EQ(record.tx, 0u);
  EXPECT_EQ(record.address, 20u);
  EXPECT_EQ(record.kind, obs::ConflictKind::kRankCycle);
  EXPECT_EQ(record.seq_at_decision, 1u);
  EXPECT_TRUE(record.reorder_attempted);
  EXPECT_EQ(record.reorder_failure, obs::ReorderFailure::kUpperBoundHit);
  EXPECT_EQ(result.reorder_attempts, 1u);
  EXPECT_EQ(result.reordered_txs, 0u);
}

TEST(TxSorterTest, AttributionWriteCollisionIsWriteWriteUnreorderable) {
  // T0 and T1 pick up the same number (1) on disjoint addresses A1/A2, then
  // both write A3. T1's duplicate number must move, but its read of A4
  // (sorted first, with T2's write at 2 above it) caps the raise. The
  // collision — not a read — kills it: write-write-unreorderable.
  const std::vector<ReadWriteSet> rwsets = {
      RW({}, {1, 3}),   // T0
      RW({4}, {2, 3}),  // T1
      RW({}, {4}),      // T2
  };
  // entries: 1 -> 0, 2 -> 1, 3 -> 2, 4 -> 3; sort A4, A1, A2, then A3.
  for (const bool reorder : {true, false}) {
    const TxSorterResult result =
        SortWithRankOrder(rwsets, {3, 0, 1, 2}, reorder);
    ASSERT_EQ(result.abort_records.size(), 1u) << "reorder=" << reorder;
    const obs::AbortRecord& record = result.abort_records[0];
    EXPECT_EQ(record.tx, 1u);
    EXPECT_EQ(record.address, 3u);
    EXPECT_EQ(record.kind, obs::ConflictKind::kWriteWriteUnreorderable);
    EXPECT_EQ(record.seq_at_decision, 1u);
    EXPECT_EQ(record.reorder_attempted, reorder);
    EXPECT_EQ(record.reorder_failure,
              reorder ? obs::ReorderFailure::kUpperBoundHit
                      : obs::ReorderFailure::kNotAttempted);
    EXPECT_EQ(result.reorder_attempts, reorder ? 1u : 0u);
    EXPECT_FALSE(result.aborted[0]);
    EXPECT_FALSE(result.aborted[2]);
  }
}

TEST(TxSorterTest, AttributionSuccessfulRescueLeavesNoRecord) {
  // The Fig. 8 rescue: the raise succeeds, so the attempt is counted but
  // no abort record is emitted and the rescued tx lands in `reordered`.
  const std::vector<ReadWriteSet> rwsets = {
      RW({}, {10, 20}),  // Tu
      RW({20}, {10}),    // Tv
  };
  const TxSorterResult result = SortAll(rwsets, /*reorder=*/true);
  EXPECT_TRUE(result.abort_records.empty());
  EXPECT_EQ(result.reorder_attempts, 1u);
  ASSERT_EQ(result.reordered.size(), 1u);
  EXPECT_EQ(result.reordered[0], 0u);
}

TEST(TxSorterTest, SequenceNumbersStartAtConfiguredInitial) {
  const std::vector<ReadWriteSet> rwsets = {RW({1}, {}), RW({}, {1})};
  const auto acg = AddressConflictGraph::Build(rwsets);
  const auto ranks = ComputeSortingRanks(acg.dependencies());
  TxSorterOptions options;
  options.initial_seq = 1000;
  const TxSorterResult result =
      SortTransactions(acg, ranks, rwsets.size(), options);
  EXPECT_EQ(result.sequence[0], 1000u);
  EXPECT_GT(result.sequence[1], 1000u);
}

}  // namespace
}  // namespace nezha
