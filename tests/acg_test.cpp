// Tests for the address-based conflict graph, anchored on the paper's own
// running example (Table III / Fig. 4): six transactions T1..T6 over
// addresses A1..A4. TxIndex is 0-based here, so paper T_k = index k-1.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cc/nezha/acg.h"
#include "runtime/concurrent_executor.h"
#include "workload/smallbank_workload.h"

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

/// The paper's Table III: reads / writes of T1..T6.
std::vector<ReadWriteSet> PaperExample() {
  return {
      RW({2}, {1}),  // T1: reads A2, writes A1
      RW({3}, {2}),  // T2: reads A3, writes A2
      RW({4}, {2}),  // T3: reads A4, writes A2
      RW({4}, {3}),  // T4: reads A4, writes A3
      RW({4}, {4}),  // T5: reads A4, writes A4
      RW({1}, {3}),  // T6: reads A1, writes A3
  };
}

TEST(AcgTest, PaperExampleEntries) {
  const auto rwsets = PaperExample();
  const auto acg = AddressConflictGraph::Build(rwsets);

  ASSERT_EQ(acg.NumAddresses(), 4u);
  // Entries are in ascending address order: A1, A2, A3, A4.
  EXPECT_EQ(acg.entries()[0].address, Address(1));
  EXPECT_EQ(acg.entries()[3].address, Address(4));

  // A1: read by T6, written by T1.
  EXPECT_EQ(acg.entries()[0].readers, (std::vector<TxIndex>{5}));
  EXPECT_EQ(acg.entries()[0].writers, (std::vector<TxIndex>{0}));
  // A2: read by T1, written by T2, T3.
  EXPECT_EQ(acg.entries()[1].readers, (std::vector<TxIndex>{0}));
  EXPECT_EQ(acg.entries()[1].writers, (std::vector<TxIndex>{1, 2}));
  // A3: read by T2, written by T4, T6.
  EXPECT_EQ(acg.entries()[2].readers, (std::vector<TxIndex>{1}));
  EXPECT_EQ(acg.entries()[2].writers, (std::vector<TxIndex>{3, 5}));
  // A4: read by T3, T4, T5, written by T5.
  EXPECT_EQ(acg.entries()[3].readers, (std::vector<TxIndex>{2, 3, 4}));
  EXPECT_EQ(acg.entries()[3].writers, (std::vector<TxIndex>{4}));
}

TEST(AcgTest, PaperExampleDependencyEdges) {
  const auto rwsets = PaperExample();
  const auto acg = AddressConflictGraph::Build(rwsets);
  const Digraph& deps = acg.dependencies();

  const auto idx = [&](std::uint64_t a) {
    return static_cast<Digraph::Vertex>(acg.IndexOf(Address(a)));
  };
  // Fig. 6: A1-->A2 (T1), A2-->A3 (T2), A2-->A4 (T3), A3-->A4 (T4),
  // A3-->A1 (T6). T5's self write/read on A4 adds no edge.
  EXPECT_EQ(deps.NumEdges(), 5u);
  EXPECT_TRUE(deps.HasEdge(idx(1), idx(2)));
  EXPECT_TRUE(deps.HasEdge(idx(2), idx(3)));
  EXPECT_TRUE(deps.HasEdge(idx(2), idx(4)));
  EXPECT_TRUE(deps.HasEdge(idx(3), idx(4)));
  EXPECT_TRUE(deps.HasEdge(idx(3), idx(1)));
  EXPECT_FALSE(deps.HasEdge(idx(4), idx(4)));
}

TEST(AcgTest, IndexOfUnknownAddress) {
  const auto rwsets = PaperExample();
  const auto acg = AddressConflictGraph::Build(rwsets);
  EXPECT_EQ(acg.IndexOf(Address(99)), -1);
  EXPECT_GE(acg.IndexOf(Address(1)), 0);
}

TEST(AcgTest, RevertedTransactionsExcluded) {
  auto rwsets = PaperExample();
  rwsets[0].ok = false;  // T1 reverted at execution
  const auto acg = AddressConflictGraph::Build(rwsets);
  // A1 loses its writer; A2 loses its reader.
  EXPECT_TRUE(acg.entries()[0].writers.empty());
  EXPECT_TRUE(acg.entries()[1].readers.empty());
  EXPECT_EQ(acg.NumEdges(), 4u);  // T1's edge gone
}

TEST(AcgTest, EmptyBatch) {
  const auto acg = AddressConflictGraph::Build({});
  EXPECT_EQ(acg.NumAddresses(), 0u);
  EXPECT_EQ(acg.NumEdges(), 0u);
}

TEST(AcgTest, DuplicateEdgesDeduplicated) {
  // Two transactions with the same write->read address pair: one edge.
  const std::vector<ReadWriteSet> rwsets = {RW({2}, {1}), RW({2}, {1})};
  const auto acg = AddressConflictGraph::Build(rwsets);
  EXPECT_EQ(acg.NumEdges(), 1u);
}

TEST(AcgTest, ReaderAndWriterListsStaySubscriptOrdered) {
  WorkloadConfig config;
  config.num_accounts = 30;
  config.skew = 1.0;
  SmallBankWorkload workload(config, 5);
  StateDB db;
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(300);
  const auto exec = ExecuteBatchSerial(snap, txs);
  const auto acg = AddressConflictGraph::Build(exec.rwsets);
  for (const auto& entry : acg.entries()) {
    EXPECT_TRUE(std::is_sorted(entry.readers.begin(), entry.readers.end()));
    EXPECT_TRUE(std::is_sorted(entry.writers.begin(), entry.writers.end()));
  }
}

TEST(AcgTest, CoversEveryPairwiseConflict) {
  // Completeness property (DESIGN.md invariant 4): every conflicting pair
  // detectable by pairwise comparison shares at least one ACG entry where
  // one of them writes.
  WorkloadConfig config;
  config.num_accounts = 40;
  config.skew = 0.9;
  SmallBankWorkload workload(config, 21);
  StateDB db;
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(150);
  const auto exec = ExecuteBatchSerial(snap, txs);
  const auto acg = AddressConflictGraph::Build(exec.rwsets);

  // tx -> set of entries where it appears as reader/writer.
  const std::size_t n = exec.rwsets.size();
  std::vector<std::set<int>> reads_at(n), writes_at(n);
  for (int e = 0; e < static_cast<int>(acg.NumAddresses()); ++e) {
    for (TxIndex t : acg.entries()[static_cast<std::size_t>(e)].readers) {
      reads_at[t].insert(e);
    }
    for (TxIndex t : acg.entries()[static_cast<std::size_t>(e)].writers) {
      writes_at[t].insert(e);
    }
  }
  const auto shares = [](const std::set<int>& a, const std::set<int>& b) {
    for (int x : a) {
      if (b.count(x)) return true;
    }
    return false;
  };
  for (TxIndex u = 0; u < n; ++u) {
    for (TxIndex v = u + 1; v < n; ++v) {
      if (!Conflicts(exec.rwsets[u], exec.rwsets[v])) continue;
      const bool covered = shares(writes_at[u], writes_at[v]) ||
                           shares(writes_at[u], reads_at[v]) ||
                           shares(reads_at[u], writes_at[v]);
      EXPECT_TRUE(covered) << "conflict T" << u << "/T" << v
                           << " not visible in any ACG entry";
    }
  }
}

}  // namespace
}  // namespace nezha
