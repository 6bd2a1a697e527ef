// Tests for consensus-block wire serialization and the Merkle-verified
// state-sync protocol.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "consensus/ohie_node.h"
#include "consensus/treegraph.h"
#include "node/state_sync.h"
#include "vm/executor.h"
#include "vm/smallbank.h"
#include "workload/smallbank_workload.h"

namespace nezha {
namespace {

Transaction SomeTx(std::uint64_t nonce) {
  Transaction tx;
  tx.nonce = nonce;
  tx.payload = MakeSmallBankCall(SmallBankOp::kSendPayment, {1, 2, 10});
  return tx;
}

// ---------- OHIE block wire format ----------

TEST(OhieWireTest, RoundTripPreservesEverything) {
  OhieNodeView view(3, 4, 2);
  OhieBlock block = view.PrepareBlock(9, {SomeTx(1), SomeTx(2)});
  block.Seal(4);

  auto decoded = OhieBlock::Deserialize(block.Serialize(), 4);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->hash, block.hash);
  EXPECT_EQ(decoded->chain, block.chain);
  EXPECT_EQ(decoded->miner, 3u);
  EXPECT_EQ(decoded->parent_tips, block.parent_tips);
  EXPECT_EQ(decoded->txs.size(), 2u);
  // The decoded block attaches cleanly to a fresh view.
  OhieNodeView other(1, 4, 2);
  EXPECT_TRUE(other.OnBlock(*decoded).ok());
  EXPECT_TRUE(other.Knows(block.hash));
}

TEST(OhieWireTest, TamperedPayloadChangesIdentity) {
  OhieNodeView view(0, 2, 2);
  OhieBlock block = view.PrepareBlock(1, {SomeTx(1)});
  block.Seal(2);
  std::string bytes = block.Serialize();
  bytes[bytes.size() / 2] ^= 0x01;
  auto decoded = OhieBlock::Deserialize(bytes, 2);
  // Either the encoding breaks, or it decodes to a different block whose
  // recomputed commitments no longer match — it can never impersonate.
  if (decoded.ok()) {
    const bool differs = decoded->hash != block.hash ||
                         ComputeTxMerkleRoot(decoded->txs) != decoded->tx_root;
    EXPECT_TRUE(differs);
  }
}

TEST(OhieWireTest, TruncationRejected) {
  OhieNodeView view(0, 2, 2);
  OhieBlock block = view.PrepareBlock(1, {SomeTx(1)});
  block.Seal(2);
  std::string bytes = block.Serialize();
  for (std::size_t cut : {1u, 10u, 33u}) {
    if (cut < bytes.size()) {
      EXPECT_FALSE(
          OhieBlock::Deserialize(bytes.substr(0, bytes.size() - cut), 2).ok());
    }
  }
  EXPECT_FALSE(OhieBlock::Deserialize(bytes + "x", 2).ok());
}

TEST(OhieWireTest, CountsBeyondTheirBytesRejected) {
  // miner, mine counter, then a parent-tip count; or no tips, a tx root and
  // a tx count. Counts no input can back must be Corruption, not a throw.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 62, std::uint64_t{2}}) {
    std::string tips(2, '\0');
    PutVarint64(tips, count);
    tips += std::string(32, '\0');
    std::string txs(3 + 32, '\0');
    PutVarint64(txs, count);
    txs.push_back('\0');
    for (const std::string& bytes : {tips, txs}) {
      Status status = Status::Internal("threw");
      EXPECT_NO_THROW(status = OhieBlock::Deserialize(bytes, 2).status());
      EXPECT_EQ(status.code(), StatusCode::kCorruption) << count;
    }
  }
}

// ---------- tree-graph block wire format ----------

TEST(TreeGraphWireTest, RoundTripAndAttach) {
  TreeGraphView view(2, 2);
  TGBlock first = view.PrepareBlock(0, {SomeTx(1)});
  first.Seal();
  ASSERT_TRUE(view.OnBlock(first).ok());
  TGBlock second = view.PrepareBlock(1, {SomeTx(2), SomeTx(3)});
  second.Seal();

  auto decoded = TGBlock::Deserialize(second.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->hash, second.hash);
  EXPECT_EQ(decoded->parent, first.hash);
  EXPECT_EQ(decoded->txs.size(), 2u);

  TreeGraphView other(3, 2);
  ASSERT_TRUE(other.OnBlock(first).ok());
  EXPECT_TRUE(other.OnBlock(*decoded).ok());
  EXPECT_EQ(other.PivotTip()->hash, second.hash);
}

TEST(TreeGraphWireTest, GarbageRejected) {
  EXPECT_FALSE(TGBlock::Deserialize("garbage").ok());
  EXPECT_FALSE(TGBlock::Deserialize("").ok());
}

TEST(TreeGraphWireTest, CountsBeyondTheirBytesRejected) {
  // miner, mine counter and parent, then a reference count; or no
  // references, a tx root and a tx count.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 62, std::uint64_t{2}}) {
    std::string refs(2 + 32, '\0');
    PutVarint64(refs, count);
    refs += std::string(32, '\0');
    std::string txs(2 + 32 + 1 + 32, '\0');
    PutVarint64(txs, count);
    txs.push_back('\0');
    for (const std::string& bytes : {refs, txs}) {
      Status status = Status::Internal("threw");
      EXPECT_NO_THROW(status = TGBlock::Deserialize(bytes).status());
      EXPECT_EQ(status.code(), StatusCode::kCorruption) << count;
    }
  }
}

// ---------- state sync ----------

void FillState(StateDB& db, std::uint64_t cells, std::uint64_t seed = 11) {
  Rng rng(seed);
  for (std::uint64_t i = 0; i < cells; ++i) {
    db.Set(Address(rng.Below(1u << 20)),
           static_cast<StateValue>(rng.Below(1'000'000)));
  }
}

TEST(StateSyncTest, FullSyncReproducesRootAndValues) {
  StateDB source;
  FillState(source, 5000);
  const Hash256 root = source.RootHash();

  StateSyncServer server(source, /*chunk_size=*/256);
  EXPECT_EQ(server.root(), root);  // same canonical encoding as StateDB

  StateSyncClient client(root);
  for (std::uint64_t i = 0; i < server.NumChunks(); ++i) {
    auto chunk = server.GetChunk(i);
    ASSERT_TRUE(chunk.ok());
    ASSERT_TRUE(client.AddChunk(*chunk).ok()) << "chunk " << i;
  }
  ASSERT_TRUE(client.Complete());

  StateDB target;
  ASSERT_TRUE(client.Finish(target).ok());
  EXPECT_EQ(target.RootHash(), root);
  EXPECT_EQ(target.Size(), source.Size());
  // Keep the snapshot alive across the loop: items() references into it.
  const StateSnapshot snapshot = source.MakeSnapshot(0);
  for (const auto& [address, value] : snapshot.items()) {
    EXPECT_EQ(target.Get(Address(address)), value);
  }
}

TEST(StateSyncTest, EmptyStateSyncs) {
  StateDB source;
  StateSyncServer server(source);
  EXPECT_EQ(server.NumChunks(), 1u);
  StateSyncClient client(server.root());
  auto chunk = server.GetChunk(0);
  ASSERT_TRUE(chunk.ok());
  EXPECT_TRUE(chunk->last);
  ASSERT_TRUE(client.AddChunk(*chunk).ok());
  StateDB target;
  EXPECT_TRUE(client.Finish(target).ok());
  EXPECT_EQ(target.Size(), 0u);
}

TEST(StateSyncTest, TamperedValueDetectedAtBoundary) {
  StateDB source;
  FillState(source, 600);
  StateSyncServer server(source, 100);
  StateSyncClient client(server.root());
  auto chunk = server.GetChunk(0);
  ASSERT_TRUE(chunk.ok());
  chunk->records.front().value += 1;  // lie about a proven record
  chunk->checksum = chunk->ComputeChecksum();  // malicious server: forged
  EXPECT_EQ(client.AddChunk(*chunk).code(), StatusCode::kCorruption);
  EXPECT_FALSE(StateSyncClient::IsChecksumFailure(client.AddChunk(*chunk)));
}

TEST(StateSyncTest, InteriorTamperingCaughtAtFinish) {
  StateDB source;
  FillState(source, 600);
  StateSyncServer server(source, 100);
  StateSyncClient client(server.root());
  for (std::uint64_t i = 0; i < server.NumChunks(); ++i) {
    auto chunk = server.GetChunk(i);
    ASSERT_TRUE(chunk.ok());
    if (i == 1) {
      chunk->records[50].value += 1;  // interior, not proven
      chunk->checksum = chunk->ComputeChecksum();  // forged by the server
    }
    ASSERT_TRUE(client.AddChunk(*chunk).ok());
  }
  StateDB target;
  EXPECT_EQ(client.Finish(target).code(), StatusCode::kCorruption);
  EXPECT_EQ(target.Size(), 0u);  // nothing installed
}

TEST(StateSyncTest, DroppedRecordCaughtAtFinish) {
  StateDB source;
  FillState(source, 600);
  StateSyncServer server(source, 100);
  StateSyncClient client(server.root());
  for (std::uint64_t i = 0; i < server.NumChunks(); ++i) {
    auto chunk = server.GetChunk(i);
    ASSERT_TRUE(chunk.ok());
    if (i == 2) {
      chunk->records.erase(chunk->records.begin() + 10);  // interior drop
      chunk->checksum = chunk->ComputeChecksum();  // forged by the server
    }
    ASSERT_TRUE(client.AddChunk(*chunk).ok());
  }
  StateDB target;
  EXPECT_EQ(client.Finish(target).code(), StatusCode::kCorruption);
}

TEST(StateSyncTest, WrongRootRejectedImmediately) {
  StateDB source;
  FillState(source, 100);
  StateSyncServer server(source, 50);
  Hash256 wrong = server.root();
  wrong.bytes[0] ^= 0xff;
  StateSyncClient client(wrong);
  auto chunk = server.GetChunk(0);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(client.AddChunk(*chunk).code(), StatusCode::kCorruption);
}

TEST(StateSyncTest, OutOfOrderChunksRejected) {
  StateDB source;
  FillState(source, 600);
  StateSyncServer server(source, 100);
  StateSyncClient client(server.root());
  auto chunk1 = server.GetChunk(1);
  ASSERT_TRUE(chunk1.ok());
  EXPECT_FALSE(client.AddChunk(*chunk1).ok());
}

TEST(StateSyncTest, ReorderedRecordsRejected) {
  StateDB source;
  FillState(source, 600);
  StateSyncServer server(source, 100);
  StateSyncClient client(server.root());
  auto chunk = server.GetChunk(0);
  ASSERT_TRUE(chunk.ok());
  std::swap(chunk->records[10], chunk->records[20]);
  chunk->checksum = chunk->ComputeChecksum();  // forged by the server
  EXPECT_EQ(client.AddChunk(*chunk).code(), StatusCode::kCorruption);
}

TEST(StateSyncTest, SyncedNodeContinuesProcessing) {
  // End-to-end: sync a node's state, then both the source and the synced
  // node process the same epoch batch and stay in agreement.
  WorkloadConfig wl;
  wl.num_accounts = 300;
  StateDB source;
  SmallBankWorkload::InitAccounts(source, wl.num_accounts, 1000, 1000);
  SmallBankWorkload workload(wl, 5);

  StateSyncServer server(source, 128);
  StateSyncClient client(source.RootHash());
  for (std::uint64_t i = 0; i < server.NumChunks(); ++i) {
    ASSERT_TRUE(client.AddChunk(*server.GetChunk(i)).ok());
  }
  StateDB synced;
  ASSERT_TRUE(client.Finish(synced).ok());

  const auto txs = workload.MakeBatch(100);
  for (StateDB* db : {&source, &synced}) {
    const StateSnapshot snap = db->MakeSnapshot(1);
    for (const Transaction& tx : txs) {
      auto rw = SimulateTransaction(snap, tx);
      ASSERT_TRUE(rw.ok());
      for (std::size_t i = 0; i < rw->writes.size(); ++i) {
        db->Set(rw->writes[i], rw->write_values[i]);
      }
    }
  }
  EXPECT_EQ(source.RootHash(), synced.RootHash());
}

}  // namespace
}  // namespace nezha
