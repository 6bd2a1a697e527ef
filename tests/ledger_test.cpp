// Unit tests for the ledger substrate: transaction/block serialization and
// hashing, Merkle roots, epoch flattening, and parallel-chain validation.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "ledger/block.h"
#include "ledger/epoch.h"
#include "ledger/ledger.h"
#include "ledger/transaction.h"
#include "ledger/validation.h"
#include "obs/metrics.h"
#include "vm/smallbank.h"

namespace nezha {
namespace {

Transaction MakeTx(std::uint64_t nonce, std::uint64_t account = 1) {
  Transaction tx;
  tx.nonce = nonce;
  tx.payload =
      MakeSmallBankCall(SmallBankOp::kUpdateBalance, {account, 10});
  return tx;
}

// ---------- Transaction ----------

TEST(TransactionTest, SerializeRoundTrip) {
  const Transaction tx = MakeTx(42, 7);
  auto decoded = Transaction::Deserialize(tx.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, tx);
}

TEST(TransactionTest, IdIsStable) {
  EXPECT_EQ(MakeTx(1).Id(), MakeTx(1).Id());
  EXPECT_NE(MakeTx(1).Id(), MakeTx(2).Id());
}

TEST(TransactionTest, IdDependsOnPayload) {
  Transaction a = MakeTx(1, 5);
  Transaction b = MakeTx(1, 6);
  EXPECT_NE(a.Id(), b.Id());
}

TEST(TransactionTest, DeserializeRejectsTruncated) {
  std::string bytes = MakeTx(1).Serialize();
  bytes.pop_back();
  EXPECT_FALSE(Transaction::Deserialize(bytes).ok());
}

TEST(TransactionTest, DeserializeRejectsTrailing) {
  std::string bytes = MakeTx(1).Serialize();
  bytes += "x";
  EXPECT_FALSE(Transaction::Deserialize(bytes).ok());
}

TEST(TransactionTest, IdsArePinnedAcrossArgumentStorage) {
  // Tx ids and tx roots are consensus-visible: they must not depend on how
  // TxArgs stores the arguments. These values were computed when args was a
  // std::vector; the batch spans 0 to 6 arguments (in place and spilled)
  // and one- to ten-byte varints.
  const std::vector<std::vector<std::uint64_t>> arg_lists = {
      {}, {7}, {1, 2}, {300, 1ull << 35, 5}, {0, ~0ull, 128, 16384},
      {1, 2, 3, 4, 5, 6}};
  const char* const ids[] = {
      "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
      "dfeeb115dd2d6b4aad65346992ef70d9782c7c83158c7f245dd8668fad04c212",
      "2aee433990947f59d5631dddd39b94f2e61af92ab6fb29ef6198a6188ffbe96a",
      "902dc388db6d4eccbb71d9ad20bbf8b96aee96a5155d1bc68ae266e2c7e4eca8",
      "a96485fd332b7310c799f539426b11d9398fd139765c7c7b136aafa2c59d1c24",
      "a3dd052f7ee17c5708cd587bd208752f40715d60cc43705e8766f9da7553501b"};
  std::vector<Transaction> txs;
  std::uint64_t nonce = 0;
  for (const auto& args : arg_lists) {
    Transaction tx;
    tx.nonce = nonce;
    tx.payload.contract = static_cast<std::uint32_t>(nonce % 3);
    tx.payload.op = static_cast<std::uint32_t>(nonce * 5);
    tx.payload.args.assign(args.data(), args.data() + args.size());
    txs.push_back(tx);
    nonce = nonce * 1000 + 129;
  }
  for (std::size_t i = 0; i < txs.size(); ++i) {
    EXPECT_EQ(txs[i].Id().ToHex(), ids[i]) << "tx " << i;
  }
  EXPECT_EQ(ComputeTxMerkleRoot(txs).ToHex(),
            "dce310c1c203bea57e68d22ef2fad3d290cb505b7c2537d4b25cdde3f8fc614d");
}

TEST(TransactionTest, SixArgumentPayloadRoundTrips) {
  Transaction tx;
  tx.nonce = 9;
  tx.payload.args = {1, 2, 3, 4, 5, ~0ull};  // more than TxArgs keeps in place
  auto decoded = Transaction::Deserialize(tx.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, tx);
  ASSERT_EQ(decoded->payload.args.size(), 6u);
  EXPECT_EQ(decoded->payload.args[5], ~0ull);

  Transaction copy = *decoded;
  Transaction moved = std::move(*decoded);
  EXPECT_EQ(copy, tx);
  EXPECT_EQ(moved, tx);
  copy.payload.args = {4};
  EXPECT_EQ(copy.payload.args.size(), 1u);
  EXPECT_EQ(moved.payload.args.size(), 6u);
}

TEST(TransactionTest, DeserializeRejectsArgCountBeyondItsBytes) {
  // nonce, contract and op, then an argument count no input can back: it
  // must come back as Corruption before anything is reserved for it.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 62, std::uint64_t{3}}) {
    std::string bytes(3, '\0');
    PutVarint64(bytes, count);
    bytes += "\x01\x02";
    Status status = Status::Internal("threw");
    EXPECT_NO_THROW(status = Transaction::Deserialize(bytes).status()) << count;
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << count;
  }
}

// ---------- Merkle root ----------

TEST(MerkleRootTest, EmptyIsZero) {
  EXPECT_TRUE(ComputeTxMerkleRoot({}).IsZero());
}

TEST(MerkleRootTest, SensitiveToContentAndOrder) {
  const std::vector<Transaction> a = {MakeTx(1), MakeTx(2)};
  const std::vector<Transaction> b = {MakeTx(2), MakeTx(1)};
  const std::vector<Transaction> c = {MakeTx(1), MakeTx(3)};
  EXPECT_NE(ComputeTxMerkleRoot(a), ComputeTxMerkleRoot(b));
  EXPECT_NE(ComputeTxMerkleRoot(a), ComputeTxMerkleRoot(c));
  EXPECT_EQ(ComputeTxMerkleRoot(a), ComputeTxMerkleRoot(a));
}

TEST(MerkleRootTest, OddCountsWork) {
  for (std::uint64_t n : {1u, 3u, 5u, 7u}) {
    std::vector<Transaction> txs;
    for (std::uint64_t i = 0; i < n; ++i) txs.push_back(MakeTx(i));
    EXPECT_FALSE(ComputeTxMerkleRoot(txs).IsZero()) << n;
  }
}

// ---------- Block ----------

TEST(BlockTest, SerializeRoundTrip) {
  Block block;
  block.header.epoch = 3;
  block.header.chain = 2;
  block.header.height = 5;
  block.header.proposer = 9;
  block.transactions = {MakeTx(1), MakeTx(2), MakeTx(3)};
  block.header.tx_root = ComputeTxMerkleRoot(block.transactions);

  auto decoded = Block::Deserialize(block.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.epoch, 3u);
  EXPECT_EQ(decoded->header.chain, 2u);
  EXPECT_EQ(decoded->transactions.size(), 3u);
  EXPECT_EQ(decoded->Hash(), block.Hash());
}

TEST(BlockTest, HashCoversHeaderFields) {
  Block a, b;
  a.header.epoch = 1;
  b.header.epoch = 2;
  EXPECT_NE(a.Hash(), b.Hash());
  b.header.epoch = 1;
  EXPECT_EQ(a.Hash(), b.Hash());
  b.header.prev_state_root.bytes[0] = 1;
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(BlockTest, DeserializeRejectsTxCountBeyondItsBytes) {
  const std::string header = BlockHeader{}.Serialize();
  for (const std::uint64_t count :
       {std::uint64_t{1} << 62, std::uint64_t{2}}) {
    std::string bytes;
    PutVarint64(bytes, header.size());
    bytes += header;
    PutVarint64(bytes, count);
    bytes.push_back('\0');  // one empty transaction's length prefix
    Status status = Status::Internal("threw");
    EXPECT_NO_THROW(status = Block::Deserialize(bytes).status()) << count;
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << count;
  }
}

// ---------- EpochBatch ----------

TEST(EpochBatchTest, FlattensInBlockOrder) {
  Block b0, b1;
  b0.header.chain = 0;
  b0.transactions = {MakeTx(1), MakeTx(2)};
  b1.header.chain = 1;
  b1.transactions = {MakeTx(3)};
  const EpochBatch batch = EpochBatch::FromBlocks(1, {b0, b1});
  ASSERT_EQ(batch.TxCount(), 3u);
  EXPECT_EQ(batch.txs[0].nonce, 1u);
  EXPECT_EQ(batch.txs[1].nonce, 2u);
  EXPECT_EQ(batch.txs[2].nonce, 3u);
  EXPECT_EQ(batch.BlockConcurrency(), 2u);
}

TEST(EpochBatchTest, DropsDuplicates) {
  Block b0, b1;
  b0.transactions = {MakeTx(1), MakeTx(2)};
  b1.transactions = {MakeTx(2), MakeTx(3)};  // tx 2 repeated
  const EpochBatch batch = EpochBatch::FromBlocks(1, {b0, b1});
  EXPECT_EQ(batch.TxCount(), 3u);
  EXPECT_EQ(batch.duplicates_dropped, 1u);
}

// ---------- ParallelChainLedger ----------

class LedgerTest : public ::testing::Test {
 protected:
  LedgerTest() : ledger_(4, &kv_) {}

  Block MakeValidBlock(ChainId chain, EpochId epoch,
                       std::vector<Transaction> txs) {
    return ledger_.BuildBlock(chain, epoch, std::move(txs));
  }

  KVStore kv_;
  ParallelChainLedger ledger_;
};

TEST_F(LedgerTest, AppendValidBlocks) {
  for (ChainId c = 0; c < 4; ++c) {
    ASSERT_TRUE(ledger_.AppendBlock(MakeValidBlock(c, 1, {MakeTx(c)})).ok());
  }
  EXPECT_EQ(ledger_.TotalBlocks(), 4u);
  EXPECT_EQ(ledger_.ChainHeight(0), 1u);
}

TEST_F(LedgerTest, RejectsWrongChainId) {
  Block block = MakeValidBlock(0, 1, {});
  block.header.chain = 7;  // out of range
  EXPECT_FALSE(ledger_.ValidateBlock(block).ok());
}

TEST_F(LedgerTest, RejectsWrongParentHash) {
  ASSERT_TRUE(ledger_.AppendBlock(MakeValidBlock(0, 1, {MakeTx(1)})).ok());
  Block block = MakeValidBlock(0, 2, {MakeTx(2)});
  block.header.parent_hash.bytes[5] ^= 1;
  EXPECT_FALSE(ledger_.ValidateBlock(block).ok());
}

TEST_F(LedgerTest, RejectsWrongHeight) {
  Block block = MakeValidBlock(0, 1, {});
  block.header.height = 3;
  EXPECT_FALSE(ledger_.ValidateBlock(block).ok());
}

TEST_F(LedgerTest, RejectsStaleStateRoot) {
  // Paper §III.B: a block whose state root does not match the previous
  // epoch's state is invalid and discarded.
  ASSERT_TRUE(ledger_.AppendBlock(MakeValidBlock(0, 1, {MakeTx(1)})).ok());
  Hash256 new_root;
  new_root.bytes[0] = 0xaa;
  ledger_.CommitEpochRoot(1, new_root);

  Block stale = MakeValidBlock(0, 2, {MakeTx(2)});
  stale.header.prev_state_root = Hash256{};  // pretends epoch 1 never ran
  EXPECT_FALSE(ledger_.ValidateBlock(stale).ok());

  Block fresh = MakeValidBlock(0, 2, {MakeTx(2)});
  EXPECT_EQ(fresh.header.prev_state_root, new_root);
  EXPECT_TRUE(ledger_.AppendBlock(std::move(fresh)).ok());
}

TEST_F(LedgerTest, RejectsWrongTxRoot) {
  Block block = MakeValidBlock(0, 1, {MakeTx(1)});
  block.transactions.push_back(MakeTx(99));  // body no longer matches root
  EXPECT_FALSE(ledger_.ValidateBlock(block).ok());
}

TEST_F(LedgerTest, RejectsNonAdvancingEpoch) {
  ASSERT_TRUE(ledger_.AppendBlock(MakeValidBlock(0, 2, {})).ok());
  Block block = MakeValidBlock(0, 2, {});
  EXPECT_FALSE(ledger_.ValidateBlock(block).ok());
}

TEST_F(LedgerTest, RejectionMatrixReportsExactReasons) {
  // Every header/body field a Byzantine producer could tamper with maps to
  // its own taxonomy reason (docs/ROBUSTNESS.md): mutate one field at a
  // time and pin the exact reason parsed back from the Status message.
  using ledger::RejectReason;
  using ledger::RejectReasonOf;

  // Anchor some history so parent/height/epoch mutations have a real tip
  // to disagree with.
  ASSERT_TRUE(ledger_.AppendBlock(MakeValidBlock(0, 1, {MakeTx(1)})).ok());
  Hash256 root;
  root.bytes[0] = 0xaa;
  ledger_.CommitEpochRoot(1, root);

  const auto reason_of = [&](const Block& block) {
    const Status status = ledger_.ValidateBlock(block);
    EXPECT_FALSE(status.ok());
    return RejectReasonOf(status);
  };

  {
    Block b = MakeValidBlock(0, 2, {MakeTx(2)});
    b.header.chain = 9;
    EXPECT_EQ(reason_of(b), RejectReason::kChainOutOfRange);
  }
  {
    Block b = MakeValidBlock(0, 2, {MakeTx(2)});
    b.header.height += 2;
    EXPECT_EQ(reason_of(b), RejectReason::kBadHeight);
  }
  {
    Block b = MakeValidBlock(0, 2, {MakeTx(2)});
    b.header.parent_hash.bytes[3] ^= 0xFF;
    EXPECT_EQ(reason_of(b), RejectReason::kBadParent);
  }
  {
    Block b = MakeValidBlock(0, 2, {MakeTx(2)});
    b.header.epoch = 1;  // does not advance past the chain tip's epoch
    EXPECT_EQ(reason_of(b), RejectReason::kEpochRegression);
  }
  {
    Block b = MakeValidBlock(0, 2, {MakeTx(2)});
    b.header.prev_state_root.bytes[0] ^= 0xFF;
    EXPECT_EQ(reason_of(b), RejectReason::kBadStateRoot);
  }
  {
    const std::size_t cap = ledger_.max_block_txs();
    ledger_.SetMaxBlockTxs(2);
    Block b = MakeValidBlock(0, 2, {MakeTx(2), MakeTx(3), MakeTx(4)});
    EXPECT_EQ(reason_of(b), RejectReason::kOversize);
    ledger_.SetMaxBlockTxs(cap);
  }
  {
    Block b = MakeValidBlock(0, 2, {MakeTx(2)});
    b.header.tx_root.bytes[7] ^= 0xFF;  // root no longer covers the body
    EXPECT_EQ(reason_of(b), RejectReason::kBadTxRoot);
  }
  {
    // Body carries the same transaction twice; the root honestly covers
    // the duplicated body, so only the dedup check can catch it.
    Block b = MakeValidBlock(0, 2, {MakeTx(2), MakeTx(2)});
    EXPECT_EQ(reason_of(b), RejectReason::kDuplicateTx);
  }

  // Each rejection above also bumped the taxonomy metric for the ledger.
  EXPECT_GE(obs::Registry()
                .GetCounter("nezha_invalid_block_total",
                            {{"component", "ledger"},
                             {"reason", "duplicate-tx"}})
                ->Value(),
            1u);

  // The untampered block still validates and appends.
  EXPECT_TRUE(ledger_.AppendBlock(MakeValidBlock(0, 2, {MakeTx(2)})).ok());
}

TEST_F(LedgerTest, SealEpochCollectsAcrossChains) {
  for (ChainId c = 0; c < 3; ++c) {
    ASSERT_TRUE(
        ledger_.AppendBlock(MakeValidBlock(c, 1, {MakeTx(10 + c)})).ok());
  }
  auto batch = ledger_.SealEpoch(1);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->BlockConcurrency(), 3u);
  EXPECT_EQ(batch->TxCount(), 3u);
  // Blocks must be ordered by chain id.
  EXPECT_EQ(batch->blocks[0].header.chain, 0u);
  EXPECT_EQ(batch->blocks[2].header.chain, 2u);
}

TEST_F(LedgerTest, SealEmptyEpochFails) {
  EXPECT_FALSE(ledger_.SealEpoch(9).ok());
}

TEST_F(LedgerTest, PersistsAndReloadsBlocks) {
  const Block original = MakeValidBlock(1, 1, {MakeTx(5), MakeTx(6)});
  ASSERT_TRUE(ledger_.AppendBlock(original).ok());
  auto loaded = ledger_.LoadBlock(1, 0);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Hash(), original.Hash());
  EXPECT_EQ(loaded->transactions.size(), 2u);
}

TEST_F(LedgerTest, StateRootBeforeWalksHistory) {
  EXPECT_TRUE(ledger_.StateRootBefore(1).IsZero());
  Hash256 r1, r2;
  r1.bytes[0] = 1;
  r2.bytes[0] = 2;
  ledger_.CommitEpochRoot(1, r1);
  ledger_.CommitEpochRoot(2, r2);
  EXPECT_TRUE(ledger_.StateRootBefore(1).IsZero());
  EXPECT_EQ(ledger_.StateRootBefore(2), r1);
  EXPECT_EQ(ledger_.StateRootBefore(3), r2);
  EXPECT_EQ(ledger_.StateRootBefore(100), r2);
}

}  // namespace
}  // namespace nezha
