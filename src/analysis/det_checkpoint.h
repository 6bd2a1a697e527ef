// Determinism checkpoints — stage-level divergence localization
// (docs/ANALYSIS.md "Determinism auditor").
//
// Every pinned property of this reproduction bottoms out in determinism:
// Algorithm 2 ranks must yield the same schedule on every replica, the
// parallel pipeline promises byte-identical output at any thread/shard
// count, and the convergence harness asserts replicas reach identical state
// roots. Until now that was only checked end-to-end: a break surfaced as an
// opaque final-root mismatch. This recorder computes a canonical SHA-256
// digest at each pipeline stage boundary —
//
//   kConsensus  committed block/vertex order leaving a consensus sim
//   kAcg        ACG vertex set, subscripts, readers/writers, edge multiset
//   kRank       Algorithm 1 sorting-rank order over the ACG addresses
//   kSort       schedule: per-tx sequence numbers, abort set, groups,
//               §IV.D reorders (Algorithm 2 output)
//   kExecute    merged write buffer (address -> value) + per-group commits
//   kCommit     state root, receipt root, commit-batch byte digest
//
// — and stores the digests in a bounded per-epoch ring (alongside the
// flight recorder's). Two runs of the same seed at different configurations
// (1 vs N threads, serial vs sharded ACG, different shard counts) can then
// be diffed checkpoint-by-checkpoint: DiffCheckpoints reports the FIRST
// stage whose digest diverges, and — when capture mode retained the
// canonical encodings — the first differing line of the offending stage,
// turning "roots differ" into "sort stage, tx 402: seq 17 vs 19".
//
// Digests are computed over *canonical encodings*: deterministic,
// newline-separated text serializations produced next to the data they
// describe (AddressConflictGraph::CanonicalEncoding, CanonicalRankEncoding,
// CanonicalScheduleEncoding, ...). This header deliberately takes only
// strings: src/cc links src/analysis (for the serializability oracle), so
// the encoders live with their data and this recorder stays layer-free.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/sha256.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace nezha::analysis {

/// Pipeline stage boundaries, in pipeline order. kConsensus is upstream of
/// the scheduling pipeline (recorded by the consensus sims); the five
/// following stages are the determinism-matrix boundaries.
enum class DetStage : std::uint8_t {
  kConsensus = 0,
  kAcg,
  kRank,
  kSort,
  kExecute,
  kCommit,
};
inline constexpr std::size_t kNumDetStages = 6;

const char* DetStageName(DetStage stage);

/// One epoch's checkpoints: a digest per recorded stage, plus the canonical
/// encodings when capture mode is on.
struct EpochCheckpoints {
  EpochId epoch = 0;
  std::string scheme;
  std::array<Hash256, kNumDetStages> digest{};
  std::array<bool, kNumDetStages> present{};
  std::array<std::string, kNumDetStages> canonical{};  ///< capture mode only

  bool Has(DetStage stage) const {
    return present[static_cast<std::size_t>(stage)];
  }
  const Hash256& Digest(DetStage stage) const {
    return digest[static_cast<std::size_t>(stage)];
  }
  const std::string& Canonical(DetStage stage) const {
    return canonical[static_cast<std::size_t>(stage)];
  }
};

/// Lock-protected bounded ring of per-epoch checkpoint records. Recording is
/// cheap (one SHA-256 over the canonical encoding, a few µs per stage) and
/// off the commit critical path; the NEZHA_DET_CHECKPOINTS toggle gates it
/// like the serializability oracle (on in !NDEBUG, off in release).
class DetCheckpointRecorder {
 public:
  static DetCheckpointRecorder& Global();

  explicit DetCheckpointRecorder(std::size_t capacity = 256);

  /// Resolution order: SetEnabled override, else NEZHA_DET_CHECKPOINTS env
  /// ("0"/"false"/"off" disables, anything else enables; read once), else on
  /// in debug builds (NDEBUG not defined), off in release.
  bool enabled() const;
  /// Programmatic override; std::nullopt falls back to env/build-type.
  void SetEnabled(std::optional<bool> enabled);

  /// When on, Record retains the canonical encoding next to its digest so
  /// DiffCheckpoints can produce a structured line diff (the replay differ
  /// and the determinism tests turn this on; it is off by default because
  /// encodings are O(epoch size)).
  void SetCapture(bool capture);
  bool capture() const;

  /// Opens the record for `epoch`; subsequent Record calls land in it. An
  /// epoch re-opened under the same (epoch, scheme) key reuses its slot so
  /// multi-phase pipelines accumulate one record per epoch.
  void BeginEpoch(EpochId epoch, std::string_view scheme);
  /// Closes the open record: Record calls until the next BeginEpoch are
  /// no-ops, so a schedule built after an epoch cannot overwrite its
  /// checkpoints.
  void EndEpoch();

  /// Digests `canonical` into the current epoch's `stage` slot. No-op when
  /// disabled or when no epoch is open (e.g. scheduler unit tests building
  /// schedules outside any pipeline). Re-recording a stage overwrites it
  /// (retries recompute the same bytes when the pipeline is deterministic —
  /// which is exactly what the auditor exists to prove).
  void Record(DetStage stage, std::string_view canonical);

  /// Test hook: XOR a marker into every subsequent digest recorded for
  /// `stage`, simulating a stage-local nondeterminism bug without touching
  /// the pipeline. std::nullopt clears. The mutation test uses this to prove
  /// an injected perturbation is localized to the right first checkpoint.
  void PerturbStageForTest(std::optional<DetStage> stage);

  /// All retained epoch records, ascending epoch order (ring order).
  std::vector<EpochCheckpoints> Snapshot() const;

  /// The retained record for `epoch`, if still in the ring.
  std::optional<EpochCheckpoints> Find(EpochId epoch,
                                       std::string_view scheme = {}) const;

  void Clear();

 private:
  mutable Mutex mutex_;
  std::size_t capacity_;
  std::vector<EpochCheckpoints> ring_ GUARDED_BY(mutex_);
  std::size_t open_ GUARDED_BY(mutex_) = SIZE_MAX;  ///< index into ring_
  std::optional<bool> enabled_override_ GUARDED_BY(mutex_);
  bool capture_ GUARDED_BY(mutex_) = false;
  std::optional<DetStage> perturb_ GUARDED_BY(mutex_);
};

/// Result of comparing two runs' checkpoints (analysis::DiffCheckpoints).
struct DivergenceReport {
  bool diverged = false;
  EpochId epoch = 0;          ///< first divergent epoch
  DetStage stage = DetStage::kConsensus;  ///< first divergent stage
  /// First differing canonical line (1-based; 0 when encodings were not
  /// captured and only digests were compared).
  std::size_t line = 0;
  std::string line_a;  ///< the offending line on side A ("<missing>" if short)
  std::string line_b;
  std::string summary;  ///< human-readable one-liner

  /// Stages whose digests matched before the divergence (evidence that the
  /// break is stage-local, not upstream).
  std::vector<DetStage> matched_stages;
};

/// Compares two runs epoch-by-epoch, stage-by-stage (pipeline order), and
/// reports the FIRST divergence. Epochs are matched by id; an epoch present
/// on one side only is itself a divergence. Stages recorded on only one
/// side are skipped (e.g. serial scheme records no kAcg).
DivergenceReport DiffCheckpoints(const std::vector<EpochCheckpoints>& a,
                                 const std::vector<EpochCheckpoints>& b);

/// First differing line of two canonical encodings (helper for the differ
/// and its tests). Returns 1-based line number, 0 if equal.
std::size_t FirstDifferingLine(std::string_view a, std::string_view b,
                               std::string* line_a, std::string* line_b);

}  // namespace nezha::analysis
