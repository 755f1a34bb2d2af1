// DynamicCorpus — the epoch-versioned mutable corpus layer (ROADMAP item 3).
//
// Every entry point below this header assumes a frozen ground set; this
// class is where that assumption ends. A DynamicCorpus wraps an immutable
// base dataset (SetSystem or PointSet — possibly an mmap-backed, borrowing
// one from data/io.h) and layers mutations on top of it:
//
//  * insert — a new element appended after the base id range. The payload
//    lives in a small heap-side overlay (a second CSR / row block), so the
//    base stays untouched: zero-copy mmap loading keeps working, and the
//    overlay is the only thing workers must be told about to reproduce the
//    corpus (serialize_delta, shipped through data::CorpusSpec).
//  * erase — a tombstone. For set-system corpora ids are *stable*: the dead
//    set keeps its id and storage and simply leaves the candidate ground
//    (live_ground()); materialize() reproduces the identical id space, which
//    is what makes mutated-corpus runs bitwise comparable to from-scratch
//    rebuilds. For point corpora an erase must leave the exemplar cost sum,
//    so materialize() drops the row and reindexes — ids_stable() flips
//    false and cached solutions from older epochs are no longer addressable
//    (the serve layer invalidates instead of recertifying).
//
// Every mutation bumps a monotonically increasing **epoch** (== mutation-log
// length). Oracles carry the epoch they were built against
// (SubmodularOracle::corpus_epoch); require_epoch() makes stale use throw by
// name instead of silently answering for the wrong ground set.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "objectives/coverage.h"
#include "objectives/exemplar.h"
#include "objectives/submodular.h"
#include "util/element.h"

namespace bds::data {

enum class CorpusKind : std::uint8_t { kSets = 0, kPoints = 1 };

enum class MutationKind : std::uint8_t { kInsert = 0, kErase = 1 };

// One mutation-log record. Inserts carry their payload (set items or point
// coordinates) and the id the corpus assigned; replaying the log onto the
// same base therefore reproduces the identical corpus, which is the wire
// contract (CorpusSpec ships the log as a delta to process workers).
struct Mutation {
  MutationKind kind = MutationKind::kInsert;
  ElementId id = 0;
  std::vector<std::uint32_t> items;  // set-system insert payload (canonical)
  std::vector<float> values;         // point insert payload (dim floats)

  bool operator==(const Mutation&) const = default;
};

// Thrown when an oracle built at one epoch is used against a corpus that
// has moved on — see require_epoch().
class StaleOracleError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class DynamicCorpus {
 public:
  // Wraps an immutable base. The base may borrow mmap'd storage; it is
  // never written to. `name` appears in stale-oracle errors.
  explicit DynamicCorpus(std::shared_ptr<const SetSystem> base,
                         std::string name = "corpus");
  explicit DynamicCorpus(std::shared_ptr<const PointSet> base,
                         std::string name = "corpus");

  CorpusKind corpus_kind() const noexcept { return kind_; }
  const std::string& name() const noexcept { return name_; }

  // Mutation count since construction; the version every oracle and cache
  // entry is stamped with.
  std::uint64_t epoch() const noexcept { return log_.size(); }

  // Total id space: base elements plus overlay inserts (tombstones
  // included — erased ids are dead, not recycled).
  std::size_t size() const noexcept { return dead_.size(); }
  std::size_t live_count() const noexcept { return live_; }
  bool is_live(ElementId id) const {
    return id < dead_.size() && dead_[id] == 0;
  }
  std::size_t overlay_size() const noexcept {
    return kind_ == CorpusKind::kSets ? ov_offsets_.size() - 1
                                      : ov_rows_.size() / point_dim_;
  }

  // Set-system mode accessors. set_items dispatches between the base CSR
  // and the heap-side overlay; payloads are canonical (sorted unique, in
  // range) in both, exactly what a from-scratch SetSystem build produces.
  std::uint32_t universe_size() const;
  std::span<const std::uint32_t> set_items(ElementId id) const;
  std::shared_ptr<const SetSystem> base_sets() const { return sets_; }

  // Point mode accessors.
  std::size_t point_dim() const;
  std::shared_ptr<const PointSet> base_points() const { return points_; }

  // True while every live element keeps the id it was created with across
  // materialize(). Always true for set-system corpora; flips false on the
  // first point erase (materialization reindexes the rows).
  bool ids_stable() const noexcept { return ids_stable_; }

  // --- mutations (each bumps the epoch by one) ---

  // Canonicalizes (sort, dedup, range-check) and appends a new set;
  // returns its id (== size() before the call). Set-system mode only.
  ElementId insert(std::vector<std::uint32_t> items);
  // Appends a new point (values.size() == point_dim()). Point mode only.
  ElementId insert_point(std::vector<float> values);
  // Tombstones a live element. Throws std::out_of_range on an unknown or
  // already-erased id.
  void erase(ElementId id);
  // Replays one log record (the wire delta path). Insert records must
  // carry the id this corpus would assign — anything else throws, because
  // it means the delta was produced against a different corpus state.
  void apply(const Mutation& mutation);

  const std::vector<Mutation>& log() const noexcept { return log_; }

  // Candidate ground set for the current epoch: live ids ascending. For a
  // point corpus whose ids are no longer stable this is the materialized
  // id space [0, live_count()).
  std::vector<ElementId> live_ground() const;

  // From-scratch heap snapshot of the current epoch. Set-system mode keeps
  // the full id space (tombstoned sets stay, with their items — they are
  // excluded by ground, not by storage), so runs over the snapshot are id-
  // compatible with runs over the overlay. Point mode emits live rows only
  // (see ids_stable()).
  std::shared_ptr<const SetSystem> materialize_sets() const;
  std::shared_ptr<const PointSet> materialize_points() const;

  // Heap bytes the overlay holds on top of the (possibly mapped) base.
  std::size_t overlay_state_bytes() const noexcept;

  // Token-text encoding of log records [from_epoch, epoch()) — the delta a
  // CorpusSpec ships so a process worker reproduces this exact corpus from
  // the base file. Floats travel as bit patterns; round trips are exact.
  std::string serialize_delta(std::uint64_t from_epoch = 0) const;
  static std::vector<Mutation> parse_delta(std::string_view text);

 private:
  void check_kind(CorpusKind expected, const char* op) const;

  CorpusKind kind_;
  std::string name_;
  std::shared_ptr<const SetSystem> sets_;    // kSets base
  std::shared_ptr<const PointSet> points_;   // kPoints base
  std::size_t base_size_ = 0;

  // Heap-side overlay: inserted sets as a growing CSR (kSets) or packed
  // unpadded rows (kPoints).
  std::vector<std::uint64_t> ov_offsets_{0};
  std::vector<std::uint32_t> ov_entries_;
  std::vector<float> ov_rows_;
  std::size_t point_dim_ = 0;

  std::vector<std::uint8_t> dead_;  // tombstones over [0, size())
  std::vector<Mutation> log_;
  std::size_t live_ = 0;
  bool ids_stable_ = true;
};

// Throws StaleOracleError naming the corpus when `oracle` was built against
// a different epoch than the corpus currently holds. Every layer that keeps
// an oracle across mutations calls this before trusting it.
void require_epoch(const SubmodularOracle& oracle, const DynamicCorpus& corpus);

// Construction scalars for the dynamic oracle factory — the same knobs
// CorpusSpec carries for the frozen path.
struct DynamicOracleOptions {
  // Coverage: build a CoverageOracle over the base, replay the mutation log
  // into its overlay, and follow later mutations in place (O(degree) per
  // insert, see sync_dynamic_oracle). false builds every epoch's oracle
  // over a materialized snapshot instead: the rebuild path every other
  // objective takes, and the reference the dynamic = rebuild tests use.
  bool prefer_incremental = true;
  double p0_dist = 2.0;            // exemplar family
  std::size_t sample_size = 0;     // sampled-exemplar
  std::uint64_t sample_seed = 1;
  double bandwidth = 1.0;          // logdet
  double noise_variance = 1.0;
};

// Builds a fresh (empty-set) oracle prototype for the corpus's *current*
// epoch, stamped with it. "coverage" over a set-system corpus is a
// CoverageOracle over the base with the mutation log replayed into it
// (O(degree) per insert) unless options.prefer_incremental is false; every
// other objective is built over a materialized snapshot — the
// rebuild-on-epoch-change fallback. Throws std::invalid_argument on an
// unknown objective or an objective/corpus-kind mismatch.
std::unique_ptr<SubmodularOracle> make_dynamic_oracle(
    const DynamicCorpus& corpus, std::string_view objective,
    const DynamicOracleOptions& options = {});

// An oracle brought to its corpus's current epoch, and how.
struct SyncedOracle {
  std::unique_ptr<SubmodularOracle> oracle;
  bool rebuilt = false;  // built anew by make_dynamic_oracle
};

// The one place that decides how an oracle follows corpus mutations. When
// options.prefer_incremental is set and the oracle supports dynamic
// updates, it applies the log records [oracle->corpus_epoch(),
// corpus.epoch()) to `oracle` in place; otherwise it drops `oracle` and
// returns make_dynamic_oracle(corpus, objective, options). A caller whose
// oracle others may still read (serve's prototype) passes in a clone.
// Throws StaleOracleError if the result does not answer for the corpus's
// epoch (an oracle from a later epoch or another corpus).
SyncedOracle sync_dynamic_oracle(std::unique_ptr<SubmodularOracle> oracle,
                                 const DynamicCorpus& corpus,
                                 std::string_view objective,
                                 const DynamicOracleOptions& options);

}  // namespace bds::data
