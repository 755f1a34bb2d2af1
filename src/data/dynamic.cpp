#include "data/dynamic.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "objectives/logdet.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace bds::data {

namespace {

constexpr std::uint32_t kDeltaVersion = 1;

// Applies log records [oracle.corpus_epoch(), corpus.epoch()) in place.
void replay_log(SubmodularOracle& oracle, const DynamicCorpus& corpus) {
  const std::vector<Mutation>& log = corpus.log();
  for (std::uint64_t e = oracle.corpus_epoch(); e < log.size(); ++e) {
    const Mutation& m = log[e];
    if (m.kind == MutationKind::kInsert) {
      oracle.apply_insert(m.id, m.items, e + 1);
    } else {
      oracle.apply_erase(m.id, e + 1);
    }
  }
}

}  // namespace

DynamicCorpus::DynamicCorpus(std::shared_ptr<const SetSystem> base,
                             std::string name)
    : kind_(CorpusKind::kSets), name_(std::move(name)), sets_(std::move(base)) {
  if (!sets_) {
    throw std::invalid_argument("DynamicCorpus: null SetSystem base");
  }
  base_size_ = sets_->num_sets();
  dead_.assign(base_size_, 0);
  live_ = base_size_;
}

DynamicCorpus::DynamicCorpus(std::shared_ptr<const PointSet> base,
                             std::string name)
    : kind_(CorpusKind::kPoints),
      name_(std::move(name)),
      points_(std::move(base)) {
  if (!points_) {
    throw std::invalid_argument("DynamicCorpus: null PointSet base");
  }
  base_size_ = points_->size();
  point_dim_ = points_->dim();
  dead_.assign(base_size_, 0);
  live_ = base_size_;
}

void DynamicCorpus::check_kind(CorpusKind expected, const char* op) const {
  if (kind_ != expected) {
    throw std::logic_error(std::string("DynamicCorpus '") + name_ + "': " +
                           op + " requires a " +
                           (expected == CorpusKind::kSets ? "set-system"
                                                          : "point") +
                           " corpus");
  }
}

std::uint32_t DynamicCorpus::universe_size() const {
  check_kind(CorpusKind::kSets, "universe_size");
  return sets_->universe_size();
}

std::size_t DynamicCorpus::point_dim() const {
  check_kind(CorpusKind::kPoints, "point_dim");
  return point_dim_;
}

std::span<const std::uint32_t> DynamicCorpus::set_items(ElementId id) const {
  check_kind(CorpusKind::kSets, "set_items");
  if (id >= dead_.size()) {
    throw std::out_of_range("DynamicCorpus '" + name_ + "': set id " +
                            std::to_string(id) + " out of range");
  }
  if (id < base_size_) return sets_->set_items(id);
  const std::size_t row = id - base_size_;
  return std::span<const std::uint32_t>(
      ov_entries_.data() + ov_offsets_[row],
      static_cast<std::size_t>(ov_offsets_[row + 1] - ov_offsets_[row]));
}

ElementId DynamicCorpus::insert(std::vector<std::uint32_t> items) {
  check_kind(CorpusKind::kSets, "insert");
  // Canonicalize exactly like the owning SetSystem constructor (sort, dedup,
  // range check) so a materialized snapshot stores byte-identical rows.
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  for (const std::uint32_t e : items) {
    if (e >= sets_->universe_size()) {
      throw std::out_of_range("DynamicCorpus '" + name_ + "': element " +
                              std::to_string(e) + " outside universe");
    }
  }
  const auto id = static_cast<ElementId>(dead_.size());
  ov_entries_.insert(ov_entries_.end(), items.begin(), items.end());
  ov_offsets_.push_back(ov_entries_.size());
  dead_.push_back(0);
  ++live_;
  log_.push_back(
      Mutation{MutationKind::kInsert, id, std::move(items), {}});
  return id;
}

ElementId DynamicCorpus::insert_point(std::vector<float> values) {
  check_kind(CorpusKind::kPoints, "insert_point");
  if (values.size() != point_dim_) {
    throw std::invalid_argument(
        "DynamicCorpus '" + name_ + "': point has " +
        std::to_string(values.size()) + " coordinates, corpus dim is " +
        std::to_string(point_dim_));
  }
  const auto id = static_cast<ElementId>(dead_.size());
  ov_rows_.insert(ov_rows_.end(), values.begin(), values.end());
  dead_.push_back(0);
  ++live_;
  log_.push_back(
      Mutation{MutationKind::kInsert, id, {}, std::move(values)});
  return id;
}

void DynamicCorpus::erase(ElementId id) {
  if (!is_live(id)) {
    throw std::out_of_range("DynamicCorpus '" + name_ + "': erase of " +
                            (id < dead_.size() ? "already-dead" : "unknown") +
                            " id " + std::to_string(id));
  }
  dead_[id] = 1;
  --live_;
  // Point erases reindex at materialization (the exemplar cost sum must
  // drop the row), so ids from older epochs stop being addressable.
  if (kind_ == CorpusKind::kPoints) ids_stable_ = false;
  log_.push_back(Mutation{MutationKind::kErase, id, {}, {}});
}

void DynamicCorpus::apply(const Mutation& mutation) {
  switch (mutation.kind) {
    case MutationKind::kInsert: {
      const auto next = static_cast<ElementId>(dead_.size());
      if (mutation.id != next) {
        throw std::invalid_argument(
            "DynamicCorpus '" + name_ + "': delta insert carries id " +
            std::to_string(mutation.id) + " but the next ground id is " +
            std::to_string(next) +
            " — the delta was built against a different corpus state");
      }
      if (kind_ == CorpusKind::kSets) {
        insert(mutation.items);
      } else {
        insert_point(mutation.values);
      }
      return;
    }
    case MutationKind::kErase:
      erase(mutation.id);
      return;
  }
  throw std::invalid_argument("DynamicCorpus '" + name_ +
                              "': unknown mutation kind");
}

std::vector<ElementId> DynamicCorpus::live_ground() const {
  std::vector<ElementId> ground;
  ground.reserve(live_);
  if (kind_ == CorpusKind::kPoints && !ids_stable_) {
    // Materialized id space: live rows packed in order.
    for (ElementId id = 0; id < live_; ++id) ground.push_back(id);
    return ground;
  }
  for (ElementId id = 0; id < dead_.size(); ++id) {
    if (dead_[id] == 0) ground.push_back(id);
  }
  return ground;
}

std::shared_ptr<const SetSystem> DynamicCorpus::materialize_sets() const {
  check_kind(CorpusKind::kSets, "materialize_sets");
  std::vector<std::vector<std::uint32_t>> all;
  all.reserve(dead_.size());
  for (ElementId id = 0; id < dead_.size(); ++id) {
    const auto items = set_items(id);
    all.emplace_back(items.begin(), items.end());
  }
  return std::make_shared<SetSystem>(std::move(all), sets_->universe_size());
}

std::shared_ptr<const PointSet> DynamicCorpus::materialize_points() const {
  check_kind(CorpusKind::kPoints, "materialize_points");
  std::vector<float> packed;
  packed.reserve(live_ * point_dim_);
  for (ElementId id = 0; id < dead_.size(); ++id) {
    if (dead_[id] != 0) continue;
    if (id < base_size_) {
      const auto row = points_->point(id);
      packed.insert(packed.end(), row.begin(), row.end());
    } else {
      const std::size_t row = (id - base_size_) * point_dim_;
      packed.insert(packed.end(), ov_rows_.begin() + row,
                    ov_rows_.begin() + row + point_dim_);
    }
  }
  return std::make_shared<PointSet>(live_, point_dim_, std::move(packed));
}

std::size_t DynamicCorpus::overlay_state_bytes() const noexcept {
  std::size_t bytes = ov_offsets_.capacity() * sizeof(std::uint64_t) +
                      ov_entries_.capacity() * sizeof(std::uint32_t) +
                      ov_rows_.capacity() * sizeof(float) +
                      dead_.capacity() * sizeof(std::uint8_t);
  for (const Mutation& m : log_) {
    bytes += sizeof(Mutation) + m.items.capacity() * sizeof(std::uint32_t) +
             m.values.capacity() * sizeof(float);
  }
  return bytes;
}

std::string DynamicCorpus::serialize_delta(std::uint64_t from_epoch) const {
  if (from_epoch > log_.size()) {
    throw std::invalid_argument(
        "DynamicCorpus '" + name_ + "': delta from epoch " +
        std::to_string(from_epoch) + " but corpus is at epoch " +
        std::to_string(log_.size()));
  }
  std::ostringstream out;
  out << "bdsdelta " << kDeltaVersion << '\n';
  out << "count " << (log_.size() - from_epoch) << '\n';
  for (std::size_t i = from_epoch; i < log_.size(); ++i) {
    const Mutation& m = log_[i];
    if (m.kind == MutationKind::kErase) {
      out << "era " << m.id << '\n';
    } else if (!m.values.empty() || kind_ == CorpusKind::kPoints) {
      out << "pins " << m.id << ' ' << m.values.size();
      for (const float v : m.values) {
        out << ' ' << std::bit_cast<std::uint32_t>(v);
      }
      out << '\n';
    } else {
      out << "ins " << m.id << ' ' << m.items.size();
      for (const std::uint32_t e : m.items) out << ' ' << e;
      out << '\n';
    }
  }
  out << "end\n";
  return std::move(out).str();
}

std::vector<Mutation> DynamicCorpus::parse_delta(std::string_view text) {
  util::TokenReader in(text, "delta");
  in.expect("bdsdelta");
  const std::uint64_t version = in.u64();
  if (version != kDeltaVersion) {
    throw std::invalid_argument("delta: unsupported version " +
                                std::to_string(version));
  }
  in.expect("count");
  const std::size_t count = in.size();
  std::vector<Mutation> log;
  log.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string tag = in.word();
    Mutation m;
    if (tag == "era") {
      m.kind = MutationKind::kErase;
      m.id = static_cast<ElementId>(in.u64());
    } else if (tag == "ins") {
      m.kind = MutationKind::kInsert;
      m.id = static_cast<ElementId>(in.u64());
      const std::size_t n = in.size();
      m.items.reserve(n);
      for (std::size_t j = 0; j < n; ++j) {
        m.items.push_back(static_cast<std::uint32_t>(in.u64()));
      }
    } else if (tag == "pins") {
      m.kind = MutationKind::kInsert;
      m.id = static_cast<ElementId>(in.u64());
      const std::size_t n = in.size();
      m.values.reserve(n);
      for (std::size_t j = 0; j < n; ++j) {
        m.values.push_back(
            std::bit_cast<float>(static_cast<std::uint32_t>(in.u64())));
      }
    } else {
      throw std::invalid_argument("delta: unknown mutation tag '" + tag +
                                  "'");
    }
    log.push_back(std::move(m));
  }
  in.expect("end");
  return log;
}

void require_epoch(const SubmodularOracle& oracle,
                   const DynamicCorpus& corpus) {
  if (oracle.corpus_epoch() == corpus.epoch()) return;
  throw StaleOracleError(
      "stale oracle for corpus '" + corpus.name() + "': oracle built at "
      "epoch " + std::to_string(oracle.corpus_epoch()) + ", corpus is at "
      "epoch " + std::to_string(corpus.epoch()) +
      " — rebuild it or apply the missing mutations");
}

std::unique_ptr<SubmodularOracle> make_dynamic_oracle(
    const DynamicCorpus& corpus, std::string_view objective,
    const DynamicOracleOptions& options) {
  std::unique_ptr<SubmodularOracle> oracle;
  if (objective == "coverage") {
    if (corpus.corpus_kind() != CorpusKind::kSets) {
      throw std::invalid_argument(
          "make_dynamic_oracle: coverage needs a set-system corpus");
    }
    if (options.prefer_incremental) {
      // Over the (possibly mmap'd) base, with every insert appended to the
      // oracle's overlay in O(degree).
      oracle = std::make_unique<CoverageOracle>(corpus.base_sets());
      replay_log(*oracle, corpus);
    } else {
      // Rebuild fallback: an oracle over a materialized snapshot.
      oracle = std::make_unique<CoverageOracle>(corpus.materialize_sets());
    }
  } else if (objective == "exemplar" || objective == "sampled-exemplar" ||
             objective == "logdet") {
    if (corpus.corpus_kind() != CorpusKind::kPoints) {
      throw std::invalid_argument("make_dynamic_oracle: " +
                                  std::string(objective) +
                                  " needs a point corpus");
    }
    const auto points = corpus.materialize_points();
    if (objective == "exemplar") {
      oracle = std::make_unique<ExemplarOracle>(points, options.p0_dist);
    } else if (objective == "sampled-exemplar") {
      util::Rng rng(util::mix64(options.sample_seed));
      oracle = std::make_unique<SampledExemplarOracle>(
          points, options.p0_dist, options.sample_size, rng);
    } else {
      oracle = std::make_unique<LogDetOracle>(points, options.bandwidth,
                                              options.noise_variance);
    }
  } else {
    throw std::invalid_argument("make_dynamic_oracle: objective '" +
                                std::string(objective) +
                                "' has no dynamic path");
  }
  oracle->stamp_corpus_epoch(corpus.epoch());
  return oracle;
}

SyncedOracle sync_dynamic_oracle(std::unique_ptr<SubmodularOracle> oracle,
                                 const DynamicCorpus& corpus,
                                 std::string_view objective,
                                 const DynamicOracleOptions& options) {
  SyncedOracle synced;
  if (options.prefer_incremental && oracle->supports_dynamic_updates()) {
    replay_log(*oracle, corpus);
    synced.oracle = std::move(oracle);
  } else {
    synced.oracle = make_dynamic_oracle(corpus, objective, options);
    synced.rebuilt = true;
  }
  require_epoch(*synced.oracle, corpus);
  return synced;
}

}  // namespace bds::data
