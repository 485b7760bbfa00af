#include "ml/logistic_regression.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <compare>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace ceres {

namespace {

// Computes the softmax of `logits` in place, numerically stabilized.
void SoftmaxInPlace(std::span<double> logits) {
  double max_logit = *std::max_element(logits.begin(), logits.end());
  double sum = 0;
  for (double& v : logits) {
    v = std::exp(v - max_logit);
    sum += v;
  }
  for (double& v : logits) v /= sum;
}

bool SameEntry(const std::pair<int32_t, double>& a,
               const std::pair<int32_t, double>& b) {
  return a.first == b.first &&
         std::bit_cast<uint64_t>(a.second) == std::bit_cast<uint64_t>(b.second);
}

/// Sorts example positions lexicographically on the examples' full
/// entries, each entry by index and then by the bits of its value (a strict
/// prefix first), then by label, then by position: the order of a stable
/// sort, in which equal examples (same entries, entries at index >=
/// num_features included, and same label) are adjacent with the first
/// occurrence first. Returns, per sorted position, whether its example
/// equals the one before it.
///
/// It is a three-way radix quicksort on the entries (Bentley and
/// Sedgewick): a range of rows that agree on their first `depth` entries
/// skips the further entries they all share, then splits on the next one
/// alone. A comparison sort would re-read each shared prefix at every
/// comparison, and a fit's rows share long ones: its pages share a
/// template, and many rows have copies.
std::vector<bool> SortRows(const std::vector<LabeledExample>& examples,
                           std::vector<int32_t>* positions) {
  // Entry `depth` of a row as a key; a row that ends before it gets {-1, 0},
  // below every entry (indices are not negative).
  struct Key {
    int32_t index;
    uint64_t bits;
    auto operator<=>(const Key&) const = default;
  };
  std::vector<std::span<const std::pair<int32_t, double>>> entries_of;
  entries_of.reserve(examples.size());
  for (const LabeledExample& example : examples) {
    entries_of.emplace_back(example.features.entries());
  }
  const auto key = [&entries_of](int32_t e, size_t depth) -> Key {
    const auto entries = entries_of[static_cast<size_t>(e)];
    if (depth >= entries.size()) return {-1, 0};
    return {entries[depth].first,
            std::bit_cast<uint64_t>(entries[depth].second)};
  };
  const auto label_of = [&examples](int32_t e) {
    return examples[static_cast<size_t>(e)].label;
  };
  struct Range {
    size_t begin;
    size_t end;
    size_t depth;
  };
  int32_t* rows = positions->data();
  std::vector<bool> repeats(positions->size(), false);
  std::vector<Range> pending{{0, positions->size(), 0}};
  while (!pending.empty()) {
    Range range = pending.back();
    pending.pop_back();
    if (range.end - range.begin < 2) continue;
    const auto first = entries_of[static_cast<size_t>(rows[range.begin])];
    size_t shared = first.size() - std::min(first.size(), range.depth);
    for (size_t i = range.begin + 1; i < range.end && shared > 0; ++i) {
      const auto other = entries_of[static_cast<size_t>(rows[i])];
      if (other.size() <= range.depth) {
        shared = 0;
        break;
      }
      const auto from = first.begin() + static_cast<ptrdiff_t>(range.depth);
      const size_t limit = std::min(shared, other.size() - range.depth);
      shared = static_cast<size_t>(
          std::mismatch(from, from + static_cast<ptrdiff_t>(limit),
                        other.begin() + static_cast<ptrdiff_t>(range.depth),
                        SameEntry)
              .first -
          from);
    }
    range.depth += shared;
    const Key pivot =
        key(rows[range.begin + (range.end - range.begin) / 2], range.depth);
    size_t below = range.begin;
    size_t at = range.begin;
    size_t above = range.end;
    while (at < above) {
      const Key k = key(rows[at], range.depth);
      if (k < pivot) {
        std::swap(rows[below++], rows[at++]);
      } else if (pivot < k) {
        std::swap(rows[at], rows[--above]);
      } else {
        ++at;
      }
    }
    pending.push_back({range.begin, below, range.depth});
    pending.push_back({above, range.end, range.depth});
    if (pivot.index >= 0) {
      pending.push_back({below, above, range.depth + 1});
      continue;
    }
    // Rows with the same entries: by label, then position.
    std::sort(rows + below, rows + above, [&label_of](int32_t a, int32_t b) {
      return label_of(a) != label_of(b) ? label_of(a) < label_of(b) : a < b;
    });
    for (size_t i = below + 1; i < above; ++i) {
      repeats[i] = label_of(rows[i]) == label_of(rows[i - 1]);
    }
  }
  return repeats;
}

/// The number of leading entries with index < num_features: the entries
/// the fit uses (finalized entries are sorted by index).
size_t KeptEntries(const SparseVector& features, int32_t num_features) {
  const auto& entries = features.entries();
  return static_cast<size_t>(
      std::partition_point(entries.begin(), entries.end(),
                           [num_features](const auto& entry) {
                             return entry.first < num_features;
                           }) -
      entries.begin());
}

/// The training rows of one fit, planned once so that every evaluation of
/// the objective does identical work once. A row is a distinct example
/// (same label and entries, bit for bit) standing for all its copies. Rows
/// are numbered in first-occurrence order and keep only their entries at
/// index < num_features.
///
/// - Forward: the rows in lexicographic order of their entries. Row
///   forward_row[i] shares its first prefix[i] entries with the row before
///   it in that order, so it resumes from that row's partial logits and
///   stores only its later entries: [suffix_end[i - 1], suffix_end[i]) of
///   suffix_column and suffix_value (suffix_end[-1] = 0).
/// - Backward: the columns of the row-by-feature matrix, each distinct
///   (row, value) list once, rows ascending: column c is
///   [column_end[c - 1], column_end[c]) of column_row and column_value.
///   Feature f reads column column_of[f]; a feature in no row reads
///   column_end.size(), whose gradient block stays zero.
struct FitPlan {
  /// Per row: its class among the fitted classes, and how many examples
  /// it stands for.
  std::vector<int32_t> label;
  std::vector<double> count;

  std::vector<int32_t> forward_row;
  std::vector<int32_t> prefix;
  std::vector<size_t> suffix_end;
  std::vector<int32_t> suffix_column;
  std::vector<double> suffix_value;
  /// The most entries any row keeps.
  size_t max_depth = 0;

  std::vector<size_t> column_end;
  std::vector<int32_t> column_row;
  std::vector<double> column_value;
  std::vector<int32_t> column_of;
};

/// Fills the plan's backward half: every feature's (row, value) list over
/// the rows' kept entries, rows ascending, then each distinct list once.
void PlanColumns(const std::vector<const SparseVector*>& features_of_row,
                 int32_t num_features, FitPlan* plan) {
  // Every list, in compressed sparse column form: feature f's list is
  // [begin[f], begin[f + 1]) of all_row and all_value.
  const auto num_cols = static_cast<size_t>(num_features);
  std::vector<size_t> begin(num_cols + 1, 0);
  for (const SparseVector* features : features_of_row) {
    const size_t keep = KeptEntries(*features, num_features);
    for (size_t e = 0; e < keep; ++e) {
      ++begin[static_cast<size_t>(features->entries()[e].first) + 1];
    }
  }
  for (size_t f = 0; f < num_cols; ++f) begin[f + 1] += begin[f];
  std::vector<int32_t> all_row(begin[num_cols]);
  std::vector<double> all_value(begin[num_cols]);
  std::vector<size_t> next(begin.begin(), begin.end() - 1);
  for (size_t r = 0; r < features_of_row.size(); ++r) {
    const SparseVector& features = *features_of_row[r];
    const size_t keep = KeptEntries(features, num_features);
    for (size_t e = 0; e < keep; ++e) {
      const auto& [index, value] = features.entries()[e];
      const size_t at = next[static_cast<size_t>(index)]++;
      all_row[at] = static_cast<int32_t>(r);
      all_value[at] = value;
    }
  }

  // A stable sort by content puts equal lists next to each other, lowest
  // feature first; that feature stands for them all.
  const auto compare_columns = [&](int32_t f, int32_t g) {
    const size_t fb = begin[static_cast<size_t>(f)];
    const size_t gb = begin[static_cast<size_t>(g)];
    const size_t size = begin[static_cast<size_t>(f) + 1] - fb;
    const size_t other = begin[static_cast<size_t>(g) + 1] - gb;
    if (size != other) return size < other ? -1 : 1;
    for (size_t i = 0; i < size; ++i) {
      if (all_row[fb + i] != all_row[gb + i]) {
        return all_row[fb + i] < all_row[gb + i] ? -1 : 1;
      }
      const uint64_t fv = std::bit_cast<uint64_t>(all_value[fb + i]);
      const uint64_t gv = std::bit_cast<uint64_t>(all_value[gb + i]);
      if (fv != gv) return fv < gv ? -1 : 1;
    }
    return 0;
  };
  std::vector<int32_t> by_content;
  for (size_t f = 0; f < num_cols; ++f) {
    if (begin[f + 1] > begin[f]) by_content.push_back(static_cast<int32_t>(f));
  }
  std::stable_sort(by_content.begin(), by_content.end(),
                   [&](int32_t f, int32_t g) {
                     return compare_columns(f, g) < 0;
                   });
  std::vector<int32_t> stands_for(num_cols, -1);
  size_t distinct = 0;
  size_t distinct_entries = 0;
  for (size_t i = 0; i < by_content.size(); ++i) {
    const auto f = static_cast<size_t>(by_content[i]);
    if (i > 0 && compare_columns(by_content[i - 1], by_content[i]) == 0) {
      stands_for[f] = stands_for[static_cast<size_t>(by_content[i - 1])];
      continue;
    }
    stands_for[f] = static_cast<int32_t>(f);
    ++distinct;
    distinct_entries += begin[f + 1] - begin[f];
  }

  // The distinct lists in order of the features that stand for them; each
  // other feature comes after its stand-in and copies its column.
  plan->column_end.reserve(distinct);
  plan->column_row.reserve(distinct_entries);
  plan->column_value.reserve(distinct_entries);
  plan->column_of.assign(num_cols, static_cast<int32_t>(distinct));
  for (size_t f = 0; f < num_cols; ++f) {
    if (stands_for[f] < 0) continue;
    const auto stand_in = static_cast<size_t>(stands_for[f]);
    if (stand_in != f) {
      plan->column_of[f] = plan->column_of[stand_in];
      continue;
    }
    plan->column_row.insert(plan->column_row.end(), all_row.begin() + begin[f],
                            all_row.begin() + begin[f + 1]);
    plan->column_value.insert(plan->column_value.end(),
                              all_value.begin() + begin[f],
                              all_value.begin() + begin[f + 1]);
    plan->column_of[f] = static_cast<int32_t>(plan->column_end.size());
    plan->column_end.push_back(plan->column_row.size());
  }
}

/// Plans the fit of `examples`. Every temporary is freed on return, before
/// the solver runs.
FitPlan PlanFit(const std::vector<LabeledExample>& examples,
                const std::vector<int32_t>& dense_of, int32_t num_features) {
  const size_t num_examples = examples.size();
  const auto example_at = [&examples](int32_t e) -> const LabeledExample& {
    return examples[static_cast<size_t>(e)];
  };
  FitPlan plan;

  // Equal examples, made adjacent by the sort, form one run that starts
  // with its first occurrence: lead[j] is run j's first example.
  std::vector<int32_t> lead(num_examples);
  std::iota(lead.begin(), lead.end(), 0);
  const std::vector<bool> repeats = SortRows(examples, &lead);
  std::vector<int32_t> run_size;
  for (size_t i = 0; i < num_examples; ++i) {
    if (repeats[i]) {
      ++run_size.back();
      continue;
    }
    lead[run_size.size()] = lead[i];
    run_size.push_back(1);
  }
  const size_t runs = run_size.size();
  lead.resize(runs);

  // Rows in first-occurrence order of their leads.
  std::vector<int32_t> run_of_example(num_examples, -1);
  for (size_t j = 0; j < runs; ++j) {
    run_of_example[static_cast<size_t>(lead[j])] = static_cast<int32_t>(j);
  }
  plan.forward_row.resize(runs);
  std::vector<const SparseVector*> features_of_row;
  features_of_row.reserve(runs);
  plan.label.reserve(runs);
  plan.count.reserve(runs);
  for (size_t e = 0; e < num_examples; ++e) {
    const int32_t run = run_of_example[e];
    if (run < 0) continue;
    plan.forward_row[static_cast<size_t>(run)] =
        static_cast<int32_t>(features_of_row.size());
    features_of_row.push_back(&examples[e].features);
    plan.label.push_back(dense_of[static_cast<size_t>(examples[e].label)]);
    // The copies' unit weights summed in any order: exact.
    plan.count.push_back(
        static_cast<double>(run_size[static_cast<size_t>(run)]));
  }

  // Forward: the runs in sorted order, each with the prefix it shares with
  // the run before it over the entries both keep.
  plan.prefix.resize(runs);
  plan.suffix_end.resize(runs);
  std::vector<size_t> kept(runs);
  size_t suffix_entries = 0;
  for (size_t j = 0; j < runs; ++j) {
    const auto& entries = example_at(lead[j]).features.entries();
    kept[j] = KeptEntries(example_at(lead[j]).features, num_features);
    size_t shared = 0;
    if (j > 0) {
      const auto before = example_at(lead[j - 1]).features.entries().begin();
      const auto end = entries.begin() + static_cast<ptrdiff_t>(
                                             std::min(kept[j], kept[j - 1]));
      shared = static_cast<size_t>(
          std::mismatch(entries.begin(), end, before, SameEntry).first -
          entries.begin());
    }
    plan.prefix[j] = static_cast<int32_t>(shared);
    suffix_entries += kept[j] - shared;
    plan.suffix_end[j] = suffix_entries;
    plan.max_depth = std::max(plan.max_depth, kept[j]);
  }
  plan.suffix_column.reserve(suffix_entries);
  plan.suffix_value.reserve(suffix_entries);
  for (size_t j = 0; j < runs; ++j) {
    const auto& entries = example_at(lead[j]).features.entries();
    for (size_t e = static_cast<size_t>(plan.prefix[j]); e < kept[j]; ++e) {
      plan.suffix_column.push_back(entries[e].first);
      plan.suffix_value.push_back(entries[e].second);
    }
  }

  PlanColumns(features_of_row, num_features, &plan);
  return plan;
}

/// The data term of the objective: the count-weighted softmax loss of
/// every row, with its gradient written per distinct column into
/// column_grad (column c holds the K fitted classes' values at
/// column_grad[c * K]) and added into bias_grad. kClasses is the fitted
/// class count K, or 0 when it is known only at run time (num_classes);
/// with K fixed every per-class loop unrolls and the logits stay in
/// registers.
///
/// Every value gets the float operations that a plain walk over the rows
/// in first-occurrence order gives it, in the same order:
/// - A row's logits are the sum, from 0.0, of its entries' weight times
///   value in entry order. The partial sum after a shared prefix is the
///   same adds from 0.0, so it is read back from the row before (the
///   stack `partial`, (max_depth + 1) x K with a zero first block).
/// - Softmax, loss, errors and the bias gradient run in row order.
/// - Each gradient element is the sum, from 0.0, of error times value
///   over its column's rows in row order; features with equal columns
///   get equal sums, so each distinct column is summed once.
/// row_values (rows x K) carries each row's logits, then its errors.
template <size_t kClasses>
double DataLoss(const FitPlan& plan, size_t num_classes,
                const double* __restrict w_by_feature,
                const double* __restrict bias,
                double* __restrict column_grad, double* __restrict bias_grad,
                double* __restrict row_values, double* __restrict partial,
                double* __restrict scratch) {
  const size_t k_count = kClasses > 0 ? kClasses : num_classes;
  std::array<double, kClasses> fixed_sum{};
  std::array<double, kClasses> fixed_err{};
  double* sum = scratch;
  double* err = scratch + k_count;
  if constexpr (kClasses > 0) {
    sum = fixed_sum.data();
    err = fixed_err.data();
  }

  const int32_t* column = plan.suffix_column.data();
  const double* value = plan.suffix_value.data();
  size_t e = 0;
  for (size_t i = 0; i < plan.forward_row.size(); ++i) {
    const size_t depth = static_cast<size_t>(plan.prefix[i]);
    const double* from = partial + depth * k_count;
    for (size_t k = 0; k < k_count; ++k) sum[k] = from[k];
    double* to = partial + (depth + 1) * k_count;
    for (const size_t end = plan.suffix_end[i]; e < end; ++e) {
      const double* wf =
          w_by_feature + static_cast<size_t>(column[e]) * k_count;
      const double v = value[e];
      for (size_t k = 0; k < k_count; ++k) sum[k] += wf[k] * v;
      for (size_t k = 0; k < k_count; ++k) to[k] = sum[k];
      to += k_count;
    }
    double* logits =
        row_values + static_cast<size_t>(plan.forward_row[i]) * k_count;
    for (size_t k = 0; k < k_count; ++k) logits[k] = sum[k];
  }

  double loss = 0;
  for (size_t r = 0; r < plan.label.size(); ++r) {
    double* logits = row_values + r * k_count;
    for (size_t k = 0; k < k_count; ++k) sum[k] = logits[k] + bias[k];
    // Softmax, numerically stabilized (max as std::max_element finds it).
    double max_logit = sum[0];
    for (size_t k = 1; k < k_count; ++k) {
      if (max_logit < sum[k]) max_logit = sum[k];
    }
    double total = 0;
    for (size_t k = 0; k < k_count; ++k) {
      sum[k] = std::exp(sum[k] - max_logit);
      total += sum[k];
    }
    for (size_t k = 0; k < k_count; ++k) sum[k] /= total;
    const auto label = static_cast<size_t>(plan.label[r]);
    const double count = plan.count[r];
    const double p_true = std::max(sum[label], 1e-300);
    loss -= count * std::log(p_true);
    for (size_t k = 0; k < k_count; ++k) {
      err[k] = (sum[k] - (k == label ? 1.0 : 0.0)) * count;
    }
    for (size_t k = 0; k < k_count; ++k) logits[k] = err[k];
    for (size_t k = 0; k < k_count; ++k) bias_grad[k] += err[k];
  }

  const int32_t* row = plan.column_row.data();
  const double* column_value = plan.column_value.data();
  e = 0;
  for (size_t c = 0; c < plan.column_end.size(); ++c) {
    for (size_t k = 0; k < k_count; ++k) sum[k] = 0.0;
    for (const size_t end = plan.column_end[c]; e < end; ++e) {
      const double* row_err =
          row_values + static_cast<size_t>(row[e]) * k_count;
      const double v = column_value[e];
      for (size_t k = 0; k < k_count; ++k) sum[k] += row_err[k] * v;
    }
    for (size_t k = 0; k < k_count; ++k) column_grad[c * k_count + k] = sum[k];
  }
  return loss;
}

/// Fitted class counts with their own DataLoss instantiation (2 to 12
/// covers every fit of the SWDE and IMDb corpora); larger counts run
/// DataLoss<0>.
constexpr size_t kMaxSpecializedClasses = 12;

using DataLossFn = double (*)(const FitPlan&, size_t, const double*,
                              const double*, double*, double*, double*,
                              double*, double*);

DataLossFn DataLossFor(size_t num_classes) {
  static constexpr auto kTable = []<size_t... k>(std::index_sequence<k...>) {
    return std::array<DataLossFn, sizeof...(k)>{
        &DataLoss<(k < 2 ? 0 : k)>...};
  }(std::make_index_sequence<kMaxSpecializedClasses + 1>{});
  return num_classes < kTable.size() ? kTable[num_classes] : &DataLoss<0>;
}

/// Minimizes the objective of the planned rows over `params` (class-major,
/// stride num_features + 1, the intercept last in each class block): the
/// data term plus the L2 penalty lambda / 2 * ||W||^2 over the weights, not
/// the intercepts, for at most kLogRegMaxIterations iterations.
LbfgsResult FitPlanned(const FitPlan& plan, int32_t num_features,
                       size_t k_fitted, std::vector<double>* params) {
  // The penalty weight 1 / C, with the paper's C = 1.
  constexpr double lambda = 1.0;
  const auto features = static_cast<size_t>(num_features);
  const size_t stride = features + 1;
  // Scratch reused by every evaluation. The data term walks each row's
  // entries once for all K fitted classes, so it reads the weights in a
  // feature-major copy (row f holds the K classes' values of feature f);
  // the solver's vectors stay class-major. column_grad has one block per
  // distinct column and a last, zero one for the features in no row.
  const DataLossFn data_loss = DataLossFor(k_fitted);
  std::vector<double> bias(k_fitted);
  std::vector<double> bias_grad(k_fitted);
  std::vector<double> scratch(2 * k_fitted);
  std::vector<double> w_by_feature(features * k_fitted);
  std::vector<double> column_grad((plan.column_end.size() + 1) * k_fitted,
                                  0.0);
  std::vector<double> row_values(plan.label.size() * k_fitted);
  std::vector<double> partial((plan.max_depth + 1) * k_fitted, 0.0);

  LbfgsObjective objective = [&](const std::vector<double>& w,
                                 std::vector<double>* grad) {
    for (size_t k = 0; k < k_fitted; ++k) {
      const double* wk = w.data() + k * stride;
      for (size_t f = 0; f < features; ++f) {
        w_by_feature[f * k_fitted + k] = wk[f];
      }
      bias[k] = wk[features];
    }
    std::fill(bias_grad.begin(), bias_grad.end(), 0.0);
    double loss = data_loss(plan, k_fitted, w_by_feature.data(), bias.data(),
                            column_grad.data(), bias_grad.data(),
                            row_values.data(), partial.data(), scratch.data());
    // Back to class-major, adding the penalty.
    for (size_t k = 0; k < k_fitted; ++k) {
      const double* wk = w.data() + k * stride;
      double* gk = grad->data() + k * stride;
      for (size_t f = 0; f < features; ++f) {
        loss += 0.5 * lambda * wk[f] * wk[f];
        gk[f] = column_grad[static_cast<size_t>(plan.column_of[f]) * k_fitted +
                            k] +
                lambda * wk[f];
      }
      gk[features] = bias_grad[k];
    }
    return loss;
  };
  return MinimizeLbfgs(objective, params, kLogRegMaxIterations);
}

}  // namespace

Result<LbfgsResult> LogisticRegression::Train(
    const std::vector<LabeledExample>& examples, int32_t num_features,
    int32_t num_classes) {
  if (examples.empty()) {
    return Status::InvalidArgument("no training examples");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument(
        StrCat("need at least 2 classes, got ", num_classes));
  }
  for (const LabeledExample& example : examples) {
    if (example.label < 0 || example.label >= num_classes) {
      return Status::InvalidArgument(
          StrCat("label out of range: ", example.label));
    }
    if (!example.features.finalized()) {
      return Status::InvalidArgument("example features not finalized");
    }
    // Finalized entries are sorted by index: the first is the smallest.
    if (example.features.size() > 0 &&
        example.features.entries().front().first < 0) {
      return Status::InvalidArgument(
          StrCat("negative feature index: ",
                 example.features.entries().front().first));
    }
  }

  // Like scikit-learn's classes_ = unique(y), only the classes the labels
  // contain are fitted. An absent class's intercept is unregularized and
  // has no finite optimum (the loss keeps falling as it goes to -inf), so
  // fitting it would only run the solver to its iteration cap. It gets the
  // limit instead: zero weights and a -inf intercept, probability exactly 0.
  // The fitted classes' minimum equals the full objective's infimum.
  //
  // dense_of maps a class id onto its index among the fitted classes, in
  // ascending class id, or -1 for an absent class.
  std::vector<int32_t> dense_of(static_cast<size_t>(num_classes), -1);
  for (const LabeledExample& example : examples) {
    dense_of[static_cast<size_t>(example.label)] = 0;
  }
  int32_t num_fitted = 0;
  for (int32_t& dense : dense_of) {
    if (dense == 0) dense = num_fitted++;
  }

  num_features_ = num_features;
  num_classes_ = num_classes;
  // +1: the intercept.
  const size_t stride = static_cast<size_t>(num_features_) + 1;
  std::vector<double> params(static_cast<size_t>(num_fitted) * stride, 0.0);

  // A single observed class has nothing to solve: its probability is 1 at
  // the all-zero point, which is the objective's minimum (0).
  LbfgsResult solver_result;
  solver_result.converged = true;
  if (num_fitted > 1) {
    solver_result = FitPlanned(PlanFit(examples, dense_of, num_features_),
                               num_features_, static_cast<size_t>(num_fitted),
                               &params);
  }

  weights_.assign(static_cast<size_t>(num_classes_) * stride, 0.0);
  for (int32_t k = 0; k < num_classes_; ++k) {
    double* row = weights_.data() + static_cast<size_t>(k) * stride;
    const int32_t dense = dense_of[static_cast<size_t>(k)];
    if (dense < 0) {
      row[num_features_] = -std::numeric_limits<double>::infinity();
      continue;
    }
    std::copy_n(params.data() + static_cast<size_t>(dense) * stride, stride,
                row);
  }
  trained_ = true;
  return solver_result;
}

std::vector<double> LogisticRegression::PredictProbabilities(
    const SparseVector& features) const {
  std::vector<double> probs(static_cast<size_t>(num_classes_));
  PredictProbabilities(features, probs);
  return probs;
}

void LogisticRegression::PredictProbabilities(const SparseVector& features,
                                              std::span<double> out) const {
  CERES_CHECK(trained_);
  CERES_CHECK(out.size() == static_cast<size_t>(num_classes_));
  const int32_t stride = num_features_ + 1;
  for (int32_t k = 0; k < num_classes_; ++k) {
    const double* wk = weights_.data() + static_cast<size_t>(k) * stride;
    const double bias = wk[num_features_];
    // An unfitted class's logit is -inf whatever its finite dot product,
    // so it skips the dot; exp still gives it exactly 0.
    out[static_cast<size_t>(k)] =
        bias == -std::numeric_limits<double>::infinity()
            ? bias
            : features.Dot(wk, num_features_) + bias;
  }
  SoftmaxInPlace(out);
}

std::pair<int32_t, double> LogisticRegression::Predict(
    const SparseVector& features) const {
  std::vector<double> probs = PredictProbabilities(features);
  auto it = std::max_element(probs.begin(), probs.end());
  return {static_cast<int32_t>(it - probs.begin()), *it};
}

double LogisticRegression::WeightAt(int32_t cls, int32_t feature) const {
  CERES_CHECK(trained_);
  CERES_CHECK(cls >= 0 && cls < num_classes_);
  CERES_CHECK(feature >= 0 && feature < num_features_);
  return weights_[static_cast<size_t>(cls) * (num_features_ + 1) + feature];
}

Result<LogisticRegression> LogisticRegression::FromWeights(
    int32_t num_features, int32_t num_classes, std::vector<double> weights) {
  if (num_features < 0 || num_classes < 2) {
    return Status::InvalidArgument("bad model dimensions");
  }
  const size_t expected = static_cast<size_t>(num_classes) *
                          (static_cast<size_t>(num_features) + 1);
  if (weights.size() != expected) {
    return Status::InvalidArgument(
        StrCat("weight vector has ", weights.size(), " values; expected ",
               expected));
  }
  LogisticRegression model;
  model.num_features_ = num_features;
  model.num_classes_ = num_classes;
  model.weights_ = std::move(weights);
  model.trained_ = true;
  return model;
}

double LogisticRegression::BiasAt(int32_t cls) const {
  CERES_CHECK(trained_);
  CERES_CHECK(cls >= 0 && cls < num_classes_);
  return weights_[static_cast<size_t>(cls) * (num_features_ + 1) +
                  num_features_];
}

}  // namespace ceres
