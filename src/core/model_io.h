#ifndef CERES_CORE_MODEL_IO_H_
#define CERES_CORE_MODEL_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/training.h"
#include "kb/ontology.h"
#include "util/status.h"

namespace ceres {

/// Text persistence of a trained per-site extractor model, so that a model
/// learned once (annotation + training are the expensive phases) can be
/// re-applied to newly crawled pages of the same site without a seed KB.
///
/// Format (TSV sections, like kb_io), version 2:
///
///   #format
///   2
///   #model
///   <num classes> \t <num features>
///   #featureconfig
///   <sibling window> \t <structural 0|1> \t <text 0|1> \t <text levels>
///   #lexicon
///   <frequent site string>                               (one per line)
///   #classes
///   <class index> \t <OTHER|NAME|predicate name>
///   #featureids
///   <feature index> \t <16-hex-digit 64-bit feature id>
///   #weights
///   <class index> \t <feature index | "bias"> \t <value>   (non-zeros only)
///   #end
///
/// Weights are finite, except that a bias may be `-inf`: the intercept of a
/// class the training labels never contained. A NaN or `+inf` value, a
/// `-inf` feature weight, and a model whose every bias is `-inf` are
/// rejected with kInvalidArgument.
///
/// The window and levels must be kSiblingWindow and kTextFeatureLevels
/// (core/features.h), the only ones the featurizer has; any other value is
/// rejected with kInvalidArgument.
///
/// The `#format` section is mandatory and must hold 2. Any other version,
/// and a file without `#format` (the retired version-1 layout, which
/// stored string feature names), is rejected with kInvalidArgument.
///
/// The trailing `#end` marker is mandatory on load: a file cut off
/// mid-transfer loses it (and usually a whole section), so truncation is
/// reported as a typed error instead of silently yielding a model with
/// all-zero weights. Loading requires the same Ontology the model was
/// trained with (class indices are validated against its predicate list).

/// Writes `model` to `out`.
Status SaveModel(const TrainedModel& model, const Ontology& ontology,
                 std::ostream* out);

/// Convenience: SaveModel to a file path.
Status SaveModelToFile(const TrainedModel& model, const Ontology& ontology,
                       const std::string& path);

/// Parses a serialized model, validating it against `ontology`. Fails with
/// kInvalidArgument when any section is missing or cut short (truncated
/// download, partial write) — never returns a silently empty model.
Result<TrainedModel> LoadModel(std::istream* in, const Ontology& ontology);

/// Convenience: LoadModel from a file path.
Result<TrainedModel> LoadModelFromFile(const std::string& path,
                                       const Ontology& ontology);

/// --- Versioned model store -------------------------------------------------
///
/// On-disk layout used by the serving layer (serve/model_registry.h):
///
///   <root>/<site>/<version>.model    one immutable snapshot per retrain
///   <root>/<site>/CURRENT            latest version number, one line
///
/// Writers publish a new version by writing `<version>.model.tmp`, renaming
/// it into place, then rewriting CURRENT the same way — both renames are
/// atomic on POSIX, so a reader never observes a half-written model and a
/// crashed publish leaves the previous version current.

/// Path of one version file ("<root>/<site>/<version>.model").
std::string ModelVersionPath(const std::string& root, const std::string& site,
                             int64_t version);

/// Saves `model` as the next version of `site` under `root` (creating
/// directories as needed) and atomically advances CURRENT. Returns the
/// version number assigned.
Result<int64_t> SaveModelVersion(const std::string& root,
                                 const std::string& site,
                                 const TrainedModel& model,
                                 const Ontology& ontology);

/// The version CURRENT points at; falls back to the highest on-disk
/// version when CURRENT is missing. kNotFound when the site has no models.
Result<int64_t> LatestModelVersion(const std::string& root,
                                   const std::string& site);

/// All on-disk versions of `site`, ascending. kNotFound for an unknown site.
Result<std::vector<int64_t>> ListModelVersions(const std::string& root,
                                               const std::string& site);

/// Loads one specific version.
Result<TrainedModel> LoadModelVersion(const std::string& root,
                                      const std::string& site, int64_t version,
                                      const Ontology& ontology);

/// Loads the CURRENT version; writes the version loaded to `*version` when
/// non-null.
Result<TrainedModel> LoadLatestModel(const std::string& root,
                                     const std::string& site,
                                     const Ontology& ontology,
                                     int64_t* version = nullptr);

}  // namespace ceres

#endif  // CERES_CORE_MODEL_IO_H_
