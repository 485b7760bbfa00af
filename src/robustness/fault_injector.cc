#include "robustness/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/string_util.h"

namespace ceres {

const char* FaultTypeName(FaultType fault) {
  switch (fault) {
    case FaultType::kNone:
      return "none";
    case FaultType::kTruncate:
      return "truncate";
    case FaultType::kGarble:
      return "garble";
    case FaultType::kTagDelete:
      return "tag-delete";
    case FaultType::kEntityBreak:
      return "entity-break";
    case FaultType::kNodeBomb:
      return "node-bomb";
    case FaultType::kDrop:
      return "drop";
    case FaultType::kDuplicate:
      return "duplicate";
  }
  return "unknown";
}

int64_t FaultReport::count(FaultType fault) const {
  int64_t n = 0;
  for (const InjectedFault& f : faults) {
    if (f.fault == fault) ++n;
  }
  return n;
}

std::vector<PageIndex> FaultReport::PagesWith(FaultType fault) const {
  std::vector<PageIndex> pages;
  for (const InjectedFault& f : faults) {
    if (f.fault == fault) pages.push_back(f.source_page);
  }
  std::sort(pages.begin(), pages.end());
  return pages;
}

const char* ProcessFaultTypeName(ProcessFaultType fault) {
  switch (fault) {
    case ProcessFaultType::kNone:
      return "none";
    case ProcessFaultType::kWorkerCrash:
      return "worker-crash";
    case ProcessFaultType::kWorkerHang:
      return "worker-hang";
    case ProcessFaultType::kTruncatedResult:
      return "truncated-result";
    case ProcessFaultType::kCorruptCheckpoint:
      return "corrupt-checkpoint";
  }
  return "unknown";
}

ProcessFaultType ProcessFaultPlan::FaultFor(int shard, int attempt) const {
  for (const ProcessFault& fault : faults) {
    if (fault.shard != shard || fault.fault == ProcessFaultType::kNone) {
      continue;
    }
    if (attempt <= fault.attempts) return fault.fault;
  }
  return ProcessFaultType::kNone;
}

std::vector<int> ProcessFaultPlan::ShardsWith(ProcessFaultType fault) const {
  std::vector<int> shards;
  for (const ProcessFault& planned : faults) {
    if (planned.fault == fault) shards.push_back(planned.shard);
  }
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

ProcessFaultPlan MakeProcessFaultPlan(int num_shards, double fault_fraction,
                                      uint64_t seed, ProcessFaultType fault,
                                      int attempts) {
  ProcessFaultPlan plan;
  if (num_shards <= 0 || fault_fraction <= 0.0 ||
      fault == ProcessFaultType::kNone) {
    return plan;
  }
  const double clamped = std::clamp(fault_fraction, 0.0, 1.0);
  const int hit = std::min(
      num_shards,
      static_cast<int>(
          std::ceil(clamped * static_cast<double>(num_shards))));
  std::vector<int> shards(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) shards[static_cast<size_t>(i)] = i;
  Rng rng(seed);
  rng.Shuffle(&shards);
  plan.faults.reserve(static_cast<size_t>(hit));
  for (int i = 0; i < hit; ++i) {
    plan.faults.push_back(
        ProcessFault{shards[static_cast<size_t>(i)], fault, attempts});
  }
  std::sort(plan.faults.begin(), plan.faults.end(),
            [](const ProcessFault& a, const ProcessFault& b) {
              return a.shard < b.shard;
            });
  return plan;
}

namespace {

std::string Truncate(std::string_view html, const FaultInjectionConfig& config,
                     Rng* rng) {
  if (html.empty()) return std::string();
  const double lo = std::clamp(config.truncate_keep_min, 0.0, 1.0);
  const double hi = std::clamp(config.truncate_keep_max, lo, 1.0);
  const double keep = lo + (hi - lo) * rng->UniformDouble();
  const size_t bytes =
      static_cast<size_t>(keep * static_cast<double>(html.size()));
  return std::string(html.substr(0, bytes));
}

std::string Garble(std::string_view html, const FaultInjectionConfig& config,
                   Rng* rng) {
  std::string out(html);
  if (out.empty()) return out;
  const size_t hits = std::max<size_t>(
      1, static_cast<size_t>(config.garble_byte_fraction *
                             static_cast<double>(out.size())));
  for (size_t i = 0; i < hits; ++i) {
    out[rng->Index(out.size())] = static_cast<char>(rng->Uniform(0, 255));
  }
  return out;
}

std::string TagDelete(std::string_view html,
                      const FaultInjectionConfig& config, Rng* rng) {
  std::string out;
  out.reserve(html.size());
  size_t i = 0;
  while (i < html.size()) {
    if (html[i] == '<') {
      size_t close = html.find('>', i);
      if (close == std::string_view::npos) close = html.size() - 1;
      if (!rng->Bernoulli(config.tag_delete_fraction)) {
        out.append(html.substr(i, close - i + 1));
      }
      i = close + 1;
    } else {
      out.push_back(html[i]);
      ++i;
    }
  }
  return out;
}

std::string EntityBreak(std::string_view html,
                        const FaultInjectionConfig& /*config*/, Rng* rng) {
  std::string out;
  out.reserve(html.size() + 16);
  size_t i = 0;
  while (i < html.size()) {
    if (html[i] != '&') {
      out.push_back(html[i]);
      ++i;
      continue;
    }
    switch (rng->Uniform(0, 2)) {
      case 0: {
        // Drop the terminator: "&amp;" -> "&amp".
        size_t end = html.find(';', i);
        size_t copy_to = (end == std::string_view::npos || end > i + 12)
                             ? i + 1
                             : end;  // excludes the ';'
        out.append(html.substr(i, copy_to - i));
        i = (copy_to == i + 1) ? i + 1 : copy_to + 1;
        break;
      }
      case 1: {
        // Replace the whole entity with an invalid numeric one.
        out.append("&#xZZ;");
        const size_t limit = std::min(html.size(), i + 12);
        ++i;  // the '&'
        while (i < limit && html[i] != ';' && html[i] != ' ' &&
               html[i] != '<') {
          ++i;
        }
        if (i < html.size() && html[i] == ';') ++i;
        break;
      }
      default:
        // Stutter the ampersand: "&amp;" -> "&&amp;".
        out.push_back('&');
        out.push_back('&');
        ++i;
        break;
    }
  }
  return out;
}

std::string NodeBomb(std::string_view html, const FaultInjectionConfig& config,
                     Rng* rng) {
  std::string out(html);
  const int nodes = std::max(1, config.node_bomb_nodes);
  out.reserve(out.size() + static_cast<size_t>(nodes) * 4);
  // <p> auto-closes its own kind, so this is a flat run of sibling
  // elements: element count grows without pathological nesting depth.
  for (int i = 0; i < nodes; ++i) {
    out.append(rng->Bernoulli(0.5) ? "<p>x" : "<p>y");
  }
  return out;
}

}  // namespace

std::string CorruptHtml(std::string_view html, FaultType fault,
                        const FaultInjectionConfig& config, Rng* rng) {
  switch (fault) {
    case FaultType::kTruncate:
      return Truncate(html, config, rng);
    case FaultType::kGarble:
      return Garble(html, config, rng);
    case FaultType::kTagDelete:
      return TagDelete(html, config, rng);
    case FaultType::kEntityBreak:
      return EntityBreak(html, config, rng);
    case FaultType::kNodeBomb:
      return NodeBomb(html, config, rng);
    case FaultType::kNone:
    case FaultType::kDrop:
    case FaultType::kDuplicate:
      break;
  }
  return std::string(html);
}

std::vector<RawPage> InjectFaults(const std::vector<RawPage>& pages,
                                  const FaultInjectionConfig& config,
                                  FaultReport* report) {
  const FaultType kinds[] = {FaultType::kTruncate, FaultType::kGarble,
                             FaultType::kTagDelete, FaultType::kEntityBreak,
                             FaultType::kNodeBomb};
  const double weights[] = {config.truncate_weight, config.garble_weight,
                            config.tag_delete_weight,
                            config.entity_break_weight,
                            config.node_bomb_weight};
  double total_weight = 0;
  for (double w : weights) total_weight += std::max(0.0, w);

  auto record = [&](PageIndex page, FaultType fault) {
    if (report != nullptr) {
      report->faults.push_back(InjectedFault{page, fault});
    }
  };

  std::vector<RawPage> out;
  out.reserve(pages.size());
  Rng root(config.seed);
  for (size_t i = 0; i < pages.size(); ++i) {
    // One fork per page: a page's corruption depends only on (seed, index),
    // never on what happened to earlier pages.
    Rng rng = root.Fork();
    const PageIndex page = static_cast<PageIndex>(i);
    if (rng.Bernoulli(config.drop_rate)) {
      record(page, FaultType::kDrop);
      continue;
    }
    RawPage kept = pages[i];
    if (total_weight > 0 && rng.Bernoulli(config.page_fault_rate)) {
      double roll = rng.UniformDouble() * total_weight;
      FaultType fault = kinds[0];
      for (size_t k = 0; k < 5; ++k) {
        roll -= std::max(0.0, weights[k]);
        if (roll <= 0) {
          fault = kinds[k];
          break;
        }
      }
      kept.html = CorruptHtml(kept.html, fault, config, &rng);
      record(page, fault);
    }
    if (rng.Bernoulli(config.duplicate_rate)) {
      record(page, FaultType::kDuplicate);
      out.push_back(kept);
    }
    out.push_back(std::move(kept));
  }
  return out;
}

}  // namespace ceres
