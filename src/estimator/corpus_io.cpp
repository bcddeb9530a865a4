#include "estimator/corpus_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/log.hpp"
#include "support/string_utils.hpp"

namespace gnav::estimator {
namespace {

// Explicit schema version tokens. v2 introduced the token itself (plus
// the executor-config columns); v3 adds the `backend` column carrying
// the compute-backend id the run executed on — row provenance only, no
// estimator feature reads it. v1 files carry no token
// and are recognized by their exact legacy header instead (see
// load_corpus's migration path).
constexpr const char* kVersionLineV3 = "# gnav-corpus-version 3";
constexpr const char* kVersionLineV2 = "# gnav-corpus-version 2";

// Config is embedded as its guideline text with ';' separators (already
// its native single-statement form), so the CSV stays one row per run.
// v3: the `backend` cell (compute-backend id string) sits right before
// the quoted config tail.
constexpr const char* kHeaderV3 =
    "dataset,num_nodes,num_edges,avg_degree,max_degree,degree_stddev,"
    "degree_gini,power_law_alpha,top10_coverage,num_train_nodes,"
    "feature_dim,num_classes,real_scale,real_feature_scale,"
    "real_volume_scale,coverage10,coverage25,coverage50,"
    "epoch_time_s,peak_memory_gb,test_accuracy,avg_batch_nodes,"
    "avg_batch_edges,cache_hit_rate,iterations_per_epoch,"
    "sample_s,transfer_s,replace_s,compute_s,"
    "modeled_overlap_s,modeled_sequential_s,sample_wall_s,"
    "transfer_wall_s,compute_wall_s,measured_wall_s,"
    "executor,prefetch_depth,sampler_workers,push_stalls,pop_stalls,"
    "mean_queue_occupancy,backend,config";

constexpr const char* kHeaderV2 =
    "dataset,num_nodes,num_edges,avg_degree,max_degree,degree_stddev,"
    "degree_gini,power_law_alpha,top10_coverage,num_train_nodes,"
    "feature_dim,num_classes,real_scale,real_feature_scale,"
    "real_volume_scale,coverage10,coverage25,coverage50,"
    "epoch_time_s,peak_memory_gb,test_accuracy,avg_batch_nodes,"
    "avg_batch_edges,cache_hit_rate,iterations_per_epoch,"
    "sample_s,transfer_s,replace_s,compute_s,"
    // Executor overlap data: Eq. 4's modeled overlapped/sequential pair
    // plus the measured per-stage and wall seconds — the raw material
    // for fitting an f_overlapping correction from profiled runs.
    "modeled_overlap_s,modeled_sequential_s,sample_wall_s,"
    "transfer_wall_s,compute_wall_s,measured_wall_s,"
    // v2: which executor produced the measured walls (the overlap model
    // trains only on async rows) plus its shape and stall/occupancy
    // counters — regression features for the f_overlapping fit.
    "executor,prefetch_depth,sampler_workers,push_stalls,pop_stalls,"
    "mean_queue_occupancy,config";

// The PR 4-era schema: identical up to measured_wall_s but without the
// executor-config columns. Still loadable — executor fields default to
// a sync row, which the overlap-model fit ignores by design.
constexpr const char* kHeaderV1 =
    "dataset,num_nodes,num_edges,avg_degree,max_degree,degree_stddev,"
    "degree_gini,power_law_alpha,top10_coverage,num_train_nodes,"
    "feature_dim,num_classes,real_scale,real_feature_scale,"
    "real_volume_scale,coverage10,coverage25,coverage50,"
    "epoch_time_s,peak_memory_gb,test_accuracy,avg_batch_nodes,"
    "avg_batch_edges,cache_hit_rate,iterations_per_epoch,"
    "sample_s,transfer_s,replace_s,compute_s,"
    "modeled_overlap_s,modeled_sequential_s,sample_wall_s,"
    "transfer_wall_s,compute_wall_s,measured_wall_s,config";

constexpr std::size_t kScalarCellsV1 = 35;
constexpr std::size_t kScalarCellsV2 = 41;
constexpr std::size_t kScalarCellsV3 = 42;

// Rows written before the backend column (v1/v2) — and defensive blanks
// in v3 files — load as the backend every run actually executed on back
// then.
const char* const kDefaultBackendCell = "cpu-blocked";

std::string config_cell(const runtime::TrainConfig& config) {
  // One line: "key = value; key = value; ..."
  std::string text = config.to_config_map().to_guideline_text();
  for (char& c : text) {
    if (c == '\n') c = ' ';
  }
  return trim(text);
}

/// Measured wall-clock fields pass through this guard so a pathological
/// report (NaN/inf from clock trouble) can never strand the file —
/// loaders and the overlap-model fit both require finite cells.
double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

std::string truncate_for_error(const std::string& s) {
  constexpr std::size_t kMax = 96;
  return s.size() <= kMax ? s : s.substr(0, kMax) + "...";
}

}  // namespace

void save_corpus(const std::vector<ProfiledRun>& corpus,
                 const std::string& path) {
  std::ofstream f(path);
  GNAV_CHECK(f.good(), "cannot open '" + path + "' for writing");
  f << kVersionLineV3 << '\n' << kHeaderV3 << '\n';
  f.precision(17);  // exact double round-trip
  for (const ProfiledRun& run : corpus) {
    const DatasetStats& s = run.stats;
    const runtime::TrainReport& r = run.report;
    f << s.name << ',' << s.profile.num_nodes << ',' << s.profile.num_edges
      << ',' << s.profile.avg_degree << ',' << s.profile.max_degree << ','
      << s.profile.degree_stddev << ',' << s.profile.degree_gini << ','
      << s.profile.power_law_alpha << ',' << s.profile.top10_edge_coverage
      << ',' << s.num_train_nodes << ',' << s.feature_dim << ','
      << s.num_classes << ',' << s.real_scale_factor << ','
      << s.real_feature_scale << ',' << s.real_volume_scale << ','
      << s.coverage_at_10 << ',' << s.coverage_at_25 << ','
      << s.coverage_at_50 << ',' << r.epoch_time_s << ','
      << r.peak_memory_gb << ',' << r.test_accuracy << ','
      << r.avg_batch_nodes << ',' << r.avg_batch_edges << ','
      << r.cache_hit_rate << ',' << r.iterations_per_epoch << ','
      << r.epoch_phases.sample_s << ',' << r.epoch_phases.transfer_s << ','
      << r.epoch_phases.replace_s << ',' << r.epoch_phases.compute_s << ','
      << r.pipeline.modeled_overlapped_s << ','
      << r.pipeline.modeled_sequential_s << ','
      << finite_or_zero(r.pipeline.sample_wall_s) << ','
      << finite_or_zero(r.pipeline.transfer_wall_s) << ','
      << finite_or_zero(r.pipeline.compute_wall_s) << ','
      << finite_or_zero(r.pipeline.measured_wall_s) << ','
      << r.pipeline.executor << ',' << r.pipeline.prefetch_depth << ','
      << r.pipeline.sampler_workers << ',' << r.pipeline.push_stalls << ','
      << r.pipeline.pop_stalls << ','
      << finite_or_zero(r.pipeline.mean_queue_occupancy) << ','
      << (r.backend_id.empty() ? kDefaultBackendCell : r.backend_id.c_str())
      << ',' << '"' << config_cell(run.config) << '"' << '\n';
  }
  GNAV_CHECK(f.good(), "write to '" + path + "' failed");
}

std::vector<ProfiledRun> load_corpus(const std::string& path) {
  std::ifstream f(path);
  GNAV_CHECK(f.good(), "cannot open '" + path + "'");
  std::string line;
  GNAV_CHECK(static_cast<bool>(std::getline(f, line)),
             "corpus file '" + path + "' is empty");

  // Version detection. v3/v2 files lead with an explicit token; v1 (PR 4
  // era, before the executor-config columns) files lead directly with
  // their header and migrate in place: the missing executor cells
  // default to a sync row, which downstream fits ignore by design, and
  // pre-v3 rows (no backend column) load as "cpu-blocked" — the backend
  // every run actually executed on before backends existed.
  int version = 0;
  if (trim(line) == kVersionLineV3 || trim(line) == kVersionLineV2) {
    version = trim(line) == kVersionLineV3 ? 3 : 2;
    const char* expected_header = version == 3 ? kHeaderV3 : kHeaderV2;
    GNAV_CHECK(static_cast<bool>(std::getline(f, line)),
               "corpus file '" + path + "' ends after the version line");
    GNAV_CHECK(trim(line) == expected_header,
               "corpus header mismatch in '" + path + "'\n  expected: " +
                   truncate_for_error(expected_header) + "\n  found:    " +
                   truncate_for_error(trim(line)));
    if (version == 2) {
      log_info("corpus '", path,
               "' uses the v2 schema (no backend column); loading with "
               "backend defaulted to cpu-blocked rows");
    }
  } else if (trim(line) == kHeaderV1) {
    version = 1;
    log_info("corpus '", path,
             "' uses the v1 schema (no executor columns); loading with "
             "executor fields defaulted to sync rows");
  } else {
    throw Error(
        "corpus header mismatch in '" + path + "'\n  expected: '" +
        std::string(kVersionLineV3) + "' followed by the v3 header, an "
        "earlier version token with its matching header, or the legacy "
        "v1 header\n  found:    '" +
        truncate_for_error(trim(line)) +
        "'\n  (file written by an incompatible gnavigator version?)");
  }
  const std::size_t scalar_cells = version == 3   ? kScalarCellsV3
                                   : version == 2 ? kScalarCellsV2
                                                  : kScalarCellsV1;

  std::vector<ProfiledRun> corpus;
  while (std::getline(f, line)) {
    if (trim(line).empty()) continue;
    // The config cell is quoted and contains commas: split off the quoted
    // tail first, then comma-split the scalar prefix.
    const auto quote = line.find('"');
    GNAV_CHECK(quote != std::string::npos && line.back() == '"',
               "malformed corpus row in '" + path +
                   "' (missing quoted config)");
    const std::string scalars = line.substr(0, quote);
    const std::string config_text =
        line.substr(quote + 1, line.size() - quote - 2);
    auto cells = split(scalars, ',');
    GNAV_CHECK(cells.size() == scalar_cells + 1 && cells.back().empty(),
               "malformed corpus row in '" + path + "' (expected " +
                   std::to_string(scalar_cells) + " scalar cells, found " +
                   std::to_string(cells.empty() ? 0 : cells.size() - 1) +
                   ")");
    cells.pop_back();

    ProfiledRun run;
    std::size_t i = 0;
    DatasetStats& s = run.stats;
    s.name = cells[i++];
    s.profile.num_nodes = parse_int(cells[i++]);
    s.profile.num_edges = parse_int(cells[i++]);
    s.profile.avg_degree = parse_double(cells[i++]);
    s.profile.max_degree =
        static_cast<std::size_t>(parse_int(cells[i++]));
    s.profile.degree_stddev = parse_double(cells[i++]);
    s.profile.degree_gini = parse_double(cells[i++]);
    s.profile.power_law_alpha = parse_double(cells[i++]);
    s.profile.top10_edge_coverage = parse_double(cells[i++]);
    s.num_train_nodes = static_cast<std::size_t>(parse_int(cells[i++]));
    s.feature_dim = static_cast<int>(parse_int(cells[i++]));
    s.num_classes = static_cast<int>(parse_int(cells[i++]));
    s.real_scale_factor = parse_double(cells[i++]);
    s.real_feature_scale = parse_double(cells[i++]);
    s.real_volume_scale = parse_double(cells[i++]);
    s.coverage_at_10 = parse_double(cells[i++]);
    s.coverage_at_25 = parse_double(cells[i++]);
    s.coverage_at_50 = parse_double(cells[i++]);
    runtime::TrainReport& r = run.report;
    r.epoch_time_s = parse_double(cells[i++]);
    r.peak_memory_gb = parse_double(cells[i++]);
    r.test_accuracy = parse_double(cells[i++]);
    r.avg_batch_nodes = parse_double(cells[i++]);
    r.avg_batch_edges = parse_double(cells[i++]);
    r.cache_hit_rate = parse_double(cells[i++]);
    r.iterations_per_epoch =
        static_cast<std::size_t>(parse_int(cells[i++]));
    r.epoch_phases.sample_s = parse_double(cells[i++]);
    r.epoch_phases.transfer_s = parse_double(cells[i++]);
    r.epoch_phases.replace_s = parse_double(cells[i++]);
    r.epoch_phases.compute_s = parse_double(cells[i++]);
    r.pipeline.modeled_overlapped_s = parse_double(cells[i++]);
    r.pipeline.modeled_sequential_s = parse_double(cells[i++]);
    r.pipeline.sample_wall_s = parse_double(cells[i++]);
    r.pipeline.transfer_wall_s = parse_double(cells[i++]);
    r.pipeline.compute_wall_s = parse_double(cells[i++]);
    r.pipeline.measured_wall_s = parse_double(cells[i++]);
    if (version >= 2) {
      r.pipeline.executor = cells[i++];
      GNAV_CHECK(r.pipeline.executor == "sync" ||
                     r.pipeline.executor == "async",
                 "corpus row in '" + path + "' has unknown executor '" +
                     r.pipeline.executor + "' (sync | async)");
      r.pipeline.prefetch_depth =
          static_cast<std::size_t>(parse_int(cells[i++]));
      r.pipeline.sampler_workers =
          static_cast<std::size_t>(parse_int(cells[i++]));
      r.pipeline.push_stalls =
          static_cast<std::uint64_t>(parse_int(cells[i++]));
      r.pipeline.pop_stalls =
          static_cast<std::uint64_t>(parse_int(cells[i++]));
      r.pipeline.mean_queue_occupancy = parse_double(cells[i++]);
    }
    if (version >= 3) {
      r.backend_id = trim(cells[i++]);
    }
    if (r.backend_id.empty()) r.backend_id = kDefaultBackendCell;
    // The cell stores statements separated by ';' on one line; ConfigMap
    // parses one statement per line.
    std::string statements = config_text;
    for (char& c : statements) {
      if (c == ';') c = '\n';
    }
    run.config =
        runtime::TrainConfig::from_config_map(ConfigMap::parse(statements));
    corpus.push_back(std::move(run));
  }
  return corpus;
}

}  // namespace gnav::estimator
