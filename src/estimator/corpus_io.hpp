// Profiled-corpus persistence. Collecting an estimator training corpus
// means running real training jobs, so users cache it on disk: the
// corpus CSV round-trips every field the estimator consumes (config,
// dataset statistics, measured report scalars).
#pragma once

#include <string>
#include <vector>

#include "estimator/profile_collector.hpp"

namespace gnav::estimator {

/// Writes the corpus as CSV; throws on I/O failure.
void save_corpus(const std::vector<ProfiledRun>& corpus,
                 const std::string& path);

/// Reads a corpus written by save_corpus; validates the header and every
/// config. The schema is versioned: current (v3) files carry a version
/// token, the executor-config/stall columns, and the compute-backend id
/// column (row provenance; no estimator feature reads it). Older files
/// still load and migrate in place — v2 (no backend column) rows get
/// backend "cpu-blocked", the backend every pre-backend run actually
/// executed on; v1 rows (no executor columns either) additionally
/// default the executor fields to sync rows, which the overlap-model fit
/// skips by design. Throws gnav::Error on malformed input, naming the
/// file and the expected-vs-found header on a mismatch.
std::vector<ProfiledRun> load_corpus(const std::string& path);

}  // namespace gnav::estimator
