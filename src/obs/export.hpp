// Registry exporter: one JSON artifact for dumps and tools.  It renders a
// RegistrySnapshot, so a dump is a coherent point-in-time view regardless
// of concurrent recording.
//
// The JSON layout is deliberately line-oriented — every sample object sits
// alone on its own line — so `fairshare_cli stats` (and shell pipelines)
// can consume it without a full JSON parser, while remaining strictly
// valid JSON for everything else.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace fairshare::obs {

/// Whole registry as JSON (schema 1): counters, gauges, histograms with
/// count/sum/min/max/mean/p50/p95/p99, the most recent `max_spans` spans,
/// and the lifetime span-push count.
std::string to_json(const MetricsRegistry& registry,
                    std::size_t max_spans = 256);
std::string to_json(const RegistrySnapshot& snap);

/// Write to_json(registry) to `path` atomically (temp file + rename), so a
/// reader signalled by SIGUSR1 never observes a half-written dump.
/// Returns false if the file cannot be written.
bool dump_json(const MetricsRegistry& registry, const std::string& path);

}  // namespace fairshare::obs
