#include "obs/report.h"

#include <algorithm>

#include "common/units.h"

namespace e10::obs {

Json phase_table_json(const prof::Profiler& profiler) {
  Json table = Json::object();
  for (std::size_t p = 0; p < prof::kPhaseCount; ++p) {
    const auto phase = static_cast<prof::Phase>(p);
    Json row = Json::object();
    row.set("min_s", Json::number(
                         units::to_seconds(profiler.min_over_ranks(phase))));
    for (const auto& [key, q] :
         {std::pair{"p50_s", 0.50}, {"p95_s", 0.95}, {"p99_s", 0.99}}) {
      row.set(key, Json::number(units::to_seconds(
                       profiler.percentile_over_ranks(phase, q))));
    }
    row.set("avg_s", Json::number(
                         units::to_seconds(profiler.avg_over_ranks(phase))));
    row.set("max_s", Json::number(
                         units::to_seconds(profiler.max_over_ranks(phase))));
    table.set(prof::phase_name(phase), std::move(row));
  }
  return table;
}

Json run_report_json(const RunReportInputs& inputs) {
  Json report = Json::object();

  Json config = Json::object();
  for (const auto& [key, value] : inputs.config) {
    config.set(key, Json::str(value));
  }
  report.set("config", std::move(config));

  if (inputs.profiler != nullptr) {
    report.set("phases", phase_table_json(*inputs.profiler));
  }
  if (inputs.metrics != nullptr) {
    report.set("metrics", inputs.metrics->as_json());
  }

  Json derived = Json::object();
  for (const auto& [key, value] : inputs.derived) {
    derived.set(key, Json::number(value));
  }
  report.set("derived", std::move(derived));

  if (!inputs.analysis.is_null()) {
    report.set("analysis", inputs.analysis);
  }
  return report;
}

double flush_overlap_ratio(const MetricsRegistry& metrics,
                           const prof::Profiler& profiler) {
  const std::int64_t busy = metrics.counter_value(names::kSyncBusyNs);
  if (busy <= 0) return 0.0;
  // What each rank actually waited on its own sync grequests. The
  // not_hidden_sync phase would over-count: it times the collective close,
  // whose barrier charges the slowest rank's wait to everyone.
  Time visible = 0;
  for (int rank = 0; rank < profiler.ranks(); ++rank) {
    visible += profiler.rank_total(rank, prof::Phase::flush_wait);
  }
  const double hidden =
      static_cast<double>(busy) - static_cast<double>(visible);
  return std::clamp(hidden / static_cast<double>(busy), 0.0, 1.0);
}

Status write_json_file(const std::string& path, const Json& value) {
  return write_text_file(path, value.dump(2) + "\n");
}

}  // namespace e10::obs
