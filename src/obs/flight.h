// Flight recorder: on invariant violation, commit-stall watchdog expiry,
// or an admin `GET /dump`, snapshot the last-N event window plus a
// metrics dump into a forensics bundle directory:
//
//   <dir>/<reason>-<seq>/
//     manifest.json    {"reason":...,"seq":...,...extra fields}
//     trace.ndjson     event ring snapshot (bftnode leads with a meta line)
//     metrics.ndjson   Registry snapshot
//
// Sources are pull-style closures so the recorder stays decoupled from
// Experiment vs bftnode wiring; any absent source simply skips its file.
// Bundle names use a monotonic sequence number, never wall time, so
// seeded-sim repro bundles are deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

namespace repro::obs {

class FlightRecorder {
 public:
  struct Sources {
    std::function<std::string()> traces;          ///< event NDJSON (or empty)
    std::function<std::string()> metrics;         ///< metrics NDJSON (or empty)
    std::function<std::string()> manifest_extra;  ///< extra manifest JSON
                                                  ///< fields, ",\"k\":v" form
  };

  FlightRecorder(std::string dir, Sources sources);

  /// Write a bundle. `reason` becomes part of the directory name (keep it
  /// to [a-z0-9_-]). Returns the bundle path, or "" on filesystem failure.
  /// Thread-safe; concurrent dumps serialize and get distinct sequence
  /// numbers.
  std::string dump(const std::string& reason);

  std::uint64_t dumps() const;  ///< bundles written so far

 private:
  const std::string dir_;
  Sources sources_;
  mutable std::mutex mu_;
  std::uint64_t seq_ = 0;
};

}  // namespace repro::obs
