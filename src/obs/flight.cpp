#include "obs/flight.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace repro::obs {
namespace {

bool write_file(const std::filesystem::path& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  return static_cast<bool>(out);
}

}  // namespace

FlightRecorder::FlightRecorder(std::string dir, Sources sources)
    : dir_(std::move(dir)), sources_(std::move(sources)) {}

std::string FlightRecorder::dump(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t seq = seq_++;

  char name[128];
  std::snprintf(name, sizeof name, "%s-%" PRIu64, reason.c_str(), seq);
  const std::filesystem::path bundle = std::filesystem::path(dir_) / name;
  std::error_code ec;
  std::filesystem::create_directories(bundle, ec);
  if (ec) return "";

  std::string manifest = "{\"reason\":\"" + reason + "\",\"seq\":";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, seq);
  manifest += buf;
  if (sources_.manifest_extra) manifest += sources_.manifest_extra();
  manifest += "}\n";
  if (!write_file(bundle / "manifest.json", manifest)) return "";

  if (sources_.traces) {
    if (!write_file(bundle / "trace.ndjson", sources_.traces())) return "";
  }
  if (sources_.metrics) {
    if (!write_file(bundle / "metrics.ndjson", sources_.metrics())) return "";
  }
  return bundle.string();
}

std::uint64_t FlightRecorder::dumps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

}  // namespace repro::obs
