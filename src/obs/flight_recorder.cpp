#include "obs/flight_recorder.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace paraleon::obs {

const char* AnomalyTriggers::update(const Sample& s) {
  common::MutexLock lock(mu_);
  if (!cfg_.armed) return nullptr;
  const char* fired = nullptr;
  if (has_prev_) {
    const Time dt = s.t - prev_.t;
    if (cfg_.pause_ns_per_sec > 0 && dt > 0) {
      // pause-time growth rate, in ns of pause per second of simulated time
      const std::int64_t dpause = s.total_paused_ns - prev_.total_paused_ns;
      if (dpause * 1'000'000'000 > cfg_.pause_ns_per_sec * dt) {
        fired = "pfc_pause_rate";
      }
    }
    if (fired == nullptr && cfg_.drop_burst > 0 &&
        s.drops - prev_.drops > cfg_.drop_burst) {
      fired = "mmu_drop_burst";
    }
    if (fired == nullptr && cfg_.on_sa_revert && s.reverts > prev_.reverts) {
      fired = "sa_revert";
    }
  }
  if (fired == nullptr && cfg_.utility_floor && s.utility_valid &&
      s.utility < *cfg_.utility_floor) {
    fired = "utility_collapse";
  }
  prev_ = s;
  has_prev_ = true;
  return fired;
}

bool BundleWriter::create_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return !ec && std::filesystem::is_directory(dir, ec);
}

bool BundleWriter::write_file(const std::string& dir, const std::string& name,
                              const std::string& content) {
  std::ofstream out(std::filesystem::path(dir) / name,
                    std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

std::string BundleWriter::read_file(const std::string& dir,
                                    const std::string& name, bool* ok) {
  std::ifstream in(std::filesystem::path(dir) / name, std::ios::binary);
  if (ok != nullptr) *ok = static_cast<bool>(in);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  if (ok != nullptr) *ok = static_cast<bool>(in) || in.eof();
  return buf.str();
}

}  // namespace paraleon::obs
