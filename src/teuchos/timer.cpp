#include "teuchos/timer.hpp"

#include <iomanip>
#include <sstream>

#include "util/error.hpp"

namespace pyhpc::teuchos {

void Timer::start() {
  require(!running_, "Timer '", name_, "' already running");
  running_ = true;
  started_ = Clock::now();
}

void Timer::stop() {
  require(running_, "Timer '", name_, "' not running");
  running_ = false;
  total_ += std::chrono::duration<double>(Clock::now() - started_).count();
  ++count_;
}

std::mutex TimeMonitor::mu_;
std::map<std::string, Timer> TimeMonitor::timers_;

Timer& TimeMonitor::get(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(name, Timer(name)).first;
  }
  return it->second;
}

std::vector<std::tuple<std::string, double, std::uint64_t>>
TimeMonitor::summary() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::tuple<std::string, double, std::uint64_t>> out;
  out.reserve(timers_.size());
  for (const auto& [name, timer] : timers_) {
    out.emplace_back(name, timer.total_seconds(), timer.count());
  }
  return out;
}

std::string TimeMonitor::report() {
  std::ostringstream os;
  os << std::left << std::setw(40) << "Timer" << std::right << std::setw(14)
     << "Total (s)" << std::setw(10) << "Count" << "\n";
  for (const auto& [name, secs, count] : summary()) {
    os << std::left << std::setw(40) << name << std::right << std::setw(14)
       << std::fixed << std::setprecision(6) << secs << std::setw(10) << count
       << "\n";
  }
  return os.str();
}

void TimeMonitor::reset_all() {
  std::lock_guard<std::mutex> lock(mu_);
  timers_.clear();
}

}  // namespace pyhpc::teuchos
