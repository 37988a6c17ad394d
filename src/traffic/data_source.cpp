#include "traffic/data_source.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace charisma::traffic {

DataSource::DataSource(const DataSourceConfig& config, common::TrafficRng rng)
    : config_(config), rng_(std::move(rng)) {
  if (config.mean_interarrival_s <= 0.0 || config.mean_burst_packets < 1.0) {
    throw std::invalid_argument("DataSource: invalid traffic parameters");
  }
  if (config.mmpp_rate_ratio < 1.0 || config.mmpp_mean_sojourn_s < 0.0) {
    throw std::invalid_argument("DataSource: invalid MMPP parameters");
  }
  if (config_.mmpp_enabled()) {
    mmpp_toggle_at_ = rng_.exponential(config_.mmpp_mean_sojourn_s);
  }
  next_burst_at_ = next_gap(0.0);
}

void DataSource::set_rate_scale(double scale) {
  if (!(scale > 0.0)) {
    throw std::invalid_argument("DataSource: rate scale must be positive");
  }
  rate_scale_ = scale;
}

double DataSource::next_gap(common::Time ref) {
  const double base = config_.mean_interarrival_s / rate_scale_;
  if (!config_.mmpp_enabled()) return rng_.exponential(base);
  while (mmpp_toggle_at_ <= ref) {
    mmpp_high_ = !mmpp_high_;
    mmpp_toggle_at_ += rng_.exponential(config_.mmpp_mean_sojourn_s);
  }
  return rng_.exponential(mmpp_high_ ? base / config_.mmpp_rate_ratio : base);
}

DataSource::FrameUpdate DataSource::admit_bursts(common::Time now) {
  FrameUpdate update;
  while (next_burst_at_ <= now + kTimeEps) {
    const auto burst = std::max<int>(
        1, static_cast<int>(std::ceil(rng_.exponential(config_.mean_burst_packets))));
    for (int i = 0; i < burst; ++i) queue_.push_back(now);
    packets_generated_ += burst;
    ++update.bursts_arrived;
    update.packets_arrived += burst;
    next_burst_at_ += next_gap(next_burst_at_);
  }
  return update;
}

void DataSource::pop_head() {
  if (queue_.empty()) {
    throw std::logic_error("DataSource::pop_head: empty queue");
  }
  queue_.pop_front();
}

void DataSource::push_front(std::span<const common::Time> arrivals) {
  // Re-insert in original order: the last element pushed lands at the very
  // front, so iterate in reverse.
  for (auto it = arrivals.rbegin(); it != arrivals.rend(); ++it) {
    queue_.push_front(*it);
  }
}

}  // namespace charisma::traffic
