// Small helpers shared by the benchmark harness: host-time clocks, order
// statistics, a digest over simulated statistics, an in-memory span log,
// and a JSON object writer. Process memory comes from the figure benches'
// bench_support.hpp (peak_rss_bytes, current_rss_bytes).
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_support.hpp"
#include "common/stats.hpp"
#include "experiment/runner.hpp"
#include "mac/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; the
/// same definition as numpy's default and Python's statistics "inclusive".
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// FNV-1a over the exact bits of simulated statistics. Two runs that
/// produce ProtocolMetrics::operator==-equal metrics produce equal digests;
/// any changed count or changed double bit changes the digest.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(bool v) { add(static_cast<std::uint64_t>(v ? 1 : 0)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) add(static_cast<std::uint64_t>(c));
  }
  void add(const charisma::common::Accumulator& a) {
    add(a.count());
    add(a.mean());
    add(a.variance());
    add(a.min());
    add(a.max());
  }
  void add(const charisma::common::RatioCounter& r) {
    add(r.successes());
    add(r.trials());
  }
  void add(const charisma::common::Histogram& h) {
    add(h.lo());
    add(h.hi());
    add(static_cast<std::uint64_t>(h.bins()));
    for (std::size_t i = 0; i < h.bins(); ++i) add(h.bin_count(i));
    add(h.count());
    add(h.underflow());
    add(h.overflow());
  }

  /// Every ProtocolMetrics field, in declaration (operator==) order.
  void add(const charisma::mac::ProtocolMetrics& m) {
    add(m.frames);
    add(m.measured_time);
    add(m.voice_generated);
    add(m.voice_delivered);
    add(m.voice_dropped_deadline);
    add(m.voice_error_lost);
    add(m.data_generated);
    add(m.data_delivered);
    add(m.data_tx_attempts);
    add(m.data_retransmissions);
    add(m.data_delay_s);
    add(m.data_delay_hist);
    add(m.handoffs_in);
    add(m.handoffs_out);
    add(m.voice_dropped_handoff);
    add(m.attached_user_frames);
    add(m.outage_evictions);
    add(m.voice_dropped_outage);
    add(m.barring_checks);
    add(m.barring_barred_voice);
    add(m.barring_barred_data);
    add(m.barring_factor_voice);
    add(m.barring_factor_data);
    add(m.interference_db);
    add(m.request_slots);
    add(m.request_successes);
    add(m.request_collisions);
    add(m.request_idle);
    add(m.info_slots_offered);
    add(m.info_slots_assigned);
    add(m.info_slots_wasted);
    add(m.csi_polls);
    add(m.csi_stale_allocations);
    add(m.acks_lost);
    add(m.users_advanced_frames);
    add(m.users_skipped_frames);
    add(m.energy_request_j);
    add(m.energy_info_j);
    add(m.energy_pilot_j);
    add(m.energy_wasted_j);
    add(static_cast<std::uint64_t>(m.per_user_delivered.size()));
    for (auto v : m.per_user_delivered) add(v);
  }

  /// Every ReplicatedResult field (the sweep's per-cell output), in
  /// declaration order.
  void add(const charisma::experiment::ReplicatedResult& r) {
    add(r.protocol);
    add(r.num_voice_users);
    add(r.num_data_users);
    add(r.request_queue);
    add(r.replications);
    add(r.voice_loss);
    add(r.voice_drop);
    add(r.voice_error);
    add(r.data_throughput);
    add(r.data_delay_s);
    add(r.slot_utilization);
    add(r.slot_waste);
    add(r.request_success);
    add(r.materialization_stride);
    add(r.voice_loss_pooled);
    add(r.data_delay_pooled);
  }

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// In-memory span log: one record per timed call at a layer boundary,
/// written out as Chrome trace-event JSON when the run ends. Only the
/// coordinating thread appends; jobs on worker threads keep their own
/// timestamps, added after the runner returns.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;  ///< host time since the log's origin
    double dur_us = 0.0;
    int tid = 0;            ///< worker lane the span ran on
    int parent = -1;        ///< index of the enclosing span, -1 at the top
  };

  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent = -1, int tid = 0) {
    spans_.push_back({std::move(name),
                      seconds_between(origin_, start) * 1e6,
                      seconds_between(start, end) * 1e6, tid, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  std::size_t size() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}%s\n",
                    s.name.c_str(), s.tid, s.start_us, s.dur_us, i, s.parent,
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Insertion-ordered JSON object writer for the harness's result line.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, long long v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  JsonObject& obj(const std::string& key, const JsonObject& v) {
    return raw(key, v.dump());
  }
  JsonObject& arr(const std::string& key, const std::vector<JsonObject>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) s += ",";
      s += v[i].dump();
    }
    return raw(key, s + "]");
  }

  std::string dump() const {
    std::string s = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) s += ",";
      s += quote(fields_[i].first) + ":" + fields_[i].second;
    }
    return s + "}";
  }

  static std::string quote(const std::string& v) {
    std::string s = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') {
        s += '\\';
        s += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        s += buf;
      } else {
        s += c;
      }
    }
    return s + "\"";
  }

 private:
  JsonObject& raw(const std::string& key, std::string v) {
    fields_.emplace_back(key, std::move(v));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
