#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

/// 1-based nearest rank of quantile q in a sample of n.
size_t NearestRank(size_t n, double q) {
  q = std::clamp(q, 0.0, 1.0);
  // The epsilon keeps q * n that is mathematically whole (0.99 * 1000)
  // from rounding up past it.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

int64_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return static_cast<int64_t>(n - NearestRank(n, q));
}

double TailQuantile(size_t n) {
  for (double q : {0.999, 0.99, 0.98, 0.95, 0.9, 0.8}) {
    if (SamplesBeyond(n, q) >= 10) return q;
  }
  return 0.5;
}

double SelfSeconds(double start, double end,
                   std::vector<std::pair<double, double>> children) {
  if (end <= start) return 0.0;
  for (auto& child : children) {
    child.first = std::max(child.first, start);
    child.second = std::min(child.second, end);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = start;  // end of the union built so far
  for (const auto& [child_start, child_end] : children) {
    if (child_end <= child_start) continue;
    const double from = std::max(child_start, reach);
    if (child_end > from) {
      covered += child_end - from;
      reach = child_end;
    }
  }
  return (end - start) - covered;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int64_t Tracer::Begin(const std::string& name, int64_t parent, int64_t tag) {
  if (!enabled_) return -1;
  const double now = SecondsSince(origin_);
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.tag = tag;
  span.start = now;
  span.end = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const double now = SecondsSince(origin_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<int64_t, double> Tracer::SelfTimes() const {
  const std::vector<Span> all = spans();
  std::map<int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& span : all) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<int64_t, double> self;
  for (const Span& span : all) {
    self[span.id] = SelfSeconds(span.start, span.end, children[span.id]);
  }
  return self;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans()) {
    if (span.name == name) total += span.duration();
  }
  return total;
}

int64_t Tracer::Count(const std::string& name) const {
  int64_t count = 0;
  for (const Span& span : spans()) count += span.name == name ? 1 : 0;
  return count;
}

double Tracer::UnattributedFraction() const {
  const std::vector<Span> all = spans();
  const std::map<int64_t, double> self = SelfTimes();
  std::set<int64_t> parents;
  for (const Span& span : all) parents.insert(span.parent);
  double wall = 0.0;
  double unattributed = 0.0;
  for (const Span& span : all) {
    if (span.parent >= 0 || parents.count(span.id) == 0) continue;
    wall += span.duration();
    unattributed += self.at(span.id);
  }
  return wall > 0.0 ? unattributed / wall : 0.0;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    out << "{\"name\":" << JsonString(span.name) << ",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"tag\":" << span.tag
        << ",\"start_s\":" << JsonNumber(span.start)
        << ",\"end_s\":" << JsonNumber(span.end) << "}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
  out.flush();
  return static_cast<bool>(out);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << JsonString(metrics[i].name)
        << ": {\"value\": " << JsonNumber(metrics[i].value)
        << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(stat >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(stat >> value)) return CpuTicks();
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? (after.steal - before.steal) / total : 0.0;
}

double QuietMedian(const std::vector<double>& values,
                   const std::vector<double>& steal, double quiet_share) {
  if (values.size() != steal.size() || values.empty()) return Median(values);
  const double cutoff = std::max(Median(steal), quiet_share);
  std::vector<double> quiet;
  for (size_t i = 0; i < values.size(); ++i) {
    if (steal[i] <= cutoff) quiet.push_back(values[i]);
  }
  return Median(quiet);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace perfbench
