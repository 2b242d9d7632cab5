#include "perfbench/harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace aurora::perfbench {

double HostNow() {
  // The benchmark's one host-clock read. Host time is only reported, never
  // fed back into simulated time, so one seed still yields one schedule.
  auto now = std::chrono::steady_clock::now();  // aurora-lint: allow(wall-clock): audited host stopwatch
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

double HostCpuNow() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);  // aurora-lint: allow(wall-clock): audited host CPU stopwatch
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q * static_cast<double>(samples.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double Median(const std::vector<double>& samples) { return Quantile(samples, 0.5); }

HostSpeed::HostSpeed() : buf_(256 * kKiB) {
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) {
      c = (c & 1) != 0 ? (c >> 1) ^ 0x82f63b78u : c >> 1;
    }
    table_[i] = c;
  }
  Rng rng(1);  // fixed: every run probes the same bytes
  for (uint8_t& b : buf_) {
    b = static_cast<uint8_t>(rng.Next());
  }
}

void HostSpeed::Sample(int times) {
  for (int t = 0; t < times; t++) {
    HostStopwatch watch(HostCpuNow);
    uint32_t c = ~sink_;
    for (uint8_t b : buf_) {
      c = table_[(c ^ b) & 0xff] ^ (c >> 8);
    }
    samples_.push_back(watch.Seconds());
    sink_ = c;
  }
}

double HostSpeed::ToReference(double seconds) const {
  const double probe = probe_seconds();
  return probe > 0 ? seconds * kReferenceProbeSeconds / probe : seconds;
}

std::pair<double, double> SupportedTail(const std::vector<double>& samples) {
  for (double p : {99.0, 90.0}) {
    double beyond = static_cast<double>(samples.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0) {
      return {p, Quantile(samples, p / 100.0)};
    }
  }
  return {50.0, Median(samples)};
}

uint64_t HashBytes(const void* data, size_t len, uint64_t seed) {
  // 64-bit FNV-1a over 8-byte words plus a byte tail: fast enough for the
  // end-of-run checks and independent of the library's hash primitives.
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ull ^ seed;
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, sizeof(w));
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  for (; i < len; i++) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

uint64_t PageModel::Mix(uint64_t key, uint64_t content) {
  uint64_t z = key * 0x9e3779b97f4a7c15ull ^ content;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void PageModel::Set(uint64_t key, uint64_t content) {
  auto it = pages_.find(key);
  if (it != pages_.end()) {
    undo_.emplace_back(key, it->second);
    digest_ ^= Mix(key, it->second);
    it->second = content;
  } else {
    undo_.emplace_back(key, std::nullopt);
    pages_.emplace(key, content);
  }
  digest_ ^= Mix(key, content);
}

void PageModel::Rollback() {
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    auto page = pages_.find(it->first);
    digest_ ^= Mix(page->first, page->second);
    if (!it->second) {
      pages_.erase(page);
    } else {
      page->second = *it->second;
      digest_ ^= Mix(page->first, page->second);
    }
  }
  undo_.clear();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, const char* layer, uint64_t id,
                     uint64_t units)
    : tracer_(tracer->enabled() ? tracer : nullptr) {
  if (tracer_ != nullptr) {
    open_ = tracer_->Begin(name, layer, id, units);
  }
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) {
    tracer_->End(open_);
  }
}

size_t Tracer::Begin(const char* name, const char* layer, uint64_t id, uint64_t units) {
  Open o{};
  o.name = name;
  o.layer = layer;
  o.units = units;
  o.sim_begin = clock_->now();
  if (spans_.size() < kMaxKept) {
    Span s;
    s.name = name;
    s.layer = layer;
    s.id = id;
    s.parent = stack_.empty() || stack_.back().kept == SIZE_MAX
                   ? -1
                   : static_cast<int64_t>(stack_.back().kept);
    s.sim_begin = o.sim_begin;
    o.kept = spans_.size();
    spans_.push_back(s);
  }
  recorded_++;
  o.host_begin = HostNow();
  stack_.push_back(o);
  return stack_.size() - 1;
}

void Tracer::End(size_t open) {
  double host_end = HostNow();
  Open o = stack_[open];
  stack_.resize(open);
  double host = host_end - o.host_begin;
  SimTime sim_end = clock_->now();
  SimDuration sim = sim_end - o.sim_begin;
  NameTotals& n = by_name_[o.name];
  n.calls++;
  n.units += o.units;
  n.host_s += host;
  LayerTotals& l = by_layer_[o.layer];
  l.self_host_s += std::max(0.0, host - o.child_host);
  l.self_sim += sim >= o.child_sim ? sim - o.child_sim : 0;
  if (!stack_.empty()) {
    stack_.back().child_host += host;
    stack_.back().child_sim += sim;
  }
  if (o.kept != SIZE_MAX) {
    spans_[o.kept].host_begin = o.host_begin;
    spans_[o.kept].host_end = host_end;
    spans_[o.kept].sim_end = sim_end;
  }
}

std::map<std::string, Tracer::NameTotals> Tracer::by_name() const {
  std::map<std::string, NameTotals> out;
  for (const auto& [name, t] : by_name_) {
    NameTotals& n = out[name];
    n.calls += t.calls;
    n.units += t.units;
    n.host_s += t.host_s;
  }
  return out;
}

std::map<std::string, Tracer::LayerTotals> Tracer::by_layer() const {
  std::map<std::string, LayerTotals> out;
  for (const auto& [layer, t] : by_layer_) {
    LayerTotals& l = out[layer];
    l.self_host_s += t.self_host_s;
    l.self_sim += t.self_sim;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const double origin = spans_.empty() ? 0 : spans_.front().host_begin;
  std::fprintf(f, "{\"otherData\": {\"clocks\": \"pid 1 = host clock, pid 2 = simulated clock\", "
                  "\"spans_recorded\": %llu, \"spans_kept\": %zu},\n\"traceEvents\": [\n",
               static_cast<unsigned long long>(recorded_), spans_.size());
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    const double ts[2] = {(s.host_begin - origin) * 1e6, static_cast<double>(s.sim_begin) / 1e3};
    const double dur[2] = {(s.host_end - s.host_begin) * 1e6,
                           static_cast<double>(s.sim_end - s.sim_begin) / 1e3};
    for (int clock = 0; clock < 2; clock++) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                   "\"span\": %zu, \"parent\": %lld}}",
                   i == 0 && clock == 0 ? "" : ",\n", s.name, s.layer, clock + 1, ts[clock],
                   dur[clock], static_cast<unsigned long long>(s.id), i,
                   static_cast<long long>(s.parent));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Status OpenLoop::Run(double rate_per_sec, SimDuration length, WindowStats* out) {
  SimClock& clock = sim->clock;
  const SimTime start = clock.now();
  const SimTime deadline = start + length;
  const double mean_gap_ns = 1e9 / rate_per_sec;
  SimTime next_arrival = start;
  while (true) {
    next_arrival += static_cast<SimDuration>(arrivals->NextExponential(mean_gap_ns));
    if (next_arrival >= deadline) {
      break;
    }
    if (clock.now() >= next_ckpt) {
      AURORA_ASSIGN_OR_RETURN(next_ckpt, checkpoint());
    }
    clock.AdvanceTo(next_arrival);  // idle until the request arrives
    if (clock.now() >= next_ckpt) {
      AURORA_ASSIGN_OR_RETURN(next_ckpt, checkpoint());
    }
    const double wait_us = ToMicros(clock.now() - next_arrival);
    auto extra = op(op_index++);
    out->ops++;
    if (!extra.ok()) {
      out->failed++;
      continue;
    }
    out->queue_wait_us.push_back(wait_us);
    out->latency_us.push_back(ToMicros(clock.now() - next_arrival + *extra));
  }
  // Backlog: mean queue wait over the window's last quarter of ops. Under a
  // rate the system sustains it stays near the stall share; above capacity
  // the queue grows through the window.
  const size_t n = out->queue_wait_us.size();
  const size_t tail = std::max<size_t>(1, n / 4);
  double sum = 0;
  for (size_t i = n - std::min(n, tail); i < n; i++) {
    sum += out->queue_wait_us[i];
  }
  out->backlog_us = n == 0 ? 0 : sum / static_cast<double>(std::min(n, tail));
  clock.AdvanceTo(deadline);
  out->span += clock.now() - start;
  return Status::Ok();
}

}  // namespace aurora::perfbench
