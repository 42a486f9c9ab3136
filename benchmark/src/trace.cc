#include "trace.h"

#include <cstdio>

namespace leapme::benchmark {

uint32_t Tracer::NameId(const std::string& name) {
  auto [it, inserted] =
      name_ids_.try_emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

size_t Tracer::Begin(const std::string& name, uint64_t request) {
  const int64_t parent =
      open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back({NameId(name), NowNs(), 0, parent, request});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(size_t span) {
  spans_[span].end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

size_t Tracer::Add(const std::string& name, uint64_t start_ns,
                   uint64_t end_ns, int64_t parent, uint64_t request) {
  spans_.push_back({NameId(name), start_ns, end_ns, parent, request});
  return spans_.size() - 1;
}

void Tracer::Absorb(const Tracer& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    span.name = NameId(other.names_[span.name]);
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::map<std::string, Tracer::NameTotals> Tracer::TotalsByName() const {
  const std::vector<uint64_t> self = SelfTimes(spans_);
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    NameTotals& entry = totals[names_[spans_[i].name]];
    entry.self_ns += self[i];
    entry.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    ++entry.count;
  }
  return totals;
}

double Tracer::LayerSelfFrac() const {
  uint64_t request_ns = 0;
  uint64_t layer_self_ns = 0;
  for (const auto& [name, totals] : TotalsByName()) {
    if (name == "request") {
      request_ns += totals.total_ns;
    } else {
      layer_self_ns += totals.self_ns;
    }
  }
  return request_ns == 0 ? 0.0
                         : static_cast<double>(layer_self_ns) /
                               static_cast<double>(request_ns);
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::vector<uint64_t> self = SelfTimes(spans_);
  std::fprintf(file, "name\tstart_ns\tend_ns\tparent\trequest\tself_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%s\t%llu\t%llu\t%lld\t%llu\t%llu\n",
                 names_[span.name].c_str(),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns),
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 static_cast<unsigned long long>(self[i]));
  }
  return std::fclose(file) == 0;
}

}  // namespace leapme::benchmark
