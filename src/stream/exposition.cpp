#include "stream/exposition.hpp"

#include <cstdint>
#include <map>
#include <sstream>

namespace splace::stream {

namespace {

/// Files each sample under its family; families print in first-seen order,
/// each declared once however many times (shards) the walk reaches it.
class TextWriter final : public engine::MetricWriter {
 public:
  void open(const std::string& key, const char* label) override {
    frames_.push_back(labels_.size());
    if (label != nullptr) labels_ = join(labels_, label, key);
  }
  void open_list(const std::string& key) override { open(key, nullptr); }
  void close() override {
    labels_.resize(frames_.back());
    frames_.pop_back();
  }
  void value(const std::string& key, std::uint64_t value,
             const engine::MetricFamily& family) override {
    sample(key, family, value);
  }
  void value(const std::string& key, double value,
             const engine::MetricFamily& family) override {
    sample(key, family, value);
  }
  void value(const std::string& key, bool value,
             const engine::MetricFamily& family) override {
    sample(key, family, value ? 1 : 0);
  }
  void latency(const std::string& key, const engine::LatencyStats& stats,
               const engine::MetricFamily& family) override {
    if (family.name == nullptr) return;
    open(key, family.label);
    std::uint64_t cumulative = 0;
    for (const auto& [bucket, count] : stats.log2_us.counts()) {
      cumulative += count;
      // Bucket b covers (2^(b-1), 2^b] µs; clamp the shift for safety.
      const std::uint64_t le = std::uint64_t{1}
                               << (bucket < 63 ? bucket : std::size_t{62});
      file(family, "_bucket", join(labels_, "le", std::to_string(le)),
           cumulative);
    }
    file(family, "_bucket", join(labels_, "le", "+Inf"), stats.count);
    file(family, "_sum", labels_, stats.total_seconds * 1e6);
    file(family, "_count", labels_, stats.count);
    close();
  }

  std::string str() const {
    std::string out;
    for (const std::string* name : order_) {
      const Family& family = families_.at(*name);
      out += "# HELP " + *name + " " + family.help + "\n";
      out += "# TYPE " + *name + " " + family.type + "\n";
      out += family.samples;
    }
    return out;
  }

 private:
  struct Family {
    const char* type = nullptr;
    const char* help = nullptr;
    std::string samples;
  };

  /// `labels` plus one `name="value"` fragment, the value escaped.
  static std::string join(const std::string& labels, const char* name,
                          const std::string& value) {
    return labels + (labels.empty() ? "" : ",") + name + "=\"" +
           escape_label_value(value) + "\"";
  }

  /// One scalar sample; with a family label, its value is `key`.
  template <typename Value>
  void sample(const std::string& key, const engine::MetricFamily& family,
              Value value) {
    if (family.name == nullptr) return;
    file(family, "",
         family.label == nullptr ? labels_ : join(labels_, family.label, key),
         value);
  }

  /// Appends one sample line to `family`, declaring it when first seen.
  template <typename Value>
  void file(const engine::MetricFamily& family, const char* suffix,
            const std::string& labels, Value value) {
    auto [it, added] = families_.try_emplace(family.name);
    if (added) {
      it->second.type = family.type;
      it->second.help = family.help;
      order_.push_back(&it->first);
    }
    std::ostringstream line;
    line << family.name << suffix;
    if (!labels.empty()) line << "{" << labels << "}";
    line << " " << value << "\n";
    it->second.samples += line.str();
  }

  std::map<std::string, Family> families_;
  std::vector<const std::string*> order_;  ///< first-seen family order
  std::string labels_;                     ///< labels of the open frames
  std::vector<std::size_t> frames_;        ///< labels_ size at each open
};

}  // namespace

std::string escape_label_value(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  return out;
}

std::string metrics_text(const std::vector<EngineExposition>& shards) {
  TextWriter w;
  for (const EngineExposition& s : shards) {
    if (!s.shard.empty()) w.open(s.shard, "shard");
    engine::describe(s.engine, w);
    describe(s.stream, w);
    describe(s.bus, w);
    if (!s.shard.empty()) w.close();
  }
  return w.str();
}

std::string metrics_text(const engine::EngineMetricsSnapshot& engine_snapshot,
                         const StreamStats& stream_snapshot,
                         const BusStats& bus_snapshot) {
  std::vector<EngineExposition> shards(1);
  shards[0].engine = engine_snapshot;
  shards[0].stream = stream_snapshot;
  shards[0].bus = bus_snapshot;
  return metrics_text(shards);
}

}  // namespace splace::stream
