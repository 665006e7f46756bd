#include "validate/baseline.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace diurnal::validate {

ScenarioRecord make_record(const Scorecard& score, std::uint64_t digest) {
  ScenarioRecord r;
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  r.digest = buf;
  r.score = score;
  r.precision = score.precision();
  r.recall = score.recall();
  r.f1 = score.f1();
  r.mean_abs_latency_days = score.mean_abs_latency_days();
  return r;
}

const ScenarioRecord* Baseline::find(std::string_view name) const {
  for (const auto& [n, rec] : scenarios) {
    if (n == name) return &rec;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

namespace {

std::string num(std::optional<double> v) {
  if (!v) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", *v);
  return buf;
}

void emit_class(std::string& out, const char* indent, TruthClass c,
                const ClassTally& t, bool last) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s\"%s\": {\"truth\": %d, \"matched\": %d, \"missed\": %d, "
                "\"abs_latency_seconds\": %lld, "
                "\"mean_abs_latency_days\": %s}%s\n",
                indent, std::string(to_string(c)).c_str(), t.truth, t.matched,
                t.missed, static_cast<long long>(t.abs_latency_sum),
                num(t.mean_abs_latency_days()).c_str(), last ? "" : ",");
  out += buf;
}

}  // namespace

std::string to_json(const Baseline& b) {
  std::string out = "{\n";
  out += "  \"schema\": \"diurnal-validate-v1\",\n";
  out += "  \"match_window_days\": " + std::to_string(b.match_window_days) +
         ",\n";
  out += "  \"scenarios\": {\n";
  for (std::size_t i = 0; i < b.scenarios.size(); ++i) {
    const auto& [name, r] = b.scenarios[i];
    const auto& s = r.score;
    char buf[640];
    out += "    \"" + name + "\": {\n";
    out += "      \"digest\": \"" + r.digest + "\",\n";
    std::snprintf(
        buf, sizeof buf,
        "      \"blocks_scored\": %d,\n"
        "      \"truth\": %d, \"true_positive\": %d, "
        "\"false_negative\": %d, \"false_positive\": %d,\n"
        "      \"fp_outage_artifact\": %d,\n"
        "      \"outage_pairs_planted\": %d, \"outage_discards\": %d,\n"
        "      \"low_evidence_excluded\": %d, "
        "\"truth_outside_detection\": %d,\n"
        "      \"warmup_excluded\": %d,\n",
        s.blocks_scored, s.truth_total(), s.true_positive(),
        s.false_negative(), s.false_positive, s.fp_outage_artifact,
        s.outage_pairs_planted, s.outage_discards, s.low_evidence_excluded,
        s.truth_outside_detection, s.warmup_excluded);
    out += buf;
    out += "      \"precision\": " + num(r.precision) + ",\n";
    out += "      \"recall\": " + num(r.recall) + ",\n";
    out += "      \"f1\": " + num(r.f1) + ",\n";
    out += "      \"mean_abs_latency_days\": " +
           num(r.mean_abs_latency_days) + ",\n";
    out += "      \"classes\": {\n";
    for (std::size_t c = 0; c < kNumTruthClasses; ++c) {
      emit_class(out, "        ", static_cast<TruthClass>(c), s.classes[c],
                 c + 1 == kNumTruthClasses);
    }
    out += "      }\n";
    out += i + 1 == b.scenarios.size() ? "    }\n" : "    },\n";
  }
  out += "  }\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Parser: the minimal JSON subset to_json emits (objects, strings,
// numbers, booleans, null).  No external dependency, no arrays.
// ---------------------------------------------------------------------------

namespace {

// Input bounds, checked before any recursion: the checked-in baseline is
// 16.6 KB and nests objects 5 deep (root, scenarios, scenario, classes,
// class).  1 MiB leaves room for a catalog some 60 times larger, and 32
// levels keep the recursive descent's stack small, so a crafted file
// fails with a message instead of exhausting memory or the stack.
constexpr std::size_t kMaxBaselineBytes = std::size_t{1} << 20;
constexpr int kMaxDepth = 32;

struct Value {
  enum Kind { kNull, kBool, kNumber, kString, kObject } kind = kNull;
  bool b = false;
  double number = 0.0;
  std::string str;  ///< a string's text, or a number's token
  std::vector<std::pair<std::string, Value>> members;

  const Value* get(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse() {
    const Value v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("baseline JSON: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') fail("escapes unsupported");
      out += s_[pos_++];
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  Value value() {
    const char c = peek();
    Value v;
    if (c == '{') {
      if (++depth_ > kMaxDepth) {
        fail("objects nested deeper than " + std::to_string(kMaxDepth));
      }
      v.kind = Value::kObject;
      ++pos_;
      if (peek() == '}') {
        ++pos_;
        --depth_;
        return v;
      }
      while (true) {
        std::string key = string();
        expect(':');
        v.members.emplace_back(std::move(key), value());
        const char d = peek();
        if (d == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        --depth_;
        return v;
      }
    }
    if (c == '"') {
      v.kind = Value::kString;
      v.str = string();
      return v;
    }
    skip_ws();
    if (consume_literal("null")) return v;
    if (consume_literal("true")) {
      v.kind = Value::kBool;
      v.b = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = Value::kBool;
      return v;
    }
    // Number.
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("unexpected character");
    v.kind = Value::kNumber;
    v.str = s_.substr(start, pos_ - start);
    char* end = nullptr;
    v.number = std::strtod(v.str.c_str(), &end);
    if (end != v.str.c_str() + v.str.size() || !std::isfinite(v.number)) {
      pos_ = start;
      fail("malformed number '" + v.str + "'");
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< objects open at pos_
};

// A count field: a non-negative decimal integer that fits T, read
// exactly from its token (so 2.5, -1 and 1e300 are rejected, and an
// int64 latency sum above 2^53 keeps every digit).
template <class T>
T require_count(const Value& obj, std::string_view key) {
  const Value* v = obj.get(key);
  if (v == nullptr || v->kind != Value::kNumber) {
    throw std::runtime_error("baseline JSON: missing numeric field '" +
                             std::string(key) + "'");
  }
  const char* const last = v->str.data() + v->str.size();
  T n{};
  const auto [end, ec] = std::from_chars(v->str.data(), last, n);
  if (ec != std::errc{} || end != last || n < 0) {
    throw std::runtime_error("baseline JSON: field '" + std::string(key) +
                             "' is not a count in range: " + v->str);
  }
  return n;
}

int require_int(const Value& obj, std::string_view key) {
  return require_count<int>(obj, key);
}

std::optional<double> optional_rate(const Value& obj, std::string_view key) {
  const Value* v = obj.get(key);
  if (v == nullptr || v->kind == Value::kNull) return std::nullopt;
  if (v->kind != Value::kNumber) {
    throw std::runtime_error("baseline JSON: field '" + std::string(key) +
                             "' is not a number");
  }
  return v->number;
}

}  // namespace

Baseline parse_baseline(const std::string& text) {
  if (text.size() > kMaxBaselineBytes) {
    throw std::runtime_error("baseline JSON: " + std::to_string(text.size()) +
                             " bytes, over the " +
                             std::to_string(kMaxBaselineBytes) +
                             "-byte limit");
  }
  const Value root = Parser(text).parse();
  if (root.kind != Value::kObject) {
    throw std::runtime_error("baseline JSON: root is not an object");
  }
  const Value* schema = root.get("schema");
  if (schema == nullptr || schema->str != "diurnal-validate-v1") {
    throw std::runtime_error("baseline JSON: unknown schema");
  }

  Baseline b;
  b.match_window_days = require_int(root, "match_window_days");
  const Value* scenarios = root.get("scenarios");
  if (scenarios == nullptr || scenarios->kind != Value::kObject) {
    throw std::runtime_error("baseline JSON: missing scenarios object");
  }
  for (const auto& [name, sv] : scenarios->members) {
    if (sv.kind != Value::kObject) {
      throw std::runtime_error("baseline JSON: scenario '" + name +
                               "' is not an object");
    }
    ScenarioRecord r;
    const Value* digest = sv.get("digest");
    if (digest == nullptr || digest->kind != Value::kString) {
      throw std::runtime_error("baseline JSON: scenario '" + name +
                               "' missing digest");
    }
    r.digest = digest->str;
    auto& s = r.score;
    s.blocks_scored = require_int(sv, "blocks_scored");
    s.false_positive = require_int(sv, "false_positive");
    s.fp_outage_artifact = require_int(sv, "fp_outage_artifact");
    s.outage_pairs_planted = require_int(sv, "outage_pairs_planted");
    s.outage_discards = require_int(sv, "outage_discards");
    s.low_evidence_excluded = require_int(sv, "low_evidence_excluded");
    s.truth_outside_detection = require_int(sv, "truth_outside_detection");
    s.warmup_excluded = require_int(sv, "warmup_excluded");
    r.precision = optional_rate(sv, "precision");
    r.recall = optional_rate(sv, "recall");
    r.f1 = optional_rate(sv, "f1");
    r.mean_abs_latency_days = optional_rate(sv, "mean_abs_latency_days");

    const Value* classes = sv.get("classes");
    if (classes == nullptr || classes->kind != Value::kObject) {
      throw std::runtime_error("baseline JSON: scenario '" + name +
                               "' missing classes");
    }
    for (std::size_t c = 0; c < kNumTruthClasses; ++c) {
      const auto cls = static_cast<TruthClass>(c);
      const Value* cv = classes->get(to_string(cls));
      if (cv == nullptr || cv->kind != Value::kObject) {
        throw std::runtime_error("baseline JSON: scenario '" + name +
                                 "' missing class '" +
                                 std::string(to_string(cls)) + "'");
      }
      auto& t = s.classes[c];
      t.truth = require_int(*cv, "truth");
      t.matched = require_int(*cv, "matched");
      t.missed = require_int(*cv, "missed");
      t.abs_latency_sum =
          require_count<std::int64_t>(*cv, "abs_latency_seconds");
    }
    b.scenarios.emplace_back(name, std::move(r));
  }
  return b;
}

// ---------------------------------------------------------------------------
// Comparator.
// ---------------------------------------------------------------------------

namespace {

void check_int(std::vector<Mismatch>& out, const std::string& scenario,
               const std::string& field, std::int64_t expected,
               std::int64_t actual) {
  if (expected != actual) {
    out.push_back({scenario, field, std::to_string(expected),
                   std::to_string(actual)});
  }
}

void check_rate(std::vector<Mismatch>& out, const std::string& scenario,
                const std::string& field, std::optional<double> expected,
                std::optional<double> actual, double eps) {
  const bool differs =
      expected.has_value() != actual.has_value() ||
      (expected && std::fabs(*expected - *actual) > eps);
  if (differs) {
    out.push_back({scenario, field, expected ? num(expected) : "null",
                   actual ? num(actual) : "null"});
  }
}

}  // namespace

std::vector<Mismatch> compare_to_baseline(const Baseline& baseline,
                                          const Baseline& current,
                                          double rate_epsilon,
                                          std::string_view only) {
  std::vector<Mismatch> out;
  for (const auto& [name, want] : baseline.scenarios) {
    if (!only.empty() && name != only) continue;
    const ScenarioRecord* got = current.find(name);
    if (got == nullptr) {
      out.push_back({name, "scenario", "present", "missing from run"});
      continue;
    }
    if (want.digest != got->digest) {
      out.push_back({name, "digest", want.digest, got->digest});
    }
    const auto& w = want.score;
    const auto& g = got->score;
    check_int(out, name, "blocks_scored", w.blocks_scored, g.blocks_scored);
    check_int(out, name, "false_positive", w.false_positive, g.false_positive);
    check_int(out, name, "fp_outage_artifact", w.fp_outage_artifact,
              g.fp_outage_artifact);
    check_int(out, name, "outage_pairs_planted", w.outage_pairs_planted,
              g.outage_pairs_planted);
    check_int(out, name, "outage_discards", w.outage_discards,
              g.outage_discards);
    check_int(out, name, "low_evidence_excluded", w.low_evidence_excluded,
              g.low_evidence_excluded);
    check_int(out, name, "truth_outside_detection", w.truth_outside_detection,
              g.truth_outside_detection);
    check_int(out, name, "warmup_excluded", w.warmup_excluded,
              g.warmup_excluded);
    for (std::size_t c = 0; c < kNumTruthClasses; ++c) {
      const std::string prefix =
          std::string(to_string(static_cast<TruthClass>(c))) + ".";
      check_int(out, name, prefix + "truth", w.classes[c].truth,
                g.classes[c].truth);
      check_int(out, name, prefix + "matched", w.classes[c].matched,
                g.classes[c].matched);
      check_int(out, name, prefix + "missed", w.classes[c].missed,
                g.classes[c].missed);
      check_int(out, name, prefix + "abs_latency_seconds",
                w.classes[c].abs_latency_sum, g.classes[c].abs_latency_sum);
    }
    check_rate(out, name, "precision", want.precision, got->precision,
               rate_epsilon);
    check_rate(out, name, "recall", want.recall, got->recall, rate_epsilon);
    check_rate(out, name, "f1", want.f1, got->f1, rate_epsilon);
    check_rate(out, name, "mean_abs_latency_days", want.mean_abs_latency_days,
               got->mean_abs_latency_days, rate_epsilon);
  }
  if (only.empty()) {
    for (const auto& [name, rec] : current.scenarios) {
      if (baseline.find(name) == nullptr) {
        out.push_back({name, "scenario", "absent from baseline",
                       "present in run (update the baseline)"});
      }
    }
  }
  return out;
}

}  // namespace diurnal::validate
