#include "util/table.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace diurnal::util {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  align_.assign(headers_.size(), Align::kRight);
  if (!align_.empty()) align_[0] = Align::kLeft;
}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> width(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (row[c].size() > width[c]) width[c] = row[c].size();
    }
  }
  auto emit_cell = [&](std::string& out, const std::string& cell,
                       std::size_t c) {
    const std::size_t pad = width[c] - cell.size();
    if (align_[c] == Align::kRight) out.append(pad, ' ');
    out += cell;
    if (align_[c] == Align::kLeft) out.append(pad, ' ');
  };
  std::string out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) out += "  ";
    emit_cell(out, headers_[c], c);
  }
  out += '\n';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) out += "  ";
    out.append(width[c], '-');
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out += "  ";
      emit_cell(out, row[c], c);
    }
    out += '\n';
  }
  return out;
}

void TextTable::print() const { std::fputs(to_string().c_str(), stdout); }

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string fmt_count(std::int64_t v) {
  const bool neg = v < 0;
  std::uint64_t u = neg ? static_cast<std::uint64_t>(-(v + 1)) + 1
                        : static_cast<std::uint64_t>(v);
  std::string digits = std::to_string(u);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out += ',';
    out += *it;
    ++count;
  }
  if (neg) out += '-';
  return {out.rbegin(), out.rend()};
}

std::string fmt_pct(double ratio, int decimals) {
  return fmt(ratio * 100.0, decimals) + "%";
}

std::string fmt_pct(std::optional<double> ratio, int decimals) {
  return ratio ? fmt_pct(*ratio, decimals) : "n/a";
}

}  // namespace diurnal::util
