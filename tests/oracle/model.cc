#include "tests/oracle/model.h"

#include <algorithm>
#include <cmath>

namespace igepa {
namespace lp {

int32_t LpModel::AddRow(Sense sense, double rhs) {
  rows_.push_back(RowDef{sense, rhs});
  return static_cast<int32_t>(rows_.size()) - 1;
}

int32_t LpModel::AddColumn(double objective, double lower, double upper,
                           std::vector<ColumnEntry> entries) {
  obj_.push_back(objective);
  lower_.push_back(lower);
  upper_.push_back(upper);
  num_entries_ += static_cast<int64_t>(entries.size());
  cols_.push_back(std::move(entries));
  return static_cast<int32_t>(cols_.size()) - 1;
}

Status LpModel::Validate() {
  const int32_t m = num_rows();
  for (size_t j = 0; j < cols_.size(); ++j) {
    if (!(lower_[j] <= upper_[j])) {
      return Status::InvalidArgument("column " + std::to_string(j) +
                                     ": lower > upper");
    }
    if (!std::isfinite(obj_[j])) {
      return Status::InvalidArgument("column " + std::to_string(j) +
                                     ": non-finite objective");
    }
    auto& col = cols_[j];
    for (const auto& e : col) {
      if (e.row < 0 || e.row >= m) {
        return Status::InvalidArgument("column " + std::to_string(j) +
                                       ": row index out of range");
      }
      if (!std::isfinite(e.value)) {
        return Status::InvalidArgument("column " + std::to_string(j) +
                                       ": non-finite coefficient");
      }
    }
    // Merge duplicate row entries (sum coefficients).
    std::sort(col.begin(), col.end(),
              [](const ColumnEntry& a, const ColumnEntry& b) {
                return a.row < b.row;
              });
    size_t out = 0;
    for (size_t k = 0; k < col.size(); ++k) {
      if (out > 0 && col[out - 1].row == col[k].row) {
        col[out - 1].value += col[k].value;
      } else {
        col[out++] = col[k];
      }
    }
    if (out != col.size()) {
      num_entries_ -= static_cast<int64_t>(col.size() - out);
      col.resize(out);
    }
  }
  for (const auto& r : rows_) {
    if (!std::isfinite(r.rhs)) {
      return Status::InvalidArgument("non-finite row rhs");
    }
  }
  return Status::OK();
}

bool LpModel::IsPackingForm() const {
  for (const auto& r : rows_) {
    if (r.sense != Sense::kLe || r.rhs < 0.0) return false;
  }
  for (size_t j = 0; j < cols_.size(); ++j) {
    if (lower_[j] < 0.0 || upper_[j] < lower_[j]) return false;
    for (const auto& e : cols_[j]) {
      if (e.value < 0.0) return false;
    }
  }
  return true;
}

double LpModel::ObjectiveValue(const std::vector<double>& x) const {
  double acc = 0.0;
  const size_t n = std::min(x.size(), obj_.size());
  for (size_t j = 0; j < n; ++j) acc += obj_[j] * x[j];
  return acc;
}

std::vector<double> LpModel::RowActivity(const std::vector<double>& x) const {
  std::vector<double> act(rows_.size(), 0.0);
  for (size_t j = 0; j < cols_.size() && j < x.size(); ++j) {
    if (x[j] == 0.0) continue;
    for (const auto& e : cols_[j]) {
      act[static_cast<size_t>(e.row)] += e.value * x[j];
    }
  }
  return act;
}

double LpModel::MaxInfeasibility(const std::vector<double>& x) const {
  double worst = 0.0;
  const std::vector<double> act = RowActivity(x);
  for (size_t i = 0; i < rows_.size(); ++i) {
    const double a = act[i];
    const double b = rows_[i].rhs;
    switch (rows_[i].sense) {
      case Sense::kLe:
        worst = std::max(worst, a - b);
        break;
      case Sense::kGe:
        worst = std::max(worst, b - a);
        break;
      case Sense::kEq:
        worst = std::max(worst, std::abs(a - b));
        break;
    }
  }
  for (size_t j = 0; j < cols_.size() && j < x.size(); ++j) {
    worst = std::max(worst, lower_[j] - x[j]);
    worst = std::max(worst, x[j] - upper_[j]);
  }
  return worst;
}

}  // namespace lp
}  // namespace igepa
