#include "checker.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

namespace e2ebench {
namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

/// Splits one CSV line into its comma-separated fields (no quoting in these
/// formats).
void SplitFields(std::string_view line, std::vector<std::string_view>* out) {
  out->clear();
  size_t begin = 0;
  while (true) {
    const size_t comma = line.find(',', begin);
    if (comma == std::string_view::npos) {
      out->push_back(line.substr(begin));
      return;
    }
    out->push_back(line.substr(begin, comma - begin));
    begin = comma + 1;
  }
}

template <typename T>
bool ParseNumber(std::string_view text, T* value) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

std::string Where(const std::string& path, int64_t line) {
  return path + ":" + std::to_string(line) + ": ";
}

int64_t Align8(int64_t offset) { return (offset + 7) & ~int64_t{7}; }

double RelDiff(double a, double b) {
  return std::fabs(a - b) / std::max(1.0, std::fabs(b));
}

std::string Num(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace

bool CheckInstance::HasBid(int32_t u, int32_t v) const {
  const auto& list = bids[static_cast<size_t>(u)];
  return std::binary_search(list.begin(), list.end(), v);
}

double CheckInstance::Interest(int32_t v, int32_t u) const {
  if (!dense_interest.empty()) {
    return dense_interest[static_cast<size_t>(v) * num_users + u];
  }
  const auto& list = bids[static_cast<size_t>(u)];
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it == list.end() || *it != v) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return bid_interest[static_cast<size_t>(u)]
                     [static_cast<size_t>(it - list.begin())];
}

std::string ParseInstanceCsv(const std::string& path, CheckInstance* out) {
  std::string text;
  if (!ReadFile(path, &text)) return "cannot read " + path;
  CheckInstance inst;
  std::vector<std::string_view> f;
  int64_t line_no = 0;
  bool have_header = false;
  bool dense = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string_view line(text.data() + pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    SplitFields(line, &f);
    const std::string_view kind = f[0];
    if (!have_header) {
      int64_t version = 0;
      if (f.size() != 5 || kind != "igepa" || !ParseNumber(f[1], &version) ||
          (version != 1 && version != 2) ||
          !ParseNumber(f[2], &inst.num_events) ||
          !ParseNumber(f[3], &inst.num_users) ||
          !ParseNumber(f[4], &inst.beta) || inst.num_events < 0 ||
          inst.num_users < 0) {
        return Where(path, line_no) + "bad header";
      }
      have_header = true;
      const auto nv = static_cast<size_t>(inst.num_events);
      const auto nu = static_cast<size_t>(inst.num_users);
      inst.event_capacity.assign(nv, -1);
      inst.user_capacity.assign(nu, -1);
      inst.bids.assign(nu, {});
      inst.bid_interest.assign(nu, {});
      inst.degree.assign(nu, std::numeric_limits<double>::quiet_NaN());
      inst.conflicts.assign(nv * nv, 0);
      continue;
    }
    int32_t a = 0;
    int32_t b = 0;
    if (kind == "kernel") {
      if (f.size() != 2 || f[1] != "interaction_interest") {
        return Where(path, line_no) +
               "only the interaction_interest kernel is checked";
      }
    } else if (kind == "event") {
      int32_t cap = 0;
      if (f.size() != 3 || !ParseNumber(f[1], &a) || !ParseNumber(f[2], &cap) ||
          a < 0 || a >= inst.num_events || cap < 0) {
        return Where(path, line_no) + "bad event line";
      }
      inst.event_capacity[static_cast<size_t>(a)] = cap;
    } else if (kind == "user") {
      int32_t cap = 0;
      if (f.size() != 4 || !ParseNumber(f[1], &a) || !ParseNumber(f[2], &cap) ||
          a < 0 || a >= inst.num_users || cap < 0) {
        return Where(path, line_no) + "bad user line";
      }
      inst.user_capacity[static_cast<size_t>(a)] = cap;
      auto& list = inst.bids[static_cast<size_t>(a)];
      std::string_view rest = f[3];
      while (!rest.empty()) {
        const size_t semi = rest.find(';');
        const std::string_view item = rest.substr(0, semi);
        int32_t v = 0;
        if (!ParseNumber(item, &v) || v < 0 || v >= inst.num_events) {
          return Where(path, line_no) + "bad bid";
        }
        list.push_back(v);
        if (semi == std::string_view::npos) break;
        rest.remove_prefix(semi + 1);
      }
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      inst.bid_interest[static_cast<size_t>(a)].assign(
          list.size(), std::numeric_limits<double>::quiet_NaN());
    } else if (kind == "conflict") {
      if (f.size() != 3 || !ParseNumber(f[1], &a) || !ParseNumber(f[2], &b) ||
          a < 0 || b < 0 || a >= inst.num_events || b >= inst.num_events ||
          a == b) {
        return Where(path, line_no) + "bad conflict line";
      }
      inst.conflicts[static_cast<size_t>(a) * inst.num_events + b] = 1;
      inst.conflicts[static_cast<size_t>(b) * inst.num_events + a] = 1;
    } else if (kind == "interest") {
      double value = 0.0;
      if (f.size() != 4 || !ParseNumber(f[1], &a) || !ParseNumber(f[2], &b) ||
          !ParseNumber(f[3], &value) || a < 0 || a >= inst.num_events ||
          b < 0 || b >= inst.num_users || !(value >= 0.0 && value <= 1.0)) {
        return Where(path, line_no) + "bad interest line";
      }
      if (!dense && inst.HasBid(b, a)) {
        const auto& list = inst.bids[static_cast<size_t>(b)];
        const size_t idx = static_cast<size_t>(
            std::lower_bound(list.begin(), list.end(), a) - list.begin());
        inst.bid_interest[static_cast<size_t>(b)][idx] = value;
      } else {
        // A non-bid pair: the file is a dense table (§7 snapshots). Switch
        // the model to dense storage, carrying over what was read so far.
        if (!dense) {
          dense = true;
          inst.dense_interest.assign(static_cast<size_t>(inst.num_events) *
                                         inst.num_users,
                                     std::numeric_limits<double>::quiet_NaN());
          for (int32_t u = 0; u < inst.num_users; ++u) {
            const auto& list = inst.bids[static_cast<size_t>(u)];
            for (size_t k = 0; k < list.size(); ++k) {
              inst.dense_interest[static_cast<size_t>(list[k]) *
                                      inst.num_users +
                                  u] = inst.bid_interest[u][k];
            }
          }
        }
        inst.dense_interest[static_cast<size_t>(a) * inst.num_users + b] =
            value;
      }
    } else if (kind == "degree") {
      double value = 0.0;
      if (f.size() != 3 || !ParseNumber(f[1], &a) || !ParseNumber(f[2], &value) ||
          a < 0 || a >= inst.num_users || !(value >= 0.0 && value <= 1.0)) {
        return Where(path, line_no) + "bad degree line";
      }
      inst.degree[static_cast<size_t>(a)] = value;
    } else {
      return Where(path, line_no) + "unknown record '" + std::string(kind) +
             "'";
    }
  }
  if (!have_header) return path + ": empty file";
  for (int32_t v = 0; v < inst.num_events; ++v) {
    if (inst.event_capacity[static_cast<size_t>(v)] < 0) {
      return path + ": event " + std::to_string(v) + " missing";
    }
  }
  for (int32_t u = 0; u < inst.num_users; ++u) {
    if (inst.user_capacity[static_cast<size_t>(u)] < 0 ||
        std::isnan(inst.degree[static_cast<size_t>(u)])) {
      return path + ": user " + std::to_string(u) + " incomplete";
    }
    for (int32_t v : inst.bids[static_cast<size_t>(u)]) {
      if (std::isnan(inst.Interest(v, u))) {
        return path + ": no interest for bid pair (" + std::to_string(v) +
               ", " + std::to_string(u) + ")";
      }
    }
  }
  if (dense) inst.bid_interest.clear();
  *out = std::move(inst);
  return "";
}

std::string ParseInstanceBinary(const std::string& path, CheckInstance* out) {
  std::string data;
  if (!ReadFile(path, &data)) return "cannot read " + path;
  const auto size = static_cast<int64_t>(data.size());
  if (size < 72 || std::memcmp(data.data(), "igepabin", 8) != 0) {
    return path + ": not an igepa-bin file";
  }
  auto read_u32 = [&](int64_t at) {
    uint32_t v = 0;
    std::memcpy(&v, data.data() + at, 4);
    return v;
  };
  auto read_i64 = [&](int64_t at) {
    int64_t v = 0;
    std::memcpy(&v, data.data() + at, 8);
    return v;
  };
  if (read_u32(8) != 3) return path + ": not format version 3";
  const int64_t kernel_len = read_u32(12);
  CheckInstance inst;
  std::memcpy(&inst.num_events, data.data() + 16, 4);
  std::memcpy(&inst.num_users, data.data() + 20, 4);
  const int64_t num_bids = read_i64(24);
  const int64_t num_conflicts = read_i64(32);
  std::memcpy(&inst.beta, data.data() + 40, 8);
  if (kernel_len > 4096 || inst.num_events < 0 || inst.num_users < 0 ||
      num_bids < 0 || num_conflicts < 0) {
    return path + ": bad header counts";
  }
  const int64_t nv = inst.num_events;
  const int64_t nu = inst.num_users;
  const int64_t kernel_at = 64;
  const int64_t event_cap_at = Align8(kernel_at + kernel_len);
  const int64_t user_cap_at = Align8(event_cap_at + nv * 4);
  const int64_t bid_off_at = Align8(user_cap_at + nu * 4);
  const int64_t pool_at = Align8(bid_off_at + (nu + 1) * 8);
  const int64_t interest_at = Align8(pool_at + num_bids * 4);
  const int64_t degree_at = Align8(interest_at + num_bids * 8);
  const int64_t conflicts_at = Align8(degree_at + nu * 8);
  const int64_t trailer_at = Align8(conflicts_at + num_conflicts * 8);
  if (size != trailer_at + 8 ||
      std::memcmp(data.data() + trailer_at + 4, "IGB3", 4) != 0) {
    return path + ": size or trailer does not match the header";
  }
  if (std::string_view(data.data() + kernel_at,
                       static_cast<size_t>(kernel_len)) !=
      "interaction_interest") {
    return path + ": only the interaction_interest kernel is checked";
  }
  inst.event_capacity.resize(static_cast<size_t>(nv));
  std::memcpy(inst.event_capacity.data(), data.data() + event_cap_at,
              static_cast<size_t>(nv) * 4);
  inst.user_capacity.resize(static_cast<size_t>(nu));
  std::memcpy(inst.user_capacity.data(), data.data() + user_cap_at,
              static_cast<size_t>(nu) * 4);
  inst.degree.resize(static_cast<size_t>(nu));
  std::memcpy(inst.degree.data(), data.data() + degree_at,
              static_cast<size_t>(nu) * 8);
  inst.bids.resize(static_cast<size_t>(nu));
  inst.bid_interest.resize(static_cast<size_t>(nu));
  int64_t prev = read_i64(bid_off_at);
  if (prev != 0) return path + ": first bid offset is not 0";
  for (int64_t u = 0; u < nu; ++u) {
    const int64_t next = read_i64(bid_off_at + (u + 1) * 8);
    if (next < prev || next > num_bids) return path + ": bad bid offsets";
    auto& list = inst.bids[static_cast<size_t>(u)];
    auto& si = inst.bid_interest[static_cast<size_t>(u)];
    list.resize(static_cast<size_t>(next - prev));
    si.resize(static_cast<size_t>(next - prev));
    std::memcpy(list.data(), data.data() + pool_at + prev * 4,
                list.size() * 4);
    std::memcpy(si.data(), data.data() + interest_at + prev * 8,
                si.size() * 8);
    for (size_t k = 0; k < list.size(); ++k) {
      if (list[k] < 0 || list[k] >= nv || (k > 0 && list[k] <= list[k - 1])) {
        return path + ": bids of user " + std::to_string(u) +
               " not ascending in range";
      }
    }
    prev = next;
  }
  if (prev != num_bids) return path + ": bid offsets do not cover the pool";
  inst.conflicts.assign(static_cast<size_t>(nv * nv), 0);
  for (int64_t k = 0; k < num_conflicts; ++k) {
    int32_t pair[2];
    std::memcpy(pair, data.data() + conflicts_at + k * 8, 8);
    if (pair[0] < 0 || pair[1] >= nv || pair[0] >= pair[1]) {
      return path + ": bad conflict pair";
    }
    inst.conflicts[static_cast<size_t>(pair[0] * nv + pair[1])] = 1;
    inst.conflicts[static_cast<size_t>(pair[1] * nv + pair[0])] = 1;
  }
  *out = std::move(inst);
  return "";
}

std::string ApplyUserUpdate(CheckInstance* instance, int32_t user,
                            int32_t capacity, std::vector<int32_t> bids) {
  if (instance->dense_interest.empty()) {
    return "tracking registration updates needs a dense interest table";
  }
  if (user < 0 || user >= instance->num_users || capacity < 0) {
    return "user update out of range";
  }
  for (int32_t v : bids) {
    if (v < 0 || v >= instance->num_events) return "bid out of range";
  }
  std::sort(bids.begin(), bids.end());
  bids.erase(std::unique(bids.begin(), bids.end()), bids.end());
  instance->user_capacity[static_cast<size_t>(user)] = capacity;
  instance->bids[static_cast<size_t>(user)] = std::move(bids);
  return "";
}

std::string ApplyEventCapacity(CheckInstance* instance, int32_t event,
                               int32_t capacity) {
  if (event < 0 || event >= instance->num_events || capacity < 0) {
    return "event update out of range";
  }
  instance->event_capacity[static_cast<size_t>(event)] = capacity;
  return "";
}

bool EnumerationCannotTruncate(const CheckInstance& instance,
                               int64_t max_sets_per_user) {
  for (int32_t u = 0; u < instance.num_users; ++u) {
    const auto n = static_cast<int64_t>(instance.bids[static_cast<size_t>(u)]
                                            .size());
    const int64_t k_max =
        std::min<int64_t>(n, instance.user_capacity[static_cast<size_t>(u)]);
    int64_t subsets = 0;
    int64_t choose = 1;  // C(n, k), exact while it stays small
    for (int64_t k = 0; k <= k_max; ++k) {
      subsets += choose;
      if (subsets > max_sets_per_user) return false;
      choose = choose * (n - k) / (k + 1);
    }
  }
  return true;
}

std::vector<std::string> CheckArrangement(const CheckInstance& instance,
                                          std::span<const Pair> pairs,
                                          const Claims& claims,
                                          double* recomputed_utility) {
  std::vector<std::string> failures;
  auto fail = [&](const std::string& what) {
    if (failures.size() < 8) failures.push_back(what);
  };
  std::vector<std::vector<int32_t>> events_of(
      static_cast<size_t>(instance.num_users));
  std::vector<int32_t> event_load(static_cast<size_t>(instance.num_events), 0);
  double utility = 0.0;
  for (const auto& [v, u] : pairs) {
    const std::string at =
        " (" + std::to_string(v) + ", " + std::to_string(u) + ")";
    if (v < 0 || v >= instance.num_events || u < 0 ||
        u >= instance.num_users) {
      fail("pair-range:" + at);
      continue;
    }
    if (!instance.HasBid(u, v)) fail("non-bid: user did not bid" + at);
    events_of[static_cast<size_t>(u)].push_back(v);
    ++event_load[static_cast<size_t>(v)];
    utility += instance.PairWeight(v, u);
  }
  for (int32_t u = 0; u < instance.num_users; ++u) {
    auto& events = events_of[static_cast<size_t>(u)];
    if (events.empty()) continue;
    std::sort(events.begin(), events.end());
    for (size_t k = 1; k < events.size(); ++k) {
      if (events[k] == events[k - 1]) {
        fail("duplicate-pair: (" + std::to_string(events[k]) + ", " +
             std::to_string(u) + ")");
      }
    }
    if (static_cast<int64_t>(events.size()) >
        instance.user_capacity[static_cast<size_t>(u)]) {
      fail("user-capacity: user " + std::to_string(u) + " holds " +
           std::to_string(events.size()) + " events, c_u = " +
           std::to_string(instance.user_capacity[static_cast<size_t>(u)]));
    }
    for (size_t a = 0; a < events.size(); ++a) {
      for (size_t b = a + 1; b < events.size(); ++b) {
        if (events[a] != events[b] && instance.Conflicts(events[a], events[b])) {
          fail("conflict: user " + std::to_string(u) + " holds events " +
               std::to_string(events[a]) + " and " + std::to_string(events[b]));
        }
      }
    }
  }
  for (int32_t v = 0; v < instance.num_events; ++v) {
    if (event_load[static_cast<size_t>(v)] >
        instance.event_capacity[static_cast<size_t>(v)]) {
      fail("event-capacity: event " + std::to_string(v) + " holds " +
           std::to_string(event_load[static_cast<size_t>(v)]) +
           " users, c_v = " +
           std::to_string(instance.event_capacity[static_cast<size_t>(v)]));
    }
  }
  if (!(RelDiff(claims.utility, utility) <= kUtilityRelTol)) {
    fail("utility-mismatch: library " + Num(claims.utility) +
         ", recomputed " + Num(utility));
  }
  if (!std::isnan(claims.kernel_utility) &&
      !(RelDiff(claims.kernel_utility, utility) <= kUtilityRelTol)) {
    fail("kernel-utility-mismatch: library " + Num(claims.kernel_utility) +
         ", recomputed " + Num(utility));
  }
  if (!std::isnan(claims.upper_bound) &&
      utility > claims.upper_bound * (1.0 + kUtilityRelTol)) {
    fail("above-upper-bound: utility " + Num(utility) +
         " exceeds the certified LP bound " + Num(claims.upper_bound));
  }
  if (recomputed_utility != nullptr) *recomputed_utility = utility;
  return failures;
}

std::vector<std::string> CheckLpCertificate(const CheckInstance& instance,
                                            const LpCertificate& lp) {
  std::vector<std::string> failures;
  auto fail = [&](const std::string& what) {
    if (failures.size() < 8) failures.push_back(what);
  };
  const auto columns = static_cast<int64_t>(lp.weight.size());
  if (static_cast<int64_t>(lp.x.size()) != columns ||
      static_cast<int64_t>(lp.col_user.size()) != columns ||
      static_cast<int64_t>(lp.col_begin.size()) != columns + 1) {
    fail("catalog-column: array sizes disagree");
    return failures;
  }
  const auto nu = static_cast<size_t>(instance.num_users);
  const auto nv = static_cast<size_t>(instance.num_events);
  if (lp.event_duals.size() != nv) {
    fail("lp-duals: " + std::to_string(lp.event_duals.size()) +
         " event duals for " + std::to_string(nv) + " events");
    return failures;
  }
  std::vector<double> user_row(nu, 0.0);
  std::vector<double> event_row(nv, 0.0);
  std::vector<double> best_reduced(nu, 0.0);  // max(0, max_S w − Σ μ)
  double wx = 0.0;
  for (int64_t j = 0; j < columns; ++j) {
    const int32_t u = lp.col_user[static_cast<size_t>(j)];
    if (u < 0 || u >= instance.num_users) {
      fail("catalog-column: column " + std::to_string(j) + " owner out of range");
      continue;
    }
    double w = 0.0;
    double mu_sum = 0.0;
    const double xj = lp.x[static_cast<size_t>(j)];
    for (int64_t e = lp.col_begin[static_cast<size_t>(j)];
         e < lp.col_begin[static_cast<size_t>(j) + 1]; ++e) {
      const int32_t v = lp.pool[static_cast<size_t>(e)];
      if (v < 0 || v >= instance.num_events || !instance.HasBid(u, v)) {
        fail("catalog-column: column " + std::to_string(j) +
             " holds a non-bid event " + std::to_string(v));
        break;
      }
      w += instance.PairWeight(v, u);
      event_row[static_cast<size_t>(v)] += xj;
      mu_sum += lp.event_duals[static_cast<size_t>(v)];
    }
    const double reported = lp.weight[static_cast<size_t>(j)];
    if (!(RelDiff(reported, w) <= 1e-12)) {
      fail("catalog-weight: column " + std::to_string(j) + " weight " +
           Num(reported) + ", recomputed " + Num(w));
    }
    if (!(xj >= -1e-12 && xj <= 1.0 + 1e-9)) {
      fail("lp-x-bounds: x[" + std::to_string(j) + "] = " + Num(xj));
    }
    user_row[static_cast<size_t>(u)] += xj;
    wx += reported * xj;
    best_reduced[static_cast<size_t>(u)] =
        std::max(best_reduced[static_cast<size_t>(u)], reported - mu_sum);
  }
  for (size_t u = 0; u < nu; ++u) {
    if (!(user_row[u] <= 1.0 + 1e-9)) {
      fail("lp-user-row: user " + std::to_string(u) + " sums to " +
           Num(user_row[u]));
    }
  }
  for (size_t v = 0; v < nv; ++v) {
    const double cap = instance.event_capacity[v];
    if (!(event_row[v] <= cap + 1e-9 * std::max(1.0, cap))) {
      fail("lp-event-row: event " + std::to_string(v) + " sums to " +
           Num(event_row[v]) + " > c_v = " + Num(cap));
    }
  }
  if (!(RelDiff(wx, lp.objective) <= 1e-9)) {
    fail("lp-objective: sum w*x = " + Num(wx) + ", reported " +
         Num(lp.objective));
  }
  double lagrangian = 0.0;
  for (size_t v = 0; v < nv; ++v) {
    const double mu = lp.event_duals[v];
    if (!(mu >= 0.0)) {
      fail("lp-dual-sign: mu[" + std::to_string(v) + "] = " + Num(mu));
    }
    lagrangian += instance.event_capacity[v] * mu;
  }
  for (size_t u = 0; u < nu; ++u) lagrangian += best_reduced[u];
  if (!(RelDiff(lagrangian, lp.upper_bound) <= 1e-9)) {
    fail("lp-dual-bound: L(mu) = " + Num(lagrangian) + ", reported bound " +
         Num(lp.upper_bound));
  }
  return failures;
}

std::vector<std::string> CheckServiceLog(const ServiceLog& log,
                                         int64_t accepted) {
  std::vector<std::string> failures;
  const auto epochs = static_cast<int64_t>(log.epochs.size());
  for (int64_t k = 0; k < epochs; ++k) {
    const EpochEntry& e = log.epochs[static_cast<size_t>(k)];
    if (e.epoch != k || e.version != k + 2) {
      failures.push_back("versions: entry " + std::to_string(k) + " is epoch " +
                         std::to_string(e.epoch) + " publishing version " +
                         std::to_string(e.version) + " (expected epoch " +
                         std::to_string(k) + ", version " +
                         std::to_string(k + 2) + ")");
      break;
    }
  }
  if (log.final_version != epochs + 1) {
    failures.push_back("versions: final snapshot is version " +
                       std::to_string(log.final_version) + " after " +
                       std::to_string(epochs) + " epochs");
  }
  int64_t batched = 0;
  for (const EpochEntry& e : log.epochs) batched += e.batch_size;
  if (batched != accepted || log.applied != accepted || log.pending != 0) {
    failures.push_back("exactly-once: " + std::to_string(accepted) +
                       " accepted, " + std::to_string(batched) +
                       " in batches, " + std::to_string(log.applied) +
                       " applied, " + std::to_string(log.pending) +
                       " pending");
  }
  return failures;
}

std::vector<std::string> CheckServedState(const CheckInstance& tracked,
                                          const CheckInstance& served) {
  std::vector<std::string> failures;
  auto fail = [&](const std::string& what) {
    if (failures.size() < 8) failures.push_back("served-state: " + what);
  };
  if (served.event_capacity.size() != tracked.event_capacity.size() ||
      served.user_capacity.size() != tracked.user_capacity.size() ||
      served.bids.size() != tracked.bids.size()) {
    fail("the served instance has other dimensions");
    return failures;
  }
  for (size_t v = 0; v < tracked.event_capacity.size(); ++v) {
    if (served.event_capacity[v] != tracked.event_capacity[v]) {
      fail("event " + std::to_string(v) + " capacity " +
           std::to_string(served.event_capacity[v]) + ", tracked " +
           std::to_string(tracked.event_capacity[v]));
    }
  }
  for (size_t u = 0; u < tracked.bids.size(); ++u) {
    if (served.user_capacity[u] != tracked.user_capacity[u] ||
        served.bids[u] != tracked.bids[u]) {
      fail("user " + std::to_string(u) + " registration differs");
    }
  }
  return failures;
}

std::vector<std::string> CheckReaderVersions(std::span<const int64_t> seen,
                                             int64_t final_version) {
  for (size_t k = 1; k < seen.size(); ++k) {
    if (seen[k] <= seen[k - 1]) {
      return {"reader-versions: version " + std::to_string(seen[k]) +
              " seen after " + std::to_string(seen[k - 1])};
    }
  }
  if (seen.empty() || seen.back() != final_version) {
    return {"reader-versions: the reader never saw the final version " +
            std::to_string(final_version)};
  }
  return {};
}

std::vector<std::string> CheckSameBytes(const std::string& tag,
                                        const std::string& what,
                                        std::string_view expected,
                                        std::string_view actual) {
  if (expected == actual) return {};
  size_t at = 0;
  while (at < expected.size() && at < actual.size() &&
         expected[at] == actual[at]) {
    ++at;
  }
  return {tag + ": " + what + " differ from byte " + std::to_string(at) +
          " (" + std::to_string(expected.size()) + " against " +
          std::to_string(actual.size()) + " bytes)"};
}

}  // namespace e2ebench
