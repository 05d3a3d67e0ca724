#include "io/instance_io.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "util/string_util.h"

namespace igepa {
namespace io {

using core::Arrangement;
using core::EventDef;
using core::EventId;
using core::Instance;
using core::UserDef;
using core::UserId;

namespace {

/// Largest count, id or capacity that the in-memory int32_t fields hold. A
/// file value above it is refused, never narrowed into a different number.
constexpr int64_t kMaxId = std::numeric_limits<int32_t>::max();

// Round-trip exact for every finite double (17 significant digits). The
// fixed-precision FormatDouble(x, 17) used by the legacy sparse format loses
// ulps below 0.1 — leading zeros consume its digit budget — which a
// dense_interest file, read back as an exact copy of a live instance, cannot
// afford.
std::string FormatDoubleExact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return std::string(buf);
}

}  // namespace

Status WriteInstanceCsv(const Instance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  return WriteInstanceCsv(instance, out, path, /*dense_interest=*/false);
}

Status WriteInstanceCsv(const Instance& instance, std::ostream& out,
                        const std::string& path, bool dense_interest) {
  // v1 has no kernel record and means "default kernel"; only a non-default
  // objective needs the v2 header, so default-kernel instances keep writing
  // byte-identical v1 files.
  const bool default_kernel =
      instance.kernel().id() == core::DefaultUtilityKernel()->id();
  // Every double in a dense_interest file must survive a write/read cycle
  // exactly, so it uses the round-trip-exact formatter throughout. Sparse
  // files keep the historical fixed-17 bytes.
  const auto fmt = [dense_interest](double value) {
    return dense_interest ? FormatDoubleExact(value) : FormatDouble(value, 17);
  };
  out << "igepa," << (default_kernel ? 1 : 2) << "," << instance.num_events()
      << "," << instance.num_users() << "," << fmt(instance.beta()) << "\n";
  if (!default_kernel) {
    out << "kernel," << instance.kernel().id() << "\n";
  }
  for (EventId v = 0; v < instance.num_events(); ++v) {
    out << "event," << v << "," << instance.event_capacity(v) << "\n";
  }
  for (UserId u = 0; u < instance.num_users(); ++u) {
    out << "user," << u << "," << instance.user_capacity(u) << ",";
    const auto& bids = instance.bids(u);
    for (size_t i = 0; i < bids.size(); ++i) {
      if (i > 0) out << ";";
      out << bids[i];
    }
    out << "\n";
  }
  for (EventId a = 0; a < instance.num_events(); ++a) {
    for (EventId b = a + 1; b < instance.num_events(); ++b) {
      if (instance.Conflicts(a, b)) {
        out << "conflict," << a << "," << b << "\n";
      }
    }
  }
  if (dense_interest) {
    // Every (event, user) pair, not just bids: a live instance can gain new
    // bid pairs through later re-registration deltas, and their SI must
    // round-trip exactly (see the header comment).
    for (EventId v = 0; v < instance.num_events(); ++v) {
      for (UserId u = 0; u < instance.num_users(); ++u) {
        out << "interest," << v << "," << u << ","
            << fmt(instance.Interest(v, u)) << "\n";
      }
    }
  } else {
    for (UserId u = 0; u < instance.num_users(); ++u) {
      for (EventId v : instance.bids(u)) {
        out << "interest," << v << "," << u << ","
            << fmt(instance.Interest(v, u)) << "\n";
      }
    }
  }
  for (UserId u = 0; u < instance.num_users(); ++u) {
    out << "degree," << u << "," << fmt(instance.Degree(u)) << "\n";
  }
  out.flush();
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Instance> ReadInstanceCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open for reading: " + path);
  }
  return ReadInstanceCsv(in, path);
}

Result<Instance> ReadInstanceCsv(std::istream& in, const std::string& path) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IOError("empty instance file: " + path);
  }
  auto header = Split(Trim(line), ',');
  if (header.size() != 5 || header[0] != "igepa" ||
      (header[1] != "1" && header[1] != "2")) {
    return Status::InvalidArgument("bad instance header in " + path);
  }
  const bool v2 = header[1] == "2";
  int64_t nv = 0, nu = 0;
  double beta = 0.0;
  if (!ParseInt(header[2], &nv) || !ParseInt(header[3], &nu) ||
      !ParseDouble(header[4], &beta) || nv < 0 || nu < 0 || nv > kMaxId ||
      nu > kMaxId) {
    return Status::InvalidArgument(path + ":1: bad instance header fields");
  }

  std::vector<EventDef> events(static_cast<size_t>(nv));
  std::vector<UserDef> users(static_cast<size_t>(nu));
  auto conflicts = std::make_shared<conflict::MatrixConflict>(
      static_cast<conflict::EventId>(nv));
  auto interest = std::make_shared<interest::TableInterest>(
      static_cast<int32_t>(nv), static_cast<int32_t>(nu));
  std::vector<double> degrees(static_cast<size_t>(nu), 0.0);
  std::shared_ptr<const core::UtilityKernel> kernel;

  int64_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    const auto fields = Split(Trim(line), ',');
    if (fields.empty() || fields[0].empty()) continue;
    const std::string& kind = fields[0];
    auto bad = [&](const std::string& why) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": " + why);
    };
    if (kind == "event") {
      int64_t id = 0, cap = 0;
      if (fields.size() != 3 || !ParseInt(fields[1], &id) ||
          !ParseInt(fields[2], &cap) || id < 0 || id >= nv || cap < 0 ||
          cap > kMaxId) {
        return bad("malformed event line");
      }
      events[static_cast<size_t>(id)].capacity = static_cast<int32_t>(cap);
    } else if (kind == "user") {
      int64_t id = 0, cap = 0;
      if (fields.size() != 4 || !ParseInt(fields[1], &id) ||
          !ParseInt(fields[2], &cap) || id < 0 || id >= nu || cap < 0 ||
          cap > kMaxId) {
        return bad("malformed user line");
      }
      auto& def = users[static_cast<size_t>(id)];
      def.capacity = static_cast<int32_t>(cap);
      if (!fields[3].empty()) {
        for (const auto& tok : Split(fields[3], ';')) {
          int64_t bid = 0;
          if (!ParseInt(tok, &bid) || bid < 0 || bid >= nv) {
            return bad("malformed bid list");
          }
          def.bids.push_back(static_cast<EventId>(bid));
        }
      }
    } else if (kind == "conflict") {
      int64_t a = 0, b = 0;
      if (fields.size() != 3 || !ParseInt(fields[1], &a) ||
          !ParseInt(fields[2], &b) || a < 0 || a >= nv || b < 0 || b >= nv) {
        return bad("malformed conflict line");
      }
      conflicts->Set(static_cast<conflict::EventId>(a),
                     static_cast<conflict::EventId>(b), true);
    } else if (kind == "interest") {
      int64_t v = 0, u = 0;
      double value = 0.0;
      if (fields.size() != 4 || !ParseInt(fields[1], &v) ||
          !ParseInt(fields[2], &u) || !ParseDouble(fields[3], &value) ||
          v < 0 || v >= nv || u < 0 || u >= nu) {
        return bad("malformed interest line");
      }
      interest->Set(static_cast<int32_t>(v), static_cast<int32_t>(u), value);
    } else if (kind == "degree") {
      int64_t u = 0;
      double value = 0.0;
      if (fields.size() != 3 || !ParseInt(fields[1], &u) ||
          !ParseDouble(fields[2], &value) || u < 0 || u >= nu) {
        return bad("malformed degree line");
      }
      degrees[static_cast<size_t>(u)] = value;
    } else if (kind == "kernel" && v2) {
      if (fields.size() != 2 || kernel != nullptr) {
        return bad("malformed or duplicate kernel line");
      }
      auto resolved = core::MakeUtilityKernel(fields[1]);
      if (!resolved.ok()) return bad(resolved.status().message());
      kernel = std::move(resolved).value();
    } else {
      return bad("unknown record kind '" + kind + "'");
    }
  }

  auto interaction =
      std::make_shared<graph::TableInteractionModel>(std::move(degrees));
  Instance instance(std::move(events), std::move(users), std::move(conflicts),
                    std::move(interest), std::move(interaction), beta);
  instance.set_kernel(std::move(kernel));  // nullptr keeps the default
  IGEPA_RETURN_IF_ERROR(instance.Validate());
  return instance;
}

Status WriteArrangementCsv(const Arrangement& arrangement,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  out << "arrangement," << arrangement.num_events() << ","
      << arrangement.num_users() << "\n";
  for (const auto& [v, u] : arrangement.pairs()) {
    out << "pair," << v << "," << u << "\n";
  }
  out.flush();
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Arrangement> ReadArrangementCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open for reading: " + path);
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IOError("empty arrangement file: " + path);
  }
  const auto header = Split(Trim(line), ',');
  int64_t nv = 0, nu = 0;
  if (header.size() != 3 || header[0] != "arrangement" ||
      !ParseInt(header[1], &nv) || !ParseInt(header[2], &nu) || nv < 0 ||
      nu < 0 || nv > kMaxId || nu > kMaxId) {
    return Status::InvalidArgument(path + ":1: bad arrangement header");
  }
  Arrangement arrangement(static_cast<int32_t>(nv), static_cast<int32_t>(nu));
  int64_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    const auto fields = Split(Trim(line), ',');
    if (fields.empty() || fields[0].empty()) continue;
    int64_t v = 0, u = 0;
    if (fields.size() != 3 || fields[0] != "pair" ||
        !ParseInt(fields[1], &v) || !ParseInt(fields[2], &u) || v < 0 ||
        v >= nv || u < 0 || u >= nu) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": malformed pair line");
    }
    IGEPA_RETURN_IF_ERROR(arrangement.Add(static_cast<EventId>(v),
                                          static_cast<UserId>(u)));
  }
  return arrangement;
}

}  // namespace io
}  // namespace igepa
