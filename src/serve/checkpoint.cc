#include "serve/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>

#include "conflict/conflict.h"
#include "graph/interaction_model.h"
#include "interest/interest.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace igepa {
namespace serve {
namespace {

constexpr char kSnapshotFile[] = "snapshot.igs";
constexpr char kTmpFile[] = "snapshot.tmp";
constexpr char kWalFile[] = "wal.log";
constexpr char kMagic[] = "igepa-snapshot";
constexpr std::string_view kVersion = "2";
/// `crc,<8 hex digits>\n`.
constexpr size_t kTrailerSize = 13;

static_assert(std::endian::native == std::endian::little,
              "the snapshot's raw interest section is pinned little-endian");

// Doubles round-trip as raw IEEE-754 bit patterns: decimal formatting is a
// determinism hazard (FormatDouble is fixed-precision, not shortest-exact),
// and a recovered engine must reproduce solves bit for bit.
uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Appends the low `digits` nibbles of `value` as lowercase hex.
void AppendHex(std::string* out, uint64_t value, int digits = 16) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buffer[16];
  for (int i = digits - 1; i >= 0; --i) {
    buffer[i] = kDigits[value & 0xf];
    value >>= 4;
  }
  out->append(buffer, static_cast<size_t>(digits));
}

void AppendInt(std::string* out, int64_t value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

bool ParseHexU64(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t value = 0;
  for (const char c : text) {
    int digit = 0;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

/// Strict decimal: an optional '-' and digits, nothing else, no overflow.
bool ParseDecimal(std::string_view text, int64_t* out) {
  const char* end = text.data() + text.size();
  const auto result = std::from_chars(text.data(), end, *out);
  return !text.empty() && result.ec == std::errc() && result.ptr == end;
}

/// Vector items: doubles as hex bit patterns, integers in decimal.
void AppendItem(std::string* out, double value) {
  AppendHex(out, DoubleBits(value));
}

template <typename Int>
void AppendItem(std::string* out, Int value) {
  AppendInt(out, static_cast<int64_t>(value));
}

bool ParseItem(std::string_view text, double* out) {
  uint64_t bits = 0;
  if (!ParseHexU64(text, &bits)) return false;
  *out = BitsToDouble(bits);
  return true;
}

/// Decimal that also fits the field's type.
template <typename Int>
bool ParseItem(std::string_view text, Int* out) {
  int64_t value = 0;
  if (!ParseDecimal(text, &value) ||
      value < static_cast<int64_t>(std::numeric_limits<Int>::min()) ||
      value > static_cast<int64_t>(std::numeric_limits<Int>::max())) {
    return false;
  }
  *out = static_cast<Int>(value);
  return true;
}

/// Appends a `<name>,<count>,<item;item;...>` record.
template <typename T>
void AppendVector(std::string* out, std::string_view name,
                  const std::vector<T>& values) {
  out->append(name);
  out->push_back(',');
  AppendInt(out, static_cast<int64_t>(values.size()));
  out->push_back(',');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(';');
    AppendItem(out, values[i]);
  }
  out->push_back('\n');
}

/// Appends the instance records (docs/FORMATS.md §7): dimensions, β and the
/// kernel; capacities; bids as CSR; conflict pairs; exact degrees with
/// graph-edge drift folded in; SI as its base model plus the sorted
/// interest-drift overrides.
void AppendInstance(std::string* out, const core::Instance& instance) {
  const int32_t nv = instance.num_events();
  const int32_t nu = instance.num_users();
  out->append("instance,");
  AppendInt(out, nv);
  out->push_back(',');
  AppendInt(out, nu);
  out->push_back(',');
  AppendHex(out, DoubleBits(instance.beta()));
  out->push_back(',');
  out->append(instance.kernel().id());
  out->push_back('\n');

  std::vector<int32_t> ints;
  for (core::EventId v = 0; v < nv; ++v) {
    ints.push_back(instance.event_capacity(v));
  }
  AppendVector(out, "event_capacity", ints);
  ints.clear();
  for (core::UserId u = 0; u < nu; ++u) {
    ints.push_back(instance.user_capacity(u));
  }
  AppendVector(out, "user_capacity", ints);

  std::vector<int64_t> offsets{0};
  ints.clear();
  for (core::UserId u = 0; u < nu; ++u) {
    const auto& bids = instance.bids(u);
    ints.insert(ints.end(), bids.begin(), bids.end());
    offsets.push_back(static_cast<int64_t>(ints.size()));
  }
  AppendVector(out, "bid_offsets", offsets);
  AppendVector(out, "bid_events", ints);

  ints.clear();
  for (core::EventId a = 0; a < nv; ++a) {
    for (core::EventId b = a + 1; b < nv; ++b) {
      if (instance.Conflicts(a, b)) {
        ints.push_back(a);
        ints.push_back(b);
      }
    }
  }
  AppendVector(out, "conflicts", ints);

  std::vector<double> doubles;
  for (core::UserId u = 0; u < nu; ++u) doubles.push_back(instance.Degree(u));
  AppendVector(out, "degree", doubles);

  const interest::InterestFn& base = instance.interest_fn();
  if (const auto* hash =
          dynamic_cast<const interest::HashUniformInterest*>(&base)) {
    out->append("interest,hash,");
    AppendHex(out, hash->seed());
    out->push_back('\n');
  } else {
    // No compact form: the base table itself, event-major, as raw
    // little-endian doubles behind a byte-length line.
    const size_t bytes = static_cast<size_t>(nv) * static_cast<size_t>(nu) *
                         sizeof(double);
    out->append("interest,table,");
    AppendInt(out, static_cast<int64_t>(bytes));
    out->push_back('\n');
    size_t at = out->size();
    out->resize(at + bytes);
    for (core::EventId v = 0; v < nv; ++v) {
      for (core::UserId u = 0; u < nu; ++u) {
        const double value = base.Interest(v, u);
        std::memcpy(out->data() + at, &value, sizeof(value));
        at += sizeof(value);
      }
    }
    out->push_back('\n');
  }

  std::vector<int32_t> override_events;
  std::vector<int32_t> override_users;
  doubles.clear();
  for (const auto& o : instance.InterestOverrides()) {
    override_events.push_back(o.event);
    override_users.push_back(o.user);
    doubles.push_back(o.value);
  }
  AppendVector(out, "override_event", override_events);
  AppendVector(out, "override_user", override_users);
  AppendVector(out, "override_value", doubles);
}

/// Reader over an in-memory snapshot body: newline-terminated records, plus
/// raw byte ranges for the interest-table section, which may contain any
/// byte.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  /// The next newline-terminated line, without its newline.
  bool NextLine(std::string_view* line) {
    const size_t nl = data_.find('\n', pos_);
    if (nl == std::string_view::npos) return false;
    *line = data_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }

  bool TakeBytes(size_t count, std::string_view* bytes) {
    if (count > remaining()) return false;
    *bytes = data_.substr(pos_, count);
    pos_ += count;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

Status MalformedError(const std::string& path, const std::string& why) {
  return Status::IOError("malformed snapshot " + path + ": " + why);
}

/// Reads a `<name>,<count>,<item;item;...>` record. The count is checked
/// against the payload before anything is allocated: n items take at least
/// 2n − 1 bytes (one per item plus the separators).
template <typename T>
Status ParseVector(Cursor* cursor, std::string_view name, std::vector<T>* out,
                   const std::string& path) {
  const std::string label(name);
  std::string_view line;
  if (!cursor->NextLine(&line)) {
    return MalformedError(path, "missing " + label + " record");
  }
  const size_t c1 = line.find(',');
  const size_t c2 =
      c1 == std::string_view::npos ? c1 : line.find(',', c1 + 1);
  int64_t count = 0;
  if (c2 == std::string_view::npos || line.substr(0, c1) != name ||
      !ParseDecimal(line.substr(c1 + 1, c2 - c1 - 1), &count) || count < 0) {
    return MalformedError(path, "bad " + label + " record");
  }
  const std::string_view payload = line.substr(c2 + 1);
  if (count == 0 ? !payload.empty()
                 : static_cast<uint64_t>(count) > (payload.size() + 1) / 2) {
    return MalformedError(path, label + " count does not match its payload");
  }
  out->clear();
  out->reserve(static_cast<size_t>(count));
  size_t pos = 0;
  for (int64_t i = 0; i < count; ++i) {
    const size_t end =
        i + 1 < count ? payload.find(';', pos) : payload.size();
    if (end == std::string_view::npos) {
      return MalformedError(path, label + " count does not match its payload");
    }
    T value{};
    if (!ParseItem(payload.substr(pos, end - pos), &value)) {
      return MalformedError(path, "bad item in " + label);
    }
    out->push_back(value);
    pos = end + 1;
  }
  return Status::OK();
}

/// Reads the `interest` record: a HashUniformInterest seed, or the raw
/// |V|×|U| base table.
Result<std::shared_ptr<const interest::InterestFn>> ParseInterestBase(
    Cursor* cursor, int32_t nv, int32_t nu, const std::string& path) {
  std::string_view line;
  if (!cursor->NextLine(&line)) {
    return MalformedError(path, "missing interest record");
  }
  const auto fields = Split(line, ',');
  if (fields.size() != 3 || fields[0] != "interest") {
    return MalformedError(path, "bad interest record");
  }
  if (fields[1] == "hash") {
    uint64_t seed = 0;
    if (!ParseHexU64(fields[2], &seed)) {
      return MalformedError(path, "bad interest seed");
    }
    return std::shared_ptr<const interest::InterestFn>(
        std::make_shared<interest::HashUniformInterest>(nv, nu, seed));
  }
  int64_t bytes = 0;
  if (fields[1] != "table" || !ParseDecimal(fields[2], &bytes)) {
    return MalformedError(path, "bad interest record");
  }
  // Both dimensions fit in 31 bits, so the cell count cannot overflow; the
  // byte count is compared by division so that it cannot either.
  const uint64_t cells = static_cast<uint64_t>(nv) * static_cast<uint64_t>(nu);
  if (cells > cursor->remaining() / sizeof(double) ||
      bytes != static_cast<int64_t>(cells * sizeof(double))) {
    return MalformedError(path, "interest table length does not match "
                                "|V|x|U| or the bytes that remain");
  }
  std::string_view raw;
  std::string_view terminator;
  if (!cursor->TakeBytes(static_cast<size_t>(bytes), &raw) ||
      !cursor->NextLine(&terminator) || !terminator.empty()) {
    return MalformedError(path, "unterminated interest table");
  }
  auto table = std::make_shared<interest::TableInterest>(nv, nu);
  const char* at = raw.data();
  for (int32_t v = 0; v < nv; ++v) {
    for (int32_t u = 0; u < nu; ++u) {
      double value = 0.0;
      std::memcpy(&value, at, sizeof(value));
      at += sizeof(value);
      // Set clamps, which would silently rewrite an out-of-range value.
      if (!(value >= 0.0 && value <= 1.0)) {
        return MalformedError(path, "interest table value outside [0,1]");
      }
      table->Set(v, u, value);
    }
  }
  return std::shared_ptr<const interest::InterestFn>(std::move(table));
}

/// Rebuilds the instance from the records AppendInstance writes. Every count
/// is checked before the allocation it sizes, and any inconsistency —
/// including one core::Instance::Validate finds — is a malformed snapshot.
Result<core::Instance> ParseInstance(Cursor* cursor, const std::string& path) {
  std::string_view line;
  if (!cursor->NextLine(&line)) {
    return MalformedError(path, "missing instance record");
  }
  const auto fields = Split(line, ',');
  int64_t nv = 0;
  int64_t nu = 0;
  uint64_t beta_bits = 0;
  constexpr int64_t kMaxId = std::numeric_limits<int32_t>::max();
  if (fields.size() != 5 || fields[0] != "instance" ||
      !ParseDecimal(fields[1], &nv) || !ParseDecimal(fields[2], &nu) ||
      nv < 0 || nv > kMaxId || nu < 0 || nu > kMaxId ||
      !ParseHexU64(fields[3], &beta_bits)) {
    return MalformedError(path, "bad instance record");
  }
  auto kernel = core::MakeUtilityKernel(fields[4]);
  if (!kernel.ok()) return MalformedError(path, kernel.status().message());

  std::vector<int32_t> event_capacity;
  std::vector<int32_t> user_capacity;
  std::vector<int64_t> bid_offsets;
  std::vector<int32_t> bid_events;
  std::vector<int32_t> conflicts;
  std::vector<double> degree;
  IGEPA_RETURN_IF_ERROR(
      ParseVector(cursor, "event_capacity", &event_capacity, path));
  IGEPA_RETURN_IF_ERROR(
      ParseVector(cursor, "user_capacity", &user_capacity, path));
  IGEPA_RETURN_IF_ERROR(
      ParseVector(cursor, "bid_offsets", &bid_offsets, path));
  IGEPA_RETURN_IF_ERROR(
      ParseVector(cursor, "bid_events", &bid_events, path));
  IGEPA_RETURN_IF_ERROR(ParseVector(cursor, "conflicts", &conflicts, path));
  IGEPA_RETURN_IF_ERROR(ParseVector(cursor, "degree", &degree, path));
  if (static_cast<int64_t>(event_capacity.size()) != nv ||
      static_cast<int64_t>(user_capacity.size()) != nu ||
      static_cast<int64_t>(bid_offsets.size()) != nu + 1 ||
      static_cast<int64_t>(degree.size()) != nu) {
    return MalformedError(path, "instance records do not match |V| and |U|");
  }
  if (bid_offsets.front() != 0 ||
      bid_offsets.back() != static_cast<int64_t>(bid_events.size())) {
    return MalformedError(path, "bid offsets do not span the bid list");
  }
  for (size_t u = 0; u + 1 < bid_offsets.size(); ++u) {
    if (bid_offsets[u] > bid_offsets[u + 1]) {
      return MalformedError(path, "bid offsets decrease");
    }
  }
  if (conflicts.size() % 2 != 0) {
    return MalformedError(path, "odd conflict list");
  }
  for (size_t i = 0; i < conflicts.size(); i += 2) {
    if (conflicts[i] < 0 || conflicts[i] >= conflicts[i + 1] ||
        conflicts[i + 1] >= nv) {
      return MalformedError(path, "conflict pair out of range");
    }
  }

  IGEPA_ASSIGN_OR_RETURN(
      std::shared_ptr<const interest::InterestFn> interest,
      ParseInterestBase(cursor, static_cast<int32_t>(nv),
                        static_cast<int32_t>(nu), path));

  std::vector<int32_t> override_events;
  std::vector<int32_t> override_users;
  std::vector<double> override_values;
  IGEPA_RETURN_IF_ERROR(
      ParseVector(cursor, "override_event", &override_events, path));
  IGEPA_RETURN_IF_ERROR(
      ParseVector(cursor, "override_user", &override_users, path));
  IGEPA_RETURN_IF_ERROR(
      ParseVector(cursor, "override_value", &override_values, path));
  if (override_users.size() != override_events.size() ||
      override_values.size() != override_events.size()) {
    return MalformedError(path, "override records differ in length");
  }
  for (size_t i = 1; i < override_events.size(); ++i) {
    if (std::pair(override_events[i - 1], override_users[i - 1]) >=
        std::pair(override_events[i], override_users[i])) {
      return MalformedError(path, "overrides not sorted by (event, user)");
    }
  }

  std::vector<core::EventDef> events(static_cast<size_t>(nv));
  for (size_t v = 0; v < events.size(); ++v) {
    events[v].capacity = event_capacity[v];
  }
  std::vector<core::UserDef> users(static_cast<size_t>(nu));
  for (size_t u = 0; u < users.size(); ++u) {
    users[u].capacity = user_capacity[u];
    users[u].bids.assign(bid_events.begin() + bid_offsets[u],
                         bid_events.begin() + bid_offsets[u + 1]);
  }
  auto conflict_fn = std::make_shared<conflict::MatrixConflict>(
      static_cast<conflict::EventId>(nv));
  for (size_t i = 0; i < conflicts.size(); i += 2) {
    conflict_fn->Set(conflicts[i], conflicts[i + 1]);
  }
  core::Instance instance(
      std::move(events), std::move(users), std::move(conflict_fn),
      std::move(interest),
      std::make_shared<graph::TableInteractionModel>(std::move(degree)),
      BitsToDouble(beta_bits));
  instance.set_kernel(std::move(kernel).value());
  if (Status s = instance.Validate(); !s.ok()) {
    return MalformedError(path, s.message());
  }
  for (size_t i = 0; i < override_events.size(); ++i) {
    if (Status s = instance.UpdateInterest(override_events[i],
                                           override_users[i],
                                           override_values[i]);
        !s.ok()) {
      return MalformedError(path, s.message());
    }
  }
  return instance;
}

Status WriteFully(int fd, const void* data, size_t size,
                  const std::string& path) {
  const char* p = static_cast<const char*>(data);
  size_t remaining = size;
  while (remaining > 0) {
    const ssize_t n = ::write(fd, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write failed on " + path + ": " +
                             std::strerror(errno));
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FsyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open directory " + dir + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync failed on directory " + dir + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

std::string Checkpointer::SnapshotPath(const std::string& dir) {
  return dir + "/" + kSnapshotFile;
}

std::string Checkpointer::WalPath(const std::string& dir) {
  return dir + "/" + kWalFile;
}

Status Checkpointer::EnsureDirectory(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("empty durable directory path");
  }
  // Create each prefix in turn (mkdir -p): the durable dir is commonly a
  // fresh nested path under a test or CI workspace.
  for (size_t i = 1; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') continue;
    const std::string prefix = dir.substr(0, i);
    if (prefix.empty() || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("cannot create directory " + prefix + ": " +
                             std::strerror(errno));
    }
  }
  return Status::OK();
}

Status Checkpointer::Write(const std::string& dir,
                           const EngineSnapshot& snapshot) {
  if (!snapshot.instance.has_value()) {
    return Status::InvalidArgument("snapshot has no instance");
  }
  const std::string path = SnapshotPath(dir);

  std::string contents;
  contents.append(kMagic).append(",").append(kVersion).append(",");
  AppendInt(&contents, snapshot.next_epoch);
  contents.push_back(',');
  AppendInt(&contents, snapshot.next_version);
  contents.push_back(',');
  AppendInt(&contents, snapshot.deltas_applied);
  contents.append("\nrng");
  for (const uint64_t word : snapshot.rng_state) {
    contents.push_back(',');
    AppendHex(&contents, word);
  }
  contents.push_back('\n');
  AppendVector(&contents, "mu", snapshot.mu);
  AppendVector(&contents, "choice", snapshot.choice);
  AppendVector(&contents, "choice_value", snapshot.choice_value);
  AppendVector(&contents, "stale", snapshot.stale);
  AppendVector(&contents, "sampled_col", snapshot.sampled_col);
  AppendVector(&contents, "demand", snapshot.demand);
  AppendVector(&contents, "cutoff", snapshot.cutoff);
  contents.append("lp,");
  AppendInt(&contents, snapshot.lp_status);
  contents.push_back(',');
  AppendHex(&contents, DoubleBits(snapshot.lp_objective));
  contents.push_back(',');
  AppendHex(&contents, DoubleBits(snapshot.lp_upper_bound));
  contents.push_back(',');
  AppendInt(&contents, snapshot.lp_iterations);
  contents.push_back('\n');
  AppendVector(&contents, "x", snapshot.x);
  AppendVector(&contents, "duals", snapshot.duals);
  AppendInstance(&contents, *snapshot.instance);

  const uint32_t crc = Crc32(contents);
  contents.append("crc,");
  AppendHex(&contents, crc, 8);
  contents.push_back('\n');

  const std::string tmp_path = dir + "/" + kTmpFile;
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open " + tmp_path + ": " +
                           std::strerror(errno));
  }
  Status write_status = WriteFully(fd, contents.data(), contents.size(),
                                   tmp_path);
  if (write_status.ok() && ::fsync(fd) != 0) {
    write_status = Status::IOError("fsync failed on " + tmp_path + ": " +
                                   std::strerror(errno));
  }
  ::close(fd);
  if (!write_status.ok()) {
    ::unlink(tmp_path.c_str());
    return write_status;
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const Status s = Status::IOError("cannot rename " + tmp_path + " to " +
                                     path + ": " + std::strerror(errno));
    ::unlink(tmp_path.c_str());
    return s;
  }
  // The rename itself must be durable before the caller truncates the WAL,
  // or a crash could leave the old snapshot paired with an emptied log.
  return FsyncDirectory(dir);
}

Result<EngineSnapshot> Checkpointer::Load(const std::string& dir) {
  const std::string path = SnapshotPath(dir);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return Status::NotFound("no snapshot at " + path);
  }
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IOError("cannot size " + path);
  std::string contents(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(contents.data(), size)) {
    return Status::IOError("read failed on " + path);
  }

  // Split off and verify the trailing CRC line before trusting any field.
  // The trailer is located by position, not by search: the raw interest
  // section may contain the bytes "crc,".
  if (contents.size() < kTrailerSize) {
    return MalformedError(path, "missing CRC trailer");
  }
  const size_t body_size = contents.size() - kTrailerSize;
  if (contents.compare(body_size, 4, "crc,") != 0 || contents.back() != '\n' ||
      (body_size != 0 && contents[body_size - 1] != '\n')) {
    return MalformedError(path, "missing CRC trailer");
  }
  uint64_t stored_crc = 0;
  if (!ParseHexU64(std::string_view(contents).substr(body_size + 4, 8),
                   &stored_crc)) {
    return MalformedError(path, "bad CRC trailer");
  }
  const std::string_view body(contents.data(), body_size);
  if (Crc32(body) != static_cast<uint32_t>(stored_crc)) {
    return Status::IOError("snapshot CRC mismatch in " + path);
  }

  Cursor cursor(body);
  EngineSnapshot snapshot;

  std::string_view line;
  if (!cursor.NextLine(&line)) return MalformedError(path, "empty snapshot");
  auto fields = Split(line, ',');
  if (fields.size() < 2 || fields[0] != kMagic) {
    return MalformedError(path, "not a snapshot header");
  }
  if (fields[1] != kVersion) {
    return Status::IOError("snapshot " + path + " has format version " +
                           fields[1] + "; this build reads only version " +
                           std::string(kVersion));
  }
  if (fields.size() != 5 || !ParseDecimal(fields[2], &snapshot.next_epoch) ||
      !ParseDecimal(fields[3], &snapshot.next_version) ||
      !ParseDecimal(fields[4], &snapshot.deltas_applied) ||
      snapshot.next_epoch < 0 || snapshot.next_version < 1 ||
      snapshot.deltas_applied < 0) {
    return MalformedError(path, "bad header");
  }

  if (!cursor.NextLine(&line)) return MalformedError(path, "missing rng line");
  fields = Split(line, ',');
  if (fields.size() != 5 || fields[0] != "rng") {
    return MalformedError(path, "bad rng line");
  }
  for (size_t i = 0; i < 4; ++i) {
    if (!ParseHexU64(fields[i + 1], &snapshot.rng_state[i])) {
      return MalformedError(path, "bad rng word");
    }
  }

  IGEPA_RETURN_IF_ERROR(ParseVector(&cursor, "mu", &snapshot.mu, path));
  IGEPA_RETURN_IF_ERROR(
      ParseVector(&cursor, "choice", &snapshot.choice, path));
  IGEPA_RETURN_IF_ERROR(
      ParseVector(&cursor, "choice_value", &snapshot.choice_value, path));
  IGEPA_RETURN_IF_ERROR(
      ParseVector(&cursor, "stale", &snapshot.stale, path));
  IGEPA_RETURN_IF_ERROR(
      ParseVector(&cursor, "sampled_col", &snapshot.sampled_col, path));
  IGEPA_RETURN_IF_ERROR(
      ParseVector(&cursor, "demand", &snapshot.demand, path));
  IGEPA_RETURN_IF_ERROR(
      ParseVector(&cursor, "cutoff", &snapshot.cutoff, path));

  if (!cursor.NextLine(&line)) return MalformedError(path, "missing lp line");
  fields = Split(line, ',');
  uint64_t objective_bits = 0, upper_bits = 0;
  if (fields.size() != 5 || fields[0] != "lp" ||
      !ParseItem(fields[1], &snapshot.lp_status) ||
      !ParseHexU64(fields[2], &objective_bits) ||
      !ParseHexU64(fields[3], &upper_bits) ||
      !ParseDecimal(fields[4], &snapshot.lp_iterations)) {
    return MalformedError(path, "bad lp line");
  }
  snapshot.lp_objective = BitsToDouble(objective_bits);
  snapshot.lp_upper_bound = BitsToDouble(upper_bits);

  IGEPA_RETURN_IF_ERROR(ParseVector(&cursor, "x", &snapshot.x, path));
  IGEPA_RETURN_IF_ERROR(
      ParseVector(&cursor, "duals", &snapshot.duals, path));

  IGEPA_ASSIGN_OR_RETURN(core::Instance instance,
                         ParseInstance(&cursor, path));
  snapshot.instance.emplace(std::move(instance));

  if (cursor.remaining() != 0) {
    return MalformedError(path, "trailing bytes after the instance records");
  }
  return snapshot;
}

}  // namespace serve
}  // namespace igepa
