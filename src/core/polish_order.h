#ifndef IGEPA_CORE_POLISH_ORDER_H_
#define IGEPA_CORE_POLISH_ORDER_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

namespace igepa {
namespace core {

namespace polish_order_detail {

/// Key whose ascending unsigned order is the descending order of `w`. The
/// IEEE image of a non-negative double ascends with its value once the sign
/// bit is set; a negative double's image ascends once every bit is flipped.
/// Complementing that image reverses the order.
inline uint64_t DescendingKey(double w) {
  w += 0.0;  // -0.0 + 0.0 == +0.0: both zeros get one key
  uint64_t bits;
  std::memcpy(&bits, &w, sizeof(bits));
  constexpr uint64_t kSignBit = uint64_t{1} << 63;
  const uint64_t ascending = (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
  return ~ascending;
}

}  // namespace polish_order_detail

/// Stably sorts `ids` by descending `weight_of(id)`: heavier ids first, and
/// ids of equal weight (0.0 and -0.0 count as equal) keep their input order.
/// Weights must not be NaN.
///
/// This is the greedy-polish order of the structured dual and of
/// ShardedSolve. Both build their column list user-major, i.e. already in
/// (owner, column) order, so the stable result is exactly the permutation of
/// a (weight desc, owner, column) comparison sort, without the comparisons:
/// an LSD radix sort over the order-preserving 64-bit image of each weight,
/// one 8-bit digit per pass, skipping every digit that all keys share. Time
/// is linear in the id count; the only scratch is one copy of `ids`.
template <typename WeightOf>
void SortByWeightDescending(std::vector<int32_t>* ids, WeightOf weight_of) {
  constexpr int kDigitBits = 8;
  constexpr int kDigits = 64 / kDigitBits;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  const size_t n = ids->size();
  if (n < 2) return;
  std::array<std::array<size_t, kDigitMask + 1>, kDigits> count{};
  for (const int32_t id : *ids) {
    const uint64_t key = polish_order_detail::DescendingKey(weight_of(id));
    for (int d = 0; d < kDigits; ++d) {
      ++count[d][(key >> (d * kDigitBits)) & kDigitMask];
    }
  }
  // One stable counting-sort pass per digit, least significant first.
  std::vector<int32_t> out(n);
  for (int d = 0; d < kDigits; ++d) {
    const int shift = d * kDigitBits;
    std::array<size_t, kDigitMask + 1>& slot = count[d];
    const uint64_t first_key =
        polish_order_detail::DescendingKey(weight_of(ids->front()));
    if (slot[(first_key >> shift) & kDigitMask] == n) continue;
    size_t next = 0;
    for (size_t& c : slot) {
      const size_t bucket = c;
      c = next;
      next += bucket;
    }
    for (const int32_t id : *ids) {
      const uint64_t key = polish_order_detail::DescendingKey(weight_of(id));
      out[slot[(key >> shift) & kDigitMask]++] = id;
    }
    ids->swap(out);
  }
}

}  // namespace core
}  // namespace igepa

#endif  // IGEPA_CORE_POLISH_ORDER_H_
