#include "common/rng.h"

#include <algorithm>
#include <cassert>

namespace sos::common {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t value) noexcept {
  std::uint64_t s = value;
  return splitmix64(s);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // All-zero state is the one forbidden state of xoshiro256**; splitmix64
  // cannot produce four consecutive zeros, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ull;
  }
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded sampling.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

Rng Rng::fork() noexcept { return Rng{next()}; }

std::vector<std::uint64_t> Rng::sample_without_replacement(
    std::uint64_t population, std::uint64_t k) {
  std::vector<std::uint64_t> out;
  SampleScratch scratch;
  sample_without_replacement_into(population, k, out, scratch);
  return out;
}

void Rng::sample_without_replacement_into(std::uint64_t population,
                                          std::uint64_t k,
                                          std::vector<std::uint64_t>& dest,
                                          SampleScratch& scratch) {
  assert(k <= population);
  dest.clear();
  dest.reserve(static_cast<std::size_t>(k));
  if (k == 0) return;
  // For dense draws a partial Fisher-Yates over an explicit index vector is
  // cheaper than set probing; use Floyd's algorithm only for sparse draws.
  if (k * 3 >= population) {
    auto& pool = scratch.pool;
    pool.resize(static_cast<std::size_t>(population));
    for (std::uint64_t i = 0; i < population; ++i)
      pool[static_cast<std::size_t>(i)] = i;
    for (std::uint64_t i = 0; i < k; ++i) {
      const std::uint64_t j = i + next_below(population - i);
      std::swap(pool[static_cast<std::size_t>(i)],
                pool[static_cast<std::size_t>(j)]);
      dest.push_back(pool[static_cast<std::size_t>(i)]);
    }
    return;
  }
  // Floyd's algorithm needs only membership-test + insert, so the backing
  // structure never changes which values are drawn; it is chosen to keep the
  // scratch O(k). A direct stamp array is cheapest while it stays within 64
  // slots per draw (population <= 64·k, written so 64·k cannot overflow);
  // beyond that an epoch-stamped open-addressing set sized to k takes over.
  constexpr std::uint64_t kStampSlotsPerDraw = 64;
  if ((population - 1) / kStampSlotsPerDraw >= k) {
    auto& keys = scratch.set_key;
    auto& stamps = scratch.set_stamp;
    std::size_t capacity = keys.size();  // power of two by construction
    if (capacity < k * 4) {
      capacity = 64;
      while (capacity < k * 4) capacity <<= 1;
      keys.assign(capacity, 0);
      stamps.assign(capacity, 0);
      scratch.set_epoch = 0;
    }
    if (++scratch.set_epoch == 0) {  // epoch wrapped: invalidate stale stamps
      std::fill(stamps.begin(), stamps.end(), 0);
      scratch.set_epoch = 1;
    }
    const std::uint32_t epoch = scratch.set_epoch;
    const std::size_t mask = capacity - 1;
    // Returns true if `value` was already drawn; inserts it otherwise.
    const auto contains_or_insert = [&](std::uint64_t value) {
      std::size_t slot = static_cast<std::size_t>(mix64(value)) & mask;
      for (;;) {
        if (stamps[slot] != epoch) {
          stamps[slot] = epoch;
          keys[slot] = value;
          return false;
        }
        if (keys[slot] == value) return true;
        slot = (slot + 1) & mask;
      }
    };
    for (std::uint64_t j = population - k; j < population; ++j) {
      const std::uint64_t t = next_below(j + 1);
      if (!contains_or_insert(t)) {
        dest.push_back(t);
      } else {
        contains_or_insert(j);  // j is never present yet (Floyd invariant)
        dest.push_back(j);
      }
    }
    return;
  }
  // Direct-indexed stamp array in place of a hash set: stamp[v] == epoch
  // means "v drawn this call". Only the k touched stamps are written, so
  // repeated calls are O(k) with zero clearing cost.
  auto& stamp = scratch.stamp;
  if (stamp.size() < static_cast<std::size_t>(population)) {
    stamp.assign(static_cast<std::size_t>(population), 0);
    scratch.epoch = 0;
  }
  if (++scratch.epoch == 0) {  // epoch wrapped: invalidate all stale stamps
    std::fill(stamp.begin(), stamp.end(), 0);
    scratch.epoch = 1;
  }
  const std::uint32_t epoch = scratch.epoch;
  for (std::uint64_t j = population - k; j < population; ++j) {
    const std::uint64_t t = next_below(j + 1);
    if (stamp[static_cast<std::size_t>(t)] != epoch) {
      stamp[static_cast<std::size_t>(t)] = epoch;
      dest.push_back(t);
    } else {
      stamp[static_cast<std::size_t>(j)] = epoch;
      dest.push_back(j);
    }
  }
}

std::size_t SampleScratch::footprint_bytes() const noexcept {
  return pool.capacity() * sizeof(std::uint64_t) +
         stamp.capacity() * sizeof(std::uint32_t) +
         set_key.capacity() * sizeof(std::uint64_t) +
         set_stamp.capacity() * sizeof(std::uint32_t);
}

}  // namespace sos::common
