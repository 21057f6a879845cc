// Deterministic, fast pseudo-random number generation for simulation.
//
// The Monte Carlo engine needs (a) reproducible streams given a seed, (b) cheap
// independent sub-streams for parallel trials, and (c) exact sampling without
// replacement for attack-target selection. std::mt19937 is avoided because its
// seeding is easy to get wrong and its state is bulky for per-trial forking;
// xoshiro256** with splitmix64 seeding is the standard replacement.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace sos::common {

/// splitmix64 step; used for seed expansion and as a cheap standalone mixer.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Reusable scratch for Rng::sample_without_replacement_into. Holding one of
/// these per thread (or per workspace) makes repeated sampling allocation-free
/// in steady state: each buffer grows to the largest draw seen and is then
/// reused verbatim. Each draw's structure is bounded by its count k, so a
/// scratch holds O(max k) bytes whatever the population: the dense pool at
/// most 24·k (population ≤ 3·k), the stamp array at most 256·k
/// (population ≤ 64·k) and the hash set 48·k to 96·k (4·k to 8·k slots).
struct SampleScratch {
  std::vector<std::uint64_t> pool;   // dense draws: partial Fisher-Yates pool
  std::vector<std::uint32_t> stamp;  // population ≤ 64·k: stamp[v] == epoch
  std::uint32_t epoch = 0;           //   means "v drawn this call"
  // Population > 64·k: an epoch-stamped open-addressing set sized to k, so
  // a sparse draw from a huge population never costs 4 bytes per element.
  std::vector<std::uint64_t> set_key;
  std::vector<std::uint32_t> set_stamp;
  std::uint32_t set_epoch = 0;

  /// Bytes held by the buffers (their capacity).
  std::size_t footprint_bytes() const noexcept;
};

/// Stateless avalanche mix of a single value (for hashing ids into the ring).
std::uint64_t mix64(std::uint64_t value) noexcept;

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator so it can be
/// used with <random> distributions, though the members below are preferred.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state via splitmix64 so that nearby seeds give
  /// unrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept;

  /// True with probability p (p clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Forks an independent generator: consumes one value from this stream and
  /// expands it. Used to hand each Monte Carlo trial its own stream.
  Rng fork() noexcept;

  /// k distinct values drawn uniformly from [0, population). Dense draws
  /// (3k >= population) run a partial Fisher-Yates over an O(population)
  /// index pool. Sparser draws run Robert Floyd's algorithm in O(k) expected
  /// time, recording membership in a direct stamp array while
  /// population <= 64·k and in an O(k) hash set above that, so no structure
  /// costs more than O(k) memory. Floyd's draws never depend on the
  /// structure, so the switch changes no drawn value. Requires k <= population.
  std::vector<std::uint64_t> sample_without_replacement(std::uint64_t population,
                                                        std::uint64_t k);

  /// In-place variant: overwrites `dest` with the k draws, reusing its
  /// capacity and `scratch`'s buffers (grown to O(k) bytes, as above), so
  /// steady-state calls never touch the heap. Consumes exactly the same
  /// stream (and produces exactly the same draws) as
  /// sample_without_replacement for a given generator state.
  void sample_without_replacement_into(std::uint64_t population,
                                       std::uint64_t k,
                                       std::vector<std::uint64_t>& dest,
                                       SampleScratch& scratch);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Uniformly chosen element index; requires non-empty size.
  std::size_t pick_index(std::size_t size) noexcept {
    return static_cast<std::size_t>(next_below(size));
  }

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace sos::common
