/**
 * @file
 * Small arithmetic helpers shared across the library.
 */

#ifndef NNBATON_COMMON_UTIL_HPP
#define NNBATON_COMMON_UTIL_HPP

#include <cstdint>
#include <vector>

#include "common/logging.hpp"

namespace nnbaton {

/** Ceiling division for non-negative integers. */
constexpr int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

/**
 * floor(a * m / d) for non-negative @p a and positive @p m and @p d,
 * without forming the product a * m: exact, and free of overflow,
 * whenever the result and d * m fit in int64.
 */
constexpr int64_t
mulDivFloor(int64_t a, int64_t m, int64_t d)
{
    return a / d * m + a % d * m / d;
}

/** Round @p a up to the next multiple of @p b. */
constexpr int64_t
roundUp(int64_t a, int64_t b)
{
    return ceilDiv(a, b) * b;
}

/** True if @p v is a power of two (v > 0). */
constexpr bool
isPow2(int64_t v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

/** All divisors of @p n in increasing order. */
inline std::vector<int>
divisors(int n)
{
    std::vector<int> out;
    for (int d = 1; d <= n; ++d) {
        if (n % d == 0)
            out.push_back(d);
    }
    return out;
}

/**
 * All ordered factor pairs (a, b) with a * b == n.
 * Used to enumerate planar partition shapes (fh x fw).
 */
inline std::vector<std::pair<int, int>>
factorPairs(int n)
{
    std::vector<std::pair<int, int>> out;
    for (int d : divisors(n))
        out.emplace_back(d, n / d);
    return out;
}

/** Kilobyte and megabyte helpers (binary, 1 KB = 1024 B). */
constexpr int64_t operator""_KB(unsigned long long v)
{
    return static_cast<int64_t>(v) * 1024;
}

constexpr int64_t operator""_MB(unsigned long long v)
{
    return static_cast<int64_t>(v) * 1024 * 1024;
}

} // namespace nnbaton

#endif // NNBATON_COMMON_UTIL_HPP
