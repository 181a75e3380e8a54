/**
 * @file
 * Strict number parsing for command-line values. Unlike atoi/atof,
 * these reject empty strings, trailing characters, overflow and
 * non-finite values, so a malformed flag can fail loudly instead of
 * silently becoming 0.
 */

#ifndef VESPERA_COMMON_PARSE_H
#define VESPERA_COMMON_PARSE_H

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace vespera {

/** Parse all of `s` as a base-10 integer. */
inline bool
parseInt(const char *s, long long &out)
{
    if (s == nullptr || *s == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    out = v;
    return true;
}

/** Parse all of `s` as a finite floating-point number. */
inline bool
parseDouble(const char *s, double &out)
{
    if (s == nullptr || *s == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (errno != 0 || *end != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace vespera

#endif // VESPERA_COMMON_PARSE_H
