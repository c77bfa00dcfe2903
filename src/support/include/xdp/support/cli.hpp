// Numeric command-line values, shared by the drivers (xdpc, xdp_serve).
#pragma once

#include <charconv>
#include <cstdio>
#include <limits>
#include <string_view>
#include <system_error>

namespace xdp::cli {

/// Parse `text`, the value given to `flag`, into `out`. The whole token
/// must be one number of type T within [lo, hi]: trailing characters, a
/// sign on an unsigned T (std::from_chars accepts no '+', and no '-' for
/// unsigned types), overflow and NaN are all rejected. On failure prints
/// "invalid value for FLAG: 'TEXT'" to stderr, leaves `out` unchanged and
/// returns false; the caller then reports a usage error.
template <typename T>
bool parseFlagValue(std::string_view flag, std::string_view text, T& out,
                    T lo = std::numeric_limits<T>::lowest(),
                    T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !(v >= lo) || !(v <= hi)) {
    std::fprintf(stderr, "invalid value for %.*s: '%.*s'\n",
                 static_cast<int>(flag.size()), flag.data(),
                 static_cast<int>(text.size()), text.data());
    return false;
  }
  out = v;
  return true;
}

}  // namespace xdp::cli
