// Small string utilities used across the toolchain.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hicsync::support {

/// Split `s` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Strip leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Join with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Indent every line of `s` by `n` spaces.
[[nodiscard]] std::string indent(std::string_view s, int n);

/// FNV-1a 64 over `bytes`: the artifact frame and Sema digests, the run
/// bundle source digest and the model checker's state hash.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace hicsync::support
