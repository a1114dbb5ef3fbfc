// The command-line front door shared by the eight tools: a cursor over
// argv, one checked number parser, and the file-or-stdin reader and the
// file writer every tool prints the same lines for.
//
// Grammar: a valued flag is written `--k v` or `--k=v`; an optional value
// (`--profile`, `--cover`, `hic-cover --report`) only ever as `--k` or
// `--k=v`, and never consumes the next argument. Counts are non-negative
// decimal integers and reals are non-negative finite decimals: a sign,
// empty text, trailing characters or overflow is a usage error that names
// the flag. A missing value prints the tool's usage. Every usage error
// exits with the tool's usage code.
//
// Each tool keeps its own if/else chain over the cursor:
//
//   cli::Cursor cli(argc, argv, 1, usage_text, 2);
//   while (cli.next()) {
//     std::string v;
//     if (cli.value("--org", &v)) { ... }
//     else if (cli.count("--max-states", &max_states)) {}
//     else if (cli.help()) { cli.usage(); return 0; }
//     else if (cli.is_option()) return cli.unknown_option();
//     else input = cli.arg();
//   }
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace hicsync::cli {

/// Non-negative decimal integer: digits only, no sign, no trailing text,
/// no overflow. Leaves *out alone on failure, as does parse_real.
[[nodiscard]] bool parse_count(std::string_view text, std::uint64_t* out);

/// Non-negative finite decimal real: starts with a digit or '.', no
/// trailing text, no overflow to infinity.
[[nodiscard]] bool parse_real(std::string_view text, double* out);

class Cursor {
 public:
  /// Walks argv[first..argc). `usage` is the tool's complete usage text,
  /// printed to stderr on request and on a missing value; `usage_code` is
  /// the tool's exit code for usage errors.
  Cursor(int argc, char** argv, int first, std::string usage, int usage_code);

  /// Steps to the next argument; false once argv is exhausted.
  bool next();
  /// The current argument.
  [[nodiscard]] const std::string& arg() const { return arg_; }
  /// An option-shaped argument: '-' followed by anything. A lone "-" is
  /// the stdin operand, not an option.
  [[nodiscard]] bool is_option() const;

  /// The bare flag `name`.
  bool flag(std::string_view name) const { return arg_ == name; }
  /// `--help` or `-h`.
  bool help() const { return flag("--help") || flag("-h"); }
  /// `name v` or `name=v`; sets *out to v.
  bool value(std::string_view name, std::string* out);
  /// `name` or `name=v`; sets *out to v, or to nullopt for the bare form.
  bool optional(std::string_view name, std::optional<std::string>* out) const;
  /// A valued flag holding a count that fits T.
  template <typename T>
  bool count(std::string_view name, T* out);
  /// A valued flag holding a real.
  bool real(std::string_view name, double* out);
  /// Consumes the next argument as a further value of the current flag.
  std::string take();

  /// Prints the usage text to stderr.
  void usage() const;
  /// Prints the usage text; returns the usage code.
  [[nodiscard]] int usage_error() const;
  /// Prints `message` and a newline to stderr; returns the usage code.
  [[nodiscard]] int error(const std::string& message) const;
  /// Reports the current argument as an unknown option, then the usage;
  /// returns the usage code.
  [[nodiscard]] int unknown_option() const;

 private:
  /// v when the current argument is `name=v`.
  [[nodiscard]] std::optional<std::string> after_equals(
      std::string_view name) const;
  [[noreturn]] void bad_number(std::string_view name, const std::string& text,
                               const char* expected) const;

  int argc_;
  char** argv_;
  int next_;
  std::string arg_;
  std::string usage_;
  int usage_code_;
};

template <typename T>
bool Cursor::count(std::string_view name, T* out) {
  std::string text;
  if (!value(name, &text)) return false;
  std::uint64_t v = 0;
  if (!parse_count(text, &v) ||
      v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    bad_number(name, text, "a non-negative integer");
  }
  *out = static_cast<T>(v);
  return true;
}

/// A source text and the name diagnostics give it.
struct Source {
  std::string text;
  std::string name;
};

/// Reads `path`; "-" reads stdin and names it "<stdin>". Prints
/// "cannot open '<path>'" to stderr and returns nullopt on failure.
[[nodiscard]] std::optional<Source> read_source(const std::string& path);

enum class Write {
  Announce,  // print "wrote <path>" to stdout on success
  Quiet,     // print nothing on success
  Append,    // append instead of truncating; print nothing on success
};

/// Writes `body` to `path`; an empty path prints `body` to stdout instead.
/// Prints "cannot write '<path>'" to stderr and returns false on failure.
[[nodiscard]] bool write_file(const std::string& path, std::string_view body,
                              Write mode = Write::Announce);

}  // namespace hicsync::cli
