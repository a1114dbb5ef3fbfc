#include "tools/cli.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

namespace hicsync::cli {

namespace {

// std::from_chars over all of `text`: no whitespace, no '+', no trailing
// characters, no overflow.
template <typename T>
bool parse_whole(std::string_view text, T* out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || stop != end) return false;
  *out = v;
  return true;
}

}  // namespace

bool parse_count(std::string_view text, std::uint64_t* out) {
  return parse_whole(text, out);
}

bool parse_real(std::string_view text, double* out) {
  // A leading digit or '.' rules out a minus sign, "inf" and "nan".
  if (text.empty() || !(text[0] == '.' || (text[0] >= '0' && text[0] <= '9'))) {
    return false;
  }
  return parse_whole(text, out);
}

Cursor::Cursor(int argc, char** argv, int first, std::string usage,
               int usage_code)
    : argc_(argc),
      argv_(argv),
      next_(first),
      usage_(std::move(usage)),
      usage_code_(usage_code) {}

bool Cursor::next() {
  if (next_ >= argc_) return false;
  arg_ = argv_[next_++];
  return true;
}

bool Cursor::is_option() const { return arg_.size() > 1 && arg_[0] == '-'; }

std::optional<std::string> Cursor::after_equals(std::string_view name) const {
  if (arg_.size() > name.size() && arg_.starts_with(name) &&
      arg_[name.size()] == '=') {
    return arg_.substr(name.size() + 1);
  }
  return std::nullopt;
}

bool Cursor::value(std::string_view name, std::string* out) {
  if (arg_ == name) {
    *out = take();
    return true;
  }
  std::optional<std::string> v = after_equals(name);
  if (!v) return false;
  *out = std::move(*v);
  return true;
}

bool Cursor::optional(std::string_view name,
                      std::optional<std::string>* out) const {
  if (arg_ == name) {
    out->reset();
    return true;
  }
  std::optional<std::string> v = after_equals(name);
  if (!v) return false;
  *out = std::move(v);
  return true;
}

bool Cursor::real(std::string_view name, double* out) {
  std::string text;
  if (!value(name, &text)) return false;
  if (!parse_real(text, out)) bad_number(name, text, "a non-negative number");
  return true;
}

std::string Cursor::take() {
  if (next_ >= argc_) {
    usage();
    std::exit(usage_code_);
  }
  return argv_[next_++];
}

void Cursor::usage() const { std::fputs(usage_.c_str(), stderr); }

int Cursor::usage_error() const {
  usage();
  return usage_code_;
}

int Cursor::error(const std::string& message) const {
  std::fprintf(stderr, "%s\n", message.c_str());
  return usage_code_;
}

int Cursor::unknown_option() const {
  std::fprintf(stderr, "unknown option '%s'\n", arg_.c_str());
  return usage_error();
}

void Cursor::bad_number(std::string_view name, const std::string& text,
                        const char* expected) const {
  std::fprintf(stderr, "bad %.*s '%s': expected %s\n",
               static_cast<int>(name.size()), name.data(), text.c_str(),
               expected);
  std::exit(usage_code_);
}

std::optional<Source> read_source(const std::string& path) {
  std::ostringstream ss;
  if (path == "-") {
    ss << std::cin.rdbuf();
    return Source{ss.str(), "<stdin>"};
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return std::nullopt;
  }
  ss << in.rdbuf();
  return Source{ss.str(), path};
}

bool write_file(const std::string& path, std::string_view body, Write mode) {
  if (path.empty()) {
    std::fwrite(body.data(), 1, body.size(), stdout);
    return true;
  }
  std::ofstream out(path, mode == Write::Append ? std::ios::app
                                                : std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return false;
  }
  out << body;
  if (mode == Write::Announce) std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace hicsync::cli
