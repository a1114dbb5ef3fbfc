#include "support/diagnostics.h"

#include <algorithm>
#include <tuple>

#include "support/json.h"

namespace hicsync::support {

namespace {

/// Tie-break rank at equal locations: errors surface before warnings before
/// notes so a reader sees the blocking finding first.
int severity_rank(Severity s) {
  switch (s) {
    case Severity::Error:
      return 0;
    case Severity::Warning:
      return 1;
    case Severity::Note:
      return 2;
  }
  return 3;
}

}  // namespace

const char* to_string(Severity s) {
  switch (s) {
    case Severity::Note:
      return "note";
    case Severity::Warning:
      return "warning";
    case Severity::Error:
      return "error";
  }
  return "unknown";
}

std::string Diagnostic::str() const {
  std::string out;
  if (!file.empty()) {
    out += file;
    out += ':';
  }
  if (loc.valid()) {
    out += loc.str();
    out += ": ";
  } else if (!file.empty()) {
    out += ' ';
  }
  out += to_string(severity);
  out += ": ";
  out += message;
  if (!check_id.empty()) {
    out += " [";
    out += check_id;
    out += ']';
  }
  return out;
}

void DiagnosticEngine::report(Severity sev, SourceLoc loc, std::string message,
                              std::string check_id) {
  if (sev == Severity::Error) ++error_count_;
  if (sev == Severity::Warning) ++warning_count_;
  diags_.push_back(Diagnostic{sev, loc, std::move(message),
                              std::move(check_id), source_name_});
}

std::vector<const Diagnostic*> DiagnosticEngine::sorted_diagnostics() const {
  std::vector<const Diagnostic*> out;
  out.reserve(diags_.size());
  for (const auto& d : diags_) out.push_back(&d);
  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic* a, const Diagnostic* b) {
                     return std::make_tuple(std::cref(a->file), a->loc.line,
                                            a->loc.column,
                                            severity_rank(a->severity)) <
                            std::make_tuple(std::cref(b->file), b->loc.line,
                                            b->loc.column,
                                            severity_rank(b->severity));
                   });
  return out;
}

bool DiagnosticEngine::contains(const std::string& needle) const {
  for (const auto& d : diags_) {
    if (d.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

bool DiagnosticEngine::has_check(const std::string& check_id) const {
  return check_count(check_id) > 0;
}

std::size_t DiagnosticEngine::check_count(const std::string& check_id) const {
  std::size_t n = 0;
  for (const auto& d : diags_) {
    if (d.check_id == check_id) ++n;
  }
  return n;
}

std::string DiagnosticEngine::str() const {
  std::string out;
  for (const Diagnostic* d : sorted_diagnostics()) {
    out += d->str();
    out += '\n';
  }
  return out;
}

std::string DiagnosticEngine::json() const {
  std::string out = "{\n";
  out += "  \"errors\": " + std::to_string(error_count_) + ",\n";
  out += "  \"warnings\": " + std::to_string(warning_count_) + ",\n";
  out += "  \"diagnostics\": [";
  bool first = true;
  for (const Diagnostic* d : sorted_diagnostics()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"check\": \"";
    out += json_escape(d->check_id);
    out += "\", \"severity\": \"";
    out += to_string(d->severity);
    out += "\", \"file\": \"";
    out += json_escape(d->file);
    out += "\", \"line\": " + std::to_string(d->loc.line);
    out += ", \"column\": " + std::to_string(d->loc.column);
    out += ", \"message\": \"";
    out += json_escape(d->message);
    out += "\"}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void DiagnosticEngine::clear() {
  diags_.clear();
  error_count_ = 0;
  warning_count_ = 0;
}

}  // namespace hicsync::support
