// Forging hicbin artifacts for the rejection and fuzz suites: decode a
// payload to JSON, edit it, encode it back and frame it with a correct
// length and FNV-1a digest, so the edit reaches the load's checks instead
// of stopping at the digest.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "rt/artifact.h"
#include "support/json.h"
#include "support/strings.h"

namespace hicsync::rt::forge {

/// The JSON payload of framed hicbin bytes.
inline support::JsonValue payload_of(std::string_view bytes) {
  support::JsonValue root;
  std::string error;
  EXPECT_TRUE(
      support::parse_json(bytes.substr(bytes.find('\n') + 1), &root, &error))
      << error;
  return root;
}

/// Mutable object member; fails the test and returns `obj` when absent.
inline support::JsonValue& at(support::JsonValue& obj, std::string_view key) {
  for (auto& [name, value] : obj.members) {
    if (name == key) return value;
  }
  ADD_FAILURE() << "no member '" << key << "'";
  return obj;
}

inline void write(support::JsonWriter& w, const support::JsonValue& v) {
  switch (v.kind) {
    case support::JsonValue::Kind::Null:
      w.value_null();
      break;
    case support::JsonValue::Kind::Bool:
      w.value(v.bool_value);
      break;
    case support::JsonValue::Kind::Number:
      // Integers as integers (the emitter's spelling); anything else,
      // including integers too large for a double to hold exactly, as a
      // double.
      if (v.number_value == std::floor(v.number_value) &&
          std::fabs(v.number_value) < 9007199254740992.0) {
        w.value(static_cast<std::int64_t>(v.number_value));
      } else {
        w.value(v.number_value);
      }
      break;
    case support::JsonValue::Kind::String:
      w.value(v.string_value);
      break;
    case support::JsonValue::Kind::Array:
      w.begin_array();
      for (const support::JsonValue& e : v.elements) write(w, e);
      w.end_array();
      break;
    case support::JsonValue::Kind::Object:
      w.begin_object();
      for (const auto& [name, value] : v.members) {
        w.key(name);
        write(w, value);
      }
      w.end_object();
      break;
  }
}

/// Payload bytes `body`, verbatim, framed as a current-version hicbin.
inline std::string frame_bytes(const std::string& body) {
  return support::format("%s %d %zu %016llx\n", kArtifactMagic,
                         kArtifactVersion, body.size(),
                         static_cast<unsigned long long>(
                             support::fnv1a64(body))) +
         body;
}

/// `payload` encoded with `indent` and framed as a current-version hicbin.
inline std::string frame(const support::JsonValue& payload, int indent = 0) {
  support::JsonWriter w(indent);
  write(w, payload);
  return frame_bytes(w.str());
}

}  // namespace hicsync::rt::forge
