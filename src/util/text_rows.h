#pragma once
// Line-format row reader/writer shared by the repo's text formats
// (mapcq-config/report/trace/eval-v1 in core/serialization.cpp and
// mapcq-snapshot-v1 in serving/session_snapshot.cpp). A row is one line,
// `key v1 v2 ...`. Values parse token-wise through std::sto*, so the
// non-finite scalars the formats legitimately contain ("inf" objectives of
// infeasible picks) round-trip — stream extraction refuses the "inf"/"nan"
// it itself printed. Every failure throws std::runtime_error.

#include <cstddef>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace mapcq::util {

/// The next line of `is`; `what` names it in the error when the input ends.
inline std::string next_line(std::istream& is, const char* what) {
  std::string line;
  if (!std::getline(is, line))
    throw std::runtime_error(std::string("serialization: missing ") + what);
  return line;
}

/// Writes `key v1 v2 ...` and a newline.
template <class... Ts>
void write_row(std::ostream& os, const char* key, const Ts&... values) {
  os << key;
  ((os << ' ' << values), ...);
  os << '\n';
}

template <class T>
void parse_token(const std::string& token, T& out) {
  if constexpr (std::is_floating_point_v<T>)
    out = static_cast<T>(std::stod(token));
  else if constexpr (std::is_signed_v<T>)
    out = static_cast<T>(std::stoll(token));
  else
    out = static_cast<T>(std::stoull(token));
}

/// Parses `line` as a `key v1 v2 ...` row into `values`. Returns false on a
/// key mismatch (the caller may treat the row as optional); throws on a row
/// that matches the key but is short or non-numeric.
template <class... Ts>
bool try_parse_row(const std::string& line, const char* key, Ts&... values) {
  std::istringstream ls{line};
  std::string k;
  if (!(ls >> k) || k != key) return false;
  const auto next = [&](auto& out) {
    std::string token;
    if (!(ls >> token)) throw std::runtime_error(std::string("serialization: short row for ") + key);
    try {
      parse_token(token, out);
    } catch (const std::exception&) {
      throw std::runtime_error(std::string("serialization: bad value for ") + key);
    }
  };
  (next(values), ...);
  return true;
}

/// Reads the next line and parses it as a mandatory `key ...` row.
template <class... Ts>
void read_row(std::istream& is, const char* key, Ts&... values) {
  if (!try_parse_row(next_line(is, key), key, values...))
    throw std::runtime_error(std::string("serialization: expected ") + key);
}

/// Reads a `key value...` line and returns everything after "key " verbatim
/// (values such as network names and session keys may contain spaces).
inline std::string read_tail(std::istream& is, const char* key) {
  const std::string line = next_line(is, key);
  const std::string prefix = std::string(key) + ' ';
  if (line.rfind(prefix, 0) != 0) {
    if (line == key) return "";
    throw std::runtime_error(std::string("serialization: expected ") + key);
  }
  return line.substr(prefix.size());
}

/// Reads a mandatory `key n` row.
inline std::size_t read_sized(std::istream& is, const char* key) {
  std::size_t v = 0;
  read_row(is, key, v);
  return v;
}

}  // namespace mapcq::util
