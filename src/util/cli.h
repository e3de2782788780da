#pragma once

#include <map>
#include <string>
#include <vector>

namespace ulpsync::util {

/// Minimal command-line flag parser for the bench/example binaries.
///
/// Accepts `--name=value`, `--name value`, and bare `--flag` (value "1").
/// Unknown positional arguments are kept in order and queryable.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// The flag's value as an integer (base prefixes such as `0x` apply);
  /// `fallback` when unset. Throws std::runtime_error "malformed --<name>
  /// value '<text>'" unless the whole value parses and is in range.
  [[nodiscard]] long get_int(const std::string& name, long fallback) const;
  /// The flag's value as a double; `fallback` when unset. Throws like
  /// `get_int`.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  /// Every flag name the command line set, sorted — what a tool's flag
  /// table checks to reject unknown flags with a one-line diagnostic.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ulpsync::util
