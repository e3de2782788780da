#include "util/cli.h"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace ulpsync::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(body.substr(0, eq))] = std::string(body.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[std::string(body)] = argv[++i];
    } else {
      flags_[std::string(body)] = "1";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

/// Parses all of `text` with `parse` (a strtol/strtod-style function);
/// throws "malformed --<name> value '<text>'" when any of it is left over
/// or the value is out of range.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& text,
                 const Parse& parse) {
  char* end = nullptr;
  errno = 0;
  const auto value = parse(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    std::string message = "malformed --";
    message.append(name).append(" value '").append(text).append("'");
    throw std::runtime_error(message);
  }
  return value;
}

}  // namespace

long CliArgs::get_int(const std::string& name, long fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_whole(name, it->second, [](const char* text, char** end) {
    return std::strtol(text, end, 0);
  });
}

std::vector<std::string> CliArgs::names() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    (void)value;
    out.push_back(name);
  }
  return out;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_whole(name, it->second, [](const char* text, char** end) {
    return std::strtod(text, end);
  });
}

}  // namespace ulpsync::util
