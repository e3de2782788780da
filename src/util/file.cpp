#include "util/file.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <system_error>

namespace ulpsync::util {

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();  // flushes, so a full disk shows here
  std::error_code ec;
  if (!out) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("cannot write " + path);
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    const std::string reason = ec.message();
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("cannot rename " + tmp + " to " + path + ": " +
                             reason);
  }
}

void write_file_atomic(const std::string& path, std::string_view text) {
  write_file_atomic(path, {reinterpret_cast<const std::uint8_t*>(text.data()),
                           text.size()});
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace ulpsync::util
