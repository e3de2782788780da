#pragma once

/// Whole-file I/O shared by every module that persists bytes: snapshot
/// files, spool and ring entries, recorded runs and the tools' outputs.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ulpsync::util {

/// Writes `bytes` to `path` atomically: a sibling `<path>.tmp` is written
/// and renamed over the destination, so readers (and a later `cmp` or
/// restore) only ever observe complete images, even when the writer is
/// killed. Throws std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);
/// `write_file_atomic` of text.
void write_file_atomic(const std::string& path, std::string_view text);

/// Whole file as bytes. Throws std::runtime_error when unreadable.
[[nodiscard]] std::vector<std::uint8_t> read_file_bytes(
    const std::string& path);

}  // namespace ulpsync::util
