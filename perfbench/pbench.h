// Shared pieces of the `pbench` tool: the plan file both the load
// generator and the replay read, record framing, and small helpers.
//
// A plan names the record streams a workload sends and the client slots
// that send them:
//
//   pbench-plan v1
//   stream <path>                  one text file of treeplace-* records
//   slot <loop|churn> <window> <hello-name|-> <stream,stream,...>
//
// A `loop` slot keeps one connection: it publishes its stream's first
// record (the tree) during set-up, then cycles the remaining records until
// the deadline has passed and it has sent the stream's last record.  A
// `churn` slot publishes each stream's tree on a connection of its own
// during set-up; then it opens one connection per stream, sends the whole
// stream and closes, cycling through its streams until the deadline.
// `window` is the number of records the slot keeps outstanding (1 =
// closed loop).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pbench {

/// One record of a stream: its header line and its body lines, each
/// newline-terminated.
struct Record {
  std::string header;
  std::string body;
};

struct Stream {
  std::string path;
  std::vector<Record> records;
};

enum class SlotMode { kLoop, kChurn };

struct Slot {
  SlotMode mode = SlotMode::kLoop;
  std::size_t window = 1;
  std::string name;  ///< hello name; empty = anonymous hello
  std::vector<std::size_t> streams;
};

struct Plan {
  std::vector<Stream> streams;
  std::vector<Slot> slots;
};

/// Splits record-stream text at `treeplace-` header lines; comment and
/// blank lines are dropped.
std::vector<Record> split_records(std::string_view text);

/// Reads a plan and every stream it names; throws std::runtime_error.
Plan read_plan(const std::string& path);

std::string read_file(const std::string& path);

/// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock Python's
/// time.monotonic() reads).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The value after `--key` in argv[2..], or `fallback`.
inline std::string arg(int argc, char** argv, std::string_view key,
                       std::string fallback = "") {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]).substr(0, 2) == "--" &&
        std::string_view(argv[i]).substr(2) == key) {
      return argv[i + 1];
    }
  }
  return fallback;
}

/// The `key=value` token of a result line, or an empty view.
std::string_view result_field(std::string_view line, std::string_view key);

/// A result line with the per-run and per-connection fields (id=,
/// queue_s=, solve_s=, work=) removed: what must be identical between the
/// served result and the serial reference.  work= is dropped because warm
/// work depends on the order in which solves reach a session.
std::string normalize_result(std::string_view line);

/// Subcommand entry points (main.cc dispatches).
int day_main(int argc, char** argv);
int load_main(int argc, char** argv);
int respond_main(int argc, char** argv);
int replay_main(int argc, char** argv);

}  // namespace pbench
