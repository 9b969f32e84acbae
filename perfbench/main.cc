// pbench — the served-traffic benchmark's native half.
//
//   pbench day      --seed S                     diurnal day record stream
//   pbench load     --plan P --out R -- SERVER   TCP load generator
//   pbench respond                               trivial loopback responder
//   pbench replay   --plan P --results R ...     verifier + traced replay
//
// perfbench/run.py drives all four; see perfbench/README.md.
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "pbench.h"

namespace pbench {

std::vector<Record> split_records(std::string_view text) {
  std::vector<Record> records;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("treeplace-", 0) == 0) {
      records.push_back(Record{std::string(line) + "\n", {}});
    } else {
      if (records.empty()) throw std::runtime_error("body before a header");
      records.back().body.append(line).push_back('\n');
    }
  }
  return records;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Plan read_plan(const std::string& path) {
  std::istringstream in(read_file(path));
  std::string line;
  if (!std::getline(in, line) || line != "pbench-plan v1") {
    throw std::runtime_error("not a pbench plan: " + path);
  }
  Plan plan;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "stream") {
      Stream stream;
      ls >> stream.path;
      stream.records = split_records(read_file(stream.path));
      if (stream.records.empty()) throw std::runtime_error("empty stream");
      plan.streams.push_back(std::move(stream));
    } else if (kind == "slot") {
      Slot slot;
      std::string mode, name, list;
      ls >> mode >> slot.window >> name >> list;
      slot.mode = mode == "churn" ? SlotMode::kChurn : SlotMode::kLoop;
      if (name != "-") slot.name = name;
      std::istringstream ids(list);
      std::string id;
      while (std::getline(ids, id, ',')) {
        const std::size_t s = std::stoul(id);
        if (s >= plan.streams.size()) throw std::runtime_error("bad stream id");
        slot.streams.push_back(s);
      }
      if (slot.window == 0 || slot.streams.empty()) {
        throw std::runtime_error("bad slot line: " + line);
      }
      plan.slots.push_back(std::move(slot));
    } else if (!kind.empty()) {
      throw std::runtime_error("bad plan line: " + line);
    }
  }
  return plan;
}

std::string_view result_field(std::string_view line, std::string_view key) {
  std::size_t pos = 0;
  while (pos < line.size()) {
    std::size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) end = line.size();
    const std::string_view token = line.substr(pos, end - pos);
    if (token.size() > key.size() && token.substr(0, key.size()) == key &&
        token[key.size()] == '=') {
      return token.substr(key.size() + 1);
    }
    pos = end + 1;
  }
  return {};
}

std::string normalize_result(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  std::string out;
  std::size_t pos = 0;
  while (pos < line.size()) {
    std::size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) end = line.size();
    const std::string_view token = line.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty() || token.rfind("id=", 0) == 0 ||
        token.rfind("queue_s=", 0) == 0 || token.rfind("solve_s=", 0) == 0 ||
        token.rfind("work=", 0) == 0) {
      continue;
    }
    if (!out.empty()) out.push_back(' ');
    out.append(token);
  }
  return out;
}

}  // namespace pbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: pbench day|load|respond|replay [options]\n";
    return 2;
  }
  try {
    if (std::strcmp(argv[1], "day") == 0) return pbench::day_main(argc, argv);
    if (std::strcmp(argv[1], "load") == 0) return pbench::load_main(argc, argv);
    if (std::strcmp(argv[1], "respond") == 0) {
      return pbench::respond_main(argc, argv);
    }
    if (std::strcmp(argv[1], "replay") == 0) {
      return pbench::replay_main(argc, argv);
    }
  } catch (const std::exception& e) {
    std::cerr << "pbench: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "pbench: unknown subcommand '" << argv[1] << "'\n";
  return 2;
}
