#include "cluster/ekv.hpp"

#include "support/strings.hpp"
#include "support/table.hpp"

namespace rocks::cluster {

void EkvConsole::send_input(double now, std::string text) {
  ++inputs_;
  write_line(now, "<< " + std::move(text));
}

std::string EkvConsole::screen(std::size_t tail) const {
  std::string out;
  out += strings::cat("Red Hat Linux (C) 2000 Red Hat, Inc.  --  eKV on ", node_name_,
                      "  --  Install System\n");
  out += strings::cat("+", std::string(64, '-'), "+\n");
  out += strings::cat("| Package Installation\n");
  if (!progress_.current_package.empty())
    out += strings::cat("|   Name   : ", progress_.current_package, "\n");
  out += strings::cat("|               Packages        Bytes\n");
  out += strings::cat("|   Total     : ", progress_.total_packages, "\t\t",
                      fixed(static_cast<double>(progress_.total_bytes) / (1024.0 * 1024.0), 0),
                      "M\n");
  out += strings::cat(
      "|   Completed : ", progress_.completed_packages, "\t\t",
      fixed(static_cast<double>(progress_.completed_bytes) / (1024.0 * 1024.0), 0), "M\n");
  out += strings::cat(
      "|   Remaining : ", progress_.remaining_packages(), "\t\t",
      fixed(static_cast<double>(progress_.remaining_bytes()) / (1024.0 * 1024.0), 0), "M\n");
  out += strings::cat("+", std::string(64, '-'), "+\n");
  for (const EkvLine& line : lines_.recent({}, tail))
    out += strings::cat("[", fixed(line.time, 1), "s] ", line.text, "\n");
  return out;
}

}  // namespace rocks::cluster
