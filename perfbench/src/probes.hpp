// Subcommands of pb_probe (see pb_probe.cpp for the command line).
#pragma once

#include <string>

namespace pb {

/// Replays a serving journal's admitted stream through every serving stage,
/// one timed call at a time, and writes a JSON report.
int cmd_stages(int argc, char** argv);

/// Writes `text` to `path` (or stdout when empty); false on I/O failure.
bool write_text(const std::string& path, const std::string& text);

}  // namespace pb
