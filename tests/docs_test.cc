// Docs that cannot drift: the README's "Quickstart (API)" block must be the
// marked region of the compiled examples/quickstart.cpp, verbatim (minus the
// region's common indentation).

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

std::string Join(const std::vector<std::string>& lines) {
  std::ostringstream out;
  for (const std::string& line : lines) {
    out << line << '\n';
  }
  return out.str();
}

// Lines strictly between the first line containing `begin` and the next
// line containing `end`; empty when either marker is missing.
std::vector<std::string> Between(const std::vector<std::string>& lines,
                                 const std::string& begin,
                                 const std::string& end) {
  size_t i = 0;
  while (i < lines.size() && lines[i].find(begin) == std::string::npos) {
    ++i;
  }
  std::vector<std::string> out;
  for (++i; i < lines.size(); ++i) {
    if (lines[i].find(end) != std::string::npos) {
      return out;
    }
    out.push_back(lines[i]);
  }
  return {};
}

TEST(DocsTest, ReadmeQuickstartIsTheCompiledExample) {
  const std::string root = HL_SOURCE_DIR;
  std::vector<std::string> region =
      Between(ReadLines(root + "/examples/quickstart.cpp"),
              "[README quickstart begin]", "[README quickstart end]");
  ASSERT_FALSE(region.empty()) << "quickstart markers not found";
  size_t indent = std::string::npos;
  for (const std::string& line : region) {
    const size_t first = line.find_first_not_of(' ');
    if (first != std::string::npos && first < indent) {
      indent = first;
    }
  }
  for (std::string& line : region) {
    line.erase(0, std::min(indent, line.size()));
  }

  const std::vector<std::string> readme = ReadLines(root + "/README.md");
  std::vector<std::string> section;
  bool in_section = false;
  for (const std::string& line : readme) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line == "## Quickstart (API)";
    } else if (in_section) {
      section.push_back(line);
    }
  }
  const std::vector<std::string> block = Between(section, "```cpp", "```");
  ASSERT_FALSE(block.empty()) << "README has no Quickstart (API) cpp block";
  EXPECT_EQ(Join(block), Join(region));
}

}  // namespace
