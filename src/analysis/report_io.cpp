#include "analysis/report_io.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace emptcp::analysis {
namespace {

namespace fs = std::filesystem;

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

bool stream_trace_file(const std::string& path, RollupBuilder& builder,
                       std::string& digest_hex, std::string& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err = "cannot open";
    return false;
  }
  Fnv1a64Stream digest;
  std::string chunk(1 << 20, '\0');
  std::string carry;  // partial line from the previous chunk
  std::size_t line_no = 0;
  auto fold_line = [&](std::string_view line) {
    ++line_no;
    if (line.empty()) return true;
    std::string perr;
    const auto doc = parse_json_flat(line, &perr);
    if (!doc) {
      err = "line " + std::to_string(line_no) + ": " + perr;
      return false;
    }
    builder.add_line(*doc);
    return true;
  };
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    const std::string_view data(chunk.data(), got);
    digest.update(data);
    std::size_t pos = 0;
    for (;;) {
      const std::size_t nl = data.find('\n', pos);
      if (nl == std::string_view::npos) {
        carry.append(data.substr(pos));
        break;
      }
      if (carry.empty()) {
        if (!fold_line(data.substr(pos, nl - pos))) return false;
      } else {
        carry.append(data.substr(pos, nl - pos));
        if (!fold_line(carry)) return false;
        carry.clear();
      }
      pos = nl + 1;
    }
  }
  if (!carry.empty() && !fold_line(carry)) return false;
  digest_hex = digest.hex();
  return true;
}

bool load_analyzed_runs(const std::vector<std::string>& dirs,
                        std::vector<AnalyzedRun>& out, std::string& err) {
  std::vector<std::string> manifest_paths;
  for (const std::string& dir : dirs) {
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) {
      err = "cannot read " + dir + ": " + ec.message();
      return false;
    }
    for (const fs::directory_entry& e : it) {
      const std::string name = e.path().filename().string();
      if (name.size() > 14 &&
          name.compare(name.size() - 14, 14, ".manifest.json") == 0) {
        manifest_paths.push_back(e.path().string());
      }
    }
  }
  // Directory iteration order is unspecified; sort for determinism.
  std::sort(manifest_paths.begin(), manifest_paths.end());

  for (const std::string& path : manifest_paths) {
    std::string text;
    if (!read_file(path, text)) {
      err = "cannot read " + path;
      return false;
    }
    std::string perr;
    const auto doc = parse_json_flat(text, &perr);
    if (!doc) {
      err = path + ": " + perr;
      return false;
    }
    RunManifest manifest;
    if (!manifest_from_json(*doc, manifest)) {
      const std::string schema = json_str(*doc, "schema");
      err = path + (schema.rfind("emptcp-run-manifest-", 0) == 0
                        ? ": manifest schema " + schema + " is not " +
                              kManifestSchema + "; regenerate the artifacts"
                        : std::string(": not a run manifest"));
      return false;
    }
    const std::string trace_path =
        (fs::path(path).parent_path() / manifest.trace_file).string();
    RollupBuilder builder(manifest);
    std::string digest_hex;
    if (!stream_trace_file(trace_path, builder, digest_hex, perr)) {
      err = trace_path + ": " + perr;
      return false;
    }
    AnalyzedRun run;
    run.rollup = builder.finish();
    run.power_windows = builder.power().windows();
    run.digest_ok = digest_hex == manifest.trace_digest;
    run.source = path;
    out.push_back(std::move(run));
  }
  return true;
}

}  // namespace emptcp::analysis
