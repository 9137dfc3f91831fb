#include "lint/include_graph.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <utility>

#include "util/error.h"

namespace tgi::lint {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::size_t skip_ws(std::string_view s, std::size_t i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  return i;
}

std::vector<std::string> split_tokens(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    i = skip_ws(line, i);
    std::size_t end = i;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
    if (end > i) tokens.emplace_back(line.substr(i, end - i));
    i = end;
  }
  return tokens;
}

}  // namespace

std::string module_of_path(std::string_view repo_relative_path) {
  if (!starts_with(repo_relative_path, "src/")) return {};
  const std::string_view rest = repo_relative_path.substr(4);
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return {};
  return std::string(rest.substr(0, slash));
}

std::vector<IncludeEdge> collect_includes(const SourceFile& file) {
  std::vector<IncludeEdge> found;
  const std::string from = module_of_path(file.path);
  if (from.empty()) return found;  // only src/ modules are layered
  for (std::size_t i = 0; i < file.raw.size(); ++i) {
    const std::string& line = file.raw[i];
    std::size_t j = skip_ws(line, 0);
    if (j >= line.size() || line[j] != '#') continue;
    j = skip_ws(line, j + 1);
    if (line.compare(j, 7, "include") != 0) continue;
    j = skip_ws(line, j + 7);
    if (j >= line.size() || line[j] != '"') continue;  // <system> headers
    const std::size_t close = line.find('"', j + 1);
    if (close == std::string::npos) continue;
    const std::string_view target(line.data() + j + 1, close - j - 1);
    if (starts_with(target, "./") || starts_with(target, "../")) {
      continue;  // the relative-include per-file rule owns these
    }
    const std::size_t slash = target.find('/');
    if (slash == std::string_view::npos) continue;  // no module segment
    std::string to(target.substr(0, slash));
    if (to == from) continue;  // intra-module
    IncludeEdge edge;
    edge.from_module = from;
    edge.to_module = std::move(to);
    edge.file = file.path;
    edge.line = i + 1;
    edge.waived_layering =
        line_is_suppressed(file.comments[i], "layering-violation");
    edge.waived_cycle = line_is_suppressed(file.comments[i], "include-cycle");
    found.push_back(std::move(edge));
  }
  return found;
}

LayeringSpec LayeringSpec::parse(std::string_view text) {
  LayeringSpec spec;
  std::size_t layer_count = 0;
  std::size_t start = 0;
  std::size_t line_no = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    const std::size_t first = skip_ws(line, 0);
    if (first >= line.size() || line[first] == '#') continue;
    std::vector<std::string> tokens = split_tokens(line);
    TGI_REQUIRE(!tokens.empty(), "layering spec: empty directive");
    if (tokens[0] == "layer") {
      TGI_REQUIRE(tokens.size() >= 2, "layering spec line " << line_no
                                          << ": `layer` needs at least one "
                                             "module");
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        const auto [it, inserted] = spec.layer_.emplace(tokens[t], layer_count);
        TGI_REQUIRE(inserted, "layering spec line "
                                  << line_no << ": module '" << tokens[t]
                                  << "' appears in more than one layer");
      }
      ++layer_count;
    } else if (tokens[0] == "only") {
      TGI_REQUIRE(tokens.size() >= 2, "layering spec line " << line_no
                                          << ": `only` needs a module");
      std::string module = tokens[1];
      std::size_t dep_start = 2;
      if (!module.empty() && module.back() == ':') {
        module.pop_back();
      } else {
        TGI_REQUIRE(tokens.size() >= 3 && tokens[2] == ":",
                    "layering spec line " << line_no
                                          << ": `only <module>:` needs a "
                                             "colon");
        dep_start = 3;
      }
      TGI_REQUIRE(spec.layer_.count(module) != 0,
                  "layering spec line " << line_no << ": `only` module '"
                                        << module
                                        << "' is not in any layer");
      const auto [it, inserted] = spec.only_.emplace(
          module, std::set<std::string>(tokens.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                dep_start),
                                        tokens.end()));
      TGI_REQUIRE(inserted, "layering spec line "
                                << line_no << ": duplicate `only` for '"
                                << module << "'");
      for (const std::string& dep : it->second) {
        TGI_REQUIRE(spec.layer_.count(dep) != 0,
                    "layering spec line " << line_no << ": `only` dep '"
                                          << dep << "' is not in any layer");
      }
    } else {
      TGI_REQUIRE(false, "layering spec line " << line_no
                             << ": unknown directive '" << tokens[0]
                             << "' (expected `layer` or `only`)");
    }
  }
  TGI_REQUIRE(layer_count > 0, "layering spec declares no layers");
  return spec;
}

std::size_t LayeringSpec::layer_of(std::string_view module) const {
  const auto it = layer_.find(module);
  return it == layer_.end() ? npos : it->second;
}

const std::set<std::string>* LayeringSpec::only_deps(
    std::string_view module) const {
  const auto it = only_.find(module);
  return it == only_.end() ? nullptr : &it->second;
}

std::vector<std::string> LayeringSpec::modules() const {
  std::vector<std::string> out;
  out.reserve(layer_.size());
  for (const auto& [module, layer] : layer_) out.push_back(module);
  return out;  // std::map iterates sorted
}

const LayeringSpec& default_layering_spec() {
  // DESIGN.md §3's dependency order, bottom-up. `lint` sits at the top of
  // the spec but is pinned to util alone: the analyzer must stay buildable
  // and testable without the model stack it audits.
  static const LayeringSpec spec = LayeringSpec::parse(R"(
# tgi module layering, bottom-up (DESIGN.md §3 / §8).
layer util
layer stats
layer power net fs obs
layer sim
layer kernels
layer core
layer harness
layer serve
layer lint
only lint: util
)");
  return spec;
}

void IncludeGraph::add_file(const SourceFile& file) {
  for (IncludeEdge& edge : collect_includes(file)) {
    edges_.push_back(std::move(edge));
  }
}

void IncludeGraph::add_edge(IncludeEdge edge) {
  edges_.push_back(std::move(edge));
}

namespace {

void sort_violations(std::vector<Violation>& out) {
  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
}

}  // namespace

std::vector<Violation> IncludeGraph::check_layering(
    const LayeringSpec& spec, bool honor_waivers) const {
  std::vector<Violation> out;
  for (const IncludeEdge& edge : edges_) {
    if (honor_waivers && edge.waived_layering) continue;
    const std::size_t from_layer = spec.layer_of(edge.from_module);
    const std::size_t to_layer = spec.layer_of(edge.to_module);
    std::string message;
    if (from_layer == LayeringSpec::npos) {
      message = "module '" + edge.from_module +
                "' is not declared in the layering spec";
    } else if (to_layer == LayeringSpec::npos) {
      message = "include of '" + edge.to_module +
                "', which is not declared in the layering spec";
    } else if (const std::set<std::string>* pin =
                   spec.only_deps(edge.from_module);
               pin != nullptr && pin->count(edge.to_module) == 0) {
      std::ostringstream allowed;
      const char* sep = "";
      for (const std::string& dep : *pin) {
        allowed << sep << dep;
        sep = ", ";
      }
      message = "module '" + edge.from_module + "' includes '" +
                edge.to_module + "' outside its `only` pin (allowed: " +
                allowed.str() + ")";
    } else if (to_layer >= from_layer) {
      message = "module '" + edge.from_module + "' (layer " +
                std::to_string(from_layer) + ") includes '" + edge.to_module +
                "' (layer " + std::to_string(to_layer) +
                "); modules may include only strictly lower layers";
    }
    if (!message.empty()) {
      out.push_back(Violation{edge.file, edge.line, "layering-violation",
                              std::move(message)});
    }
  }
  sort_violations(out);
  return out;
}

std::vector<Violation> IncludeGraph::check_cycles(bool honor_waivers) const {
  // Module-level adjacency, with every concrete edge kept per module pair
  // so cycle reports can be anchored at a real include line.
  std::map<std::string, std::set<std::string>> adjacency;
  std::map<std::pair<std::string, std::string>, std::vector<const IncludeEdge*>>
      concrete;
  for (const IncludeEdge& edge : edges_) {
    adjacency[edge.from_module].insert(edge.to_module);
    adjacency[edge.to_module];  // ensure the node exists
    concrete[{edge.from_module, edge.to_module}].push_back(&edge);
  }

  // Iterative-order-stable DFS (std::map / std::set give sorted walks, so
  // reports are deterministic). A gray hit on the path is a cycle.
  enum class Color { kWhite, kGray, kBlack };
  std::map<std::string, Color> color;
  for (const auto& [node, targets] : adjacency) color[node] = Color::kWhite;
  std::vector<std::string> path;
  std::set<std::string> seen;  // canonical cycle keys already reported
  std::vector<std::vector<std::string>> cycles;

  const std::function<void(const std::string&)> dfs =
      [&](const std::string& node) {
        color[node] = Color::kGray;
        path.push_back(node);
        for (const std::string& next : adjacency[node]) {
          if (color[next] == Color::kWhite) {
            dfs(next);
          } else if (color[next] == Color::kGray) {
            const auto begin =
                std::find(path.begin(), path.end(), next);
            std::vector<std::string> cycle(begin, path.end());
            // Canonical form: rotate so the smallest module leads.
            const auto min_it =
                std::min_element(cycle.begin(), cycle.end());
            std::rotate(cycle.begin(), min_it, cycle.end());
            std::string key;
            for (const std::string& m : cycle) key += m + "->";
            if (seen.insert(key).second) cycles.push_back(std::move(cycle));
          }
        }
        path.pop_back();
        color[node] = Color::kBlack;
      };
  for (const auto& [node, targets] : adjacency) {
    if (color[node] == Color::kWhite) dfs(node);
  }

  std::vector<Violation> out;
  for (const std::vector<std::string>& cycle : cycles) {
    // Collect the concrete edges along the cycle; pick the smallest
    // (file, line) one as the report anchor.
    std::vector<const IncludeEdge*> on_cycle;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      const auto& from = cycle[i];
      const auto& to = cycle[(i + 1) % cycle.size()];
      const auto it = concrete.find({from, to});
      TGI_CHECK(it != concrete.end(),
                "cycle edge " << from << "->" << to << " has no include");
      for (const IncludeEdge* e : it->second) on_cycle.push_back(e);
    }
    if (honor_waivers) {
      const bool all_waived =
          std::all_of(on_cycle.begin(), on_cycle.end(),
                      [](const IncludeEdge* e) { return e->waived_cycle; });
      if (all_waived) continue;
    }
    const IncludeEdge* anchor = *std::min_element(
        on_cycle.begin(), on_cycle.end(),
        [](const IncludeEdge* a, const IncludeEdge* b) {
          if (a->file != b->file) return a->file < b->file;
          return a->line < b->line;
        });
    std::string ring;
    for (const std::string& m : cycle) ring += m + " -> ";
    ring += cycle.front();
    out.push_back(Violation{anchor->file, anchor->line, "include-cycle",
                            "module dependency cycle: " + ring});
  }
  sort_violations(out);
  return out;
}

}  // namespace tgi::lint
