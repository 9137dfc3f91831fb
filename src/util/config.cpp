#include "util/config.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <string_view>

#include "util/error.h"
#include "util/number.h"

namespace tgi::util {

namespace {
std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}
}  // namespace

long long parse_int(const std::string& text, const std::string& what) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(text, &pos);
    TGI_REQUIRE(pos == text.size(), "trailing characters");
    return v;
  } catch (const std::exception&) {
    throw PreconditionError(what + " is not an integer: '" + text + "'");
  }
}

double parse_double(const std::string& text, const std::string& what) {
  const ParsedDouble v = parse_double(std::string_view(text));
  if (!v.complete || v.range_error) {
    throw PreconditionError(what + " is not a number: '" + text + "'");
  }
  if (!std::isfinite(v.value)) {
    throw PreconditionError(what + " is not a finite number: '" + text +
                            "'");
  }
  return v.value;
}

std::vector<double> parse_double_list(const std::string& text,
                                      const std::string& what) {
  std::vector<double> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    const std::string stripped = trim(item);
    if (stripped.empty()) continue;
    out.push_back(parse_double(
        stripped, what + " item " + std::to_string(out.size() + 1)));
  }
  TGI_REQUIRE(!out.empty(), what << " is an empty list");
  return out;
}

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    const auto eq = stripped.find('=');
    TGI_REQUIRE(eq != std::string::npos,
                "config line " << lineno << " is not `key = value`: '"
                               << stripped << "'");
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    TGI_REQUIRE(!key.empty(), "config line " << lineno << " has empty key");
    cfg.set(key, value);
  }
  return cfg;
}

Config Config::from_args(int argc, const char* const* argv,
                         const std::vector<std::string>& flag_keys) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string body = token.substr(2);
      const std::string name = body.substr(0, body.find('='));
      const bool listed = std::find(flag_keys.begin(), flag_keys.end(),
                                    name) != flag_keys.end();
      if (listed && name != body) {
        token = body;
      } else if (listed && i + 1 < argc) {
        token = name + "=" + argv[++i];
      }
    }
    const auto eq = token.find('=');
    TGI_REQUIRE(eq != std::string::npos && eq > 0,
                "argument '" << token << "' is not key=value");
    cfg.set(trim(token.substr(0, eq)), trim(token.substr(eq + 1)));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return get(key).value_or(fallback);
}

long long Config::get_int(const std::string& key, long long fallback) const {
  const auto raw = get(key);
  if (!raw) return fallback;
  return parse_int(*raw, "config key '" + key + "'");
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto raw = get(key);
  if (!raw) return fallback;
  return parse_double(*raw, "config key '" + key + "'");
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto raw = get(key);
  if (!raw) return fallback;
  if (*raw == "true" || *raw == "1" || *raw == "yes" || *raw == "on") {
    return true;
  }
  if (*raw == "false" || *raw == "0" || *raw == "no" || *raw == "off") {
    return false;
  }
  throw PreconditionError("config key '" + key + "' is not a boolean: '" +
                          *raw + "'");
}

std::vector<long long> Config::get_int_list(
    const std::string& key, const std::vector<long long>& fallback) const {
  const auto raw = get(key);
  if (!raw) return fallback;
  std::vector<long long> out;
  std::istringstream in(*raw);
  std::string item;
  while (std::getline(in, item, ',')) {
    const std::string stripped = trim(item);
    if (stripped.empty()) continue;
    // Whole-item parse: "12abc" used to slip through a bare std::stoll.
    out.push_back(parse_int(stripped, "config key '" + key + "' item " +
                                          std::to_string(out.size() + 1)));
  }
  TGI_REQUIRE(!out.empty(), "config key '" << key << "' is an empty list");
  return out;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

void require_known_keys(const Config& config,
                        const std::vector<std::string>& allowed,
                        const std::string& context) {
  for (const std::string& key : config.keys()) {
    bool known = false;
    for (const std::string& candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (known) continue;
    std::string options;
    for (const std::string& candidate : allowed) {
      if (!options.empty()) options += ", ";
      options += candidate;
    }
    throw PreconditionError(context + ": unknown option '" + key +
                            "' (valid options: " + options + ")");
  }
}

}  // namespace tgi::util
