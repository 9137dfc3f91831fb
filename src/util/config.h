// Tiny key=value configuration parser.
//
// Bench harnesses accept overrides ("sweep=16,32,64", "seed=42") either from
// a file or from command-line `key=value` tokens; both funnel through this
// parser so every experiment is scriptable without recompiling.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tgi::util {

/// Checked numeric parsing — the engine behind Config's typed getters,
/// exposed for CLI code so every number entering the system is validated
/// the same way. The WHOLE string must parse: empty strings and trailing
/// garbage ("0.5x", "12abc") throw PreconditionError naming `what` (e.g.
/// "config key 'pue'", "weight 2"), never a bare std::invalid_argument.
/// parse_double reads strtod's grammar through util::parse_double
/// (util/number.h) and refuses what the measurement CSV refuses (a range
/// error such as "1e400") plus any non-finite value ("inf", "nan"): no
/// configured quantity is meaningful at infinity.
[[nodiscard]] long long parse_int(const std::string& text,
                                  const std::string& what);
[[nodiscard]] double parse_double(const std::string& text,
                                  const std::string& what);

/// Parses a comma-separated list of numbers ("0.1,0.7,0.2") with the same
/// whole-string discipline per item; surrounding whitespace is trimmed and
/// empty items are skipped. Throws PreconditionError when an item is
/// malformed or the list ends up empty.
[[nodiscard]] std::vector<double> parse_double_list(const std::string& text,
                                                    const std::string& what);

/// An ordered key -> string-value map with typed getters.
///
/// Grammar: one `key = value` per line; '#' starts a comment; blank lines
/// and surrounding whitespace are ignored. Later assignments win.
class Config {
 public:
  Config() = default;

  /// Parses configuration text. Throws TgiError on malformed lines.
  static Config parse(const std::string& text);

  /// Parses `key=value` command-line tokens (argv[1..)). Every key in
  /// `flag_keys` may also be spelled `--key VALUE` or `--key=VALUE`. Any
  /// other token without '=' is rejected.
  static Config from_args(int argc, const char* const* argv,
                          const std::vector<std::string>& flag_keys = {});

  /// Sets or overwrites a key.
  void set(const std::string& key, const std::string& value);

  /// True if the key is present.
  [[nodiscard]] bool has(const std::string& key) const;

  /// Raw string lookup.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Typed lookups with defaults. Throw TgiError when present but malformed.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] long long get_int(const std::string& key,
                                  long long fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Parses a comma-separated integer list, e.g. "16,32,64".
  [[nodiscard]] std::vector<long long> get_int_list(
      const std::string& key, const std::vector<long long>& fallback) const;

  /// All keys in insertion-independent (sorted) order.
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
};

/// Rejects unknown configuration keys: every key in `config` must appear in
/// `allowed`, else PreconditionError naming the offending key, the
/// `context` (e.g. "tgi_sweep"), and the full list of valid options — so a
/// typo like `thread=8` fails loudly instead of being silently swallowed.
void require_known_keys(const Config& config,
                        const std::vector<std::string>& allowed,
                        const std::string& context);

}  // namespace tgi::util
