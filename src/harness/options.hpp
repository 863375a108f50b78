// Tiny CLI parser for the bench binaries. Flags are `--name value`,
// `--name=value`, or bare `--name` (boolean).
//
// Two modes. The lenient parse(argc, argv) keeps every flag it is
// given without checking its name -- a mistyped flag is silently
// ignored -- and a malformed value warns on stderr and falls back to
// the default. The strict parse(argc, argv, known, usage) checks every
// name against the binary's own flags plus the shared ones every bench
// reads (--help, --threads, --paper, --no-pin): --help prints
// the usage and exits 0, and an unknown flag, a stray argument or a
// malformed value (also a bare value flag) prints the usage to stderr
// and exits 2, before the binary runs anything.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pragmalist::harness {

class Options {
 public:
  static Options parse(int argc, char** argv);
  static Options parse(int argc, char** argv,
                       const std::vector<std::string_view>& known,
                       std::string usage);

  /// Print "<program>: <msg>" and the usage to stderr and exit 2 --
  /// how a strict binary rejects a flag value it validates itself.
  [[noreturn]] void usage_error(const std::string& msg) const;

  /// Value of --name as int/long, or `def` when absent.
  int get_int(const std::string& name, int def) const;
  long get_long(const std::string& name, long def) const;

  /// Value of --name as double (e.g. --theta 0.99), or `def`.
  double get_double(const std::string& name, double def) const;

  /// True when --name was given (with no value, or a value other than
  /// "0"/"false"/"no").
  bool get_bool(const std::string& name) const;

  /// Raw string value of --name, or `def` when absent or bare.
  std::string get_string(const std::string& name,
                         const std::string& def) const;

  /// Comma-separated list of longs (e.g. --threads 1,2,4), or `def`
  /// when the flag is absent, bare, or yields no items. Empty items
  /// ("1,,2") are skipped; non-integer items warn and parse as 0 (the
  /// same contract as get_long). One splitter serves this and
  /// get_string_list -- the comma-list parsing the bench binaries used
  /// to hand-roll lives here exactly once.
  std::vector<long> get_longs(const std::string& name,
                              const std::vector<long>& def) const;

  /// Comma-separated list of strings (e.g. --ids a,b/ebr), or `def`.
  std::vector<std::string> get_string_list(
      const std::string& name, const std::vector<std::string>& def) const;

  /// "host:port" flag value (e.g. --listen 0.0.0.0:7111). Either side
  /// may be omitted: ":7111" keeps def.host, "10.0.0.1" or "10.0.0.1:"
  /// keeps def.port. A non-numeric or out-of-range port warns and
  /// returns `def` whole (the get_long contract).
  struct HostPort {
    std::string host;
    int port = 0;
  };
  HostPort get_host_port(const std::string& name, const HostPort& def) const;

  /// Duration flag with unit suffix: "500ms", "5s", "2m", "1h"; a bare
  /// number means SECONDS (so the historical `--duration 5` keeps
  /// meaning five seconds). Returns milliseconds. Fractions work
  /// ("0.5s" = 500); junk or negative values warn and return `def_ms`.
  long get_duration_ms(const std::string& name, long def_ms) const;

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  struct Flag {
    std::string name;
    std::string value;  // empty for bare flags
    bool has_value = false;
  };

  /// Split argv into flags and stray (non-flag) arguments.
  static Options tokenize(int argc, char** argv);
  const Flag* lookup(const std::string& name) const;
  /// lookup() for a value getter: nullptr when absent (or bare, when
  /// lenient); a strict parse rejects a bare value flag.
  const Flag* valued(const std::string& name) const;
  /// A value that does not parse: strict exits 2, lenient warns
  /// "options: <problem>; using <fallback>" and the caller falls back.
  void malformed(const std::string& problem,
                 const std::string& fallback) const;
  long parse_long(const std::string& name, const std::string& value,
                  long def) const;

  std::string program_;
  std::vector<Flag> flags_;
  std::vector<std::string> strays_;
  bool strict_ = false;
  std::string usage_;
};

}  // namespace pragmalist::harness
