#include "src/harness/options.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>

namespace pragmalist::harness {
namespace {

/// Flags every strict binary accepts: --help and the thread/pinning
/// flags the bench helpers read (bench::default_threads, --no-pin).
constexpr std::string_view kSharedFlags[] = {"help", "threads", "paper",
                                             "no-pin"};

}  // namespace

Options Options::tokenize(int argc, char** argv) {
  Options opt;
  if (argc > 0) opt.program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opt.strays_.push_back(std::move(arg));
      continue;
    }
    Flag flag;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flag.name = arg.substr(2, eq - 2);
      flag.value = arg.substr(eq + 1);
      flag.has_value = true;
    } else {
      flag.name = arg.substr(2);
      // A following token that is not itself a flag is this flag's
      // value ("--threads 8").
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flag.value = argv[++i];
        flag.has_value = true;
      }
    }
    opt.flags_.push_back(std::move(flag));
  }
  return opt;
}

Options Options::parse(int argc, char** argv) {
  Options opt = tokenize(argc, argv);
  for (const auto& arg : opt.strays_)
    std::fprintf(stderr, "options: ignoring stray argument '%s'\n",
                 arg.c_str());
  return opt;
}

Options Options::parse(int argc, char** argv,
                       const std::vector<std::string_view>& known,
                       std::string usage) {
  Options opt = tokenize(argc, argv);
  opt.strict_ = true;
  opt.usage_ = std::move(usage);
  if (opt.get_bool("help")) {
    std::fputs(opt.usage_.c_str(), stdout);
    std::exit(0);
  }
  for (const auto& flag : opt.flags_) {
    const auto is = [&](std::string_view name) { return name == flag.name; };
    if (std::none_of(known.begin(), known.end(), is) &&
        std::none_of(std::begin(kSharedFlags), std::end(kSharedFlags), is))
      opt.usage_error("unknown flag --" + flag.name);
  }
  if (!opt.strays_.empty())
    opt.usage_error("stray argument '" + opt.strays_.front() + "'");
  return opt;
}

void Options::usage_error(const std::string& msg) const {
  std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), msg.c_str(),
               usage_.c_str());
  std::exit(2);
}

const Options::Flag* Options::lookup(const std::string& name) const {
  for (const auto& flag : flags_)
    if (flag.name == name) return &flag;
  return nullptr;
}

const Options::Flag* Options::valued(const std::string& name) const {
  const Flag* flag = lookup(name);
  if (flag == nullptr || flag->has_value) return flag;
  if (strict_) usage_error("--" + name + " needs a value");
  return nullptr;
}

void Options::malformed(const std::string& problem,
                        const std::string& fallback) const {
  if (strict_) usage_error(problem);
  std::fprintf(stderr, "options: %s; using %s\n", problem.c_str(),
               fallback.c_str());
}

/// strtol with a full-consumption check: "--c 1e6" or "--threads four"
/// must not silently become 1 or 0.
long Options::parse_long(const std::string& name, const std::string& value,
                         long def) const {
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end != value.c_str() && *end == '\0') return parsed;
  malformed("--" + name + " value '" + value + "' is not an integer",
            std::to_string(def));
  return def;
}

int Options::get_int(const std::string& name, int def) const {
  return static_cast<int>(get_long(name, def));
}

long Options::get_long(const std::string& name, long def) const {
  const Flag* flag = valued(name);
  return flag == nullptr ? def : parse_long(name, flag->value, def);
}

double Options::get_double(const std::string& name, double def) const {
  const Flag* flag = valued(name);
  if (flag == nullptr) return def;
  char* end = nullptr;
  const double parsed = std::strtod(flag->value.c_str(), &end);
  if (end != flag->value.c_str() && *end == '\0') return parsed;
  std::ostringstream fallback;
  fallback << def;
  malformed("--" + name + " value '" + flag->value + "' is not a number",
            fallback.str());
  return def;
}

bool Options::get_bool(const std::string& name) const {
  const Flag* flag = lookup(name);
  if (flag == nullptr) return false;
  if (!flag->has_value) return true;
  return flag->value != "0" && flag->value != "false" && flag->value != "no";
}

std::string Options::get_string(const std::string& name,
                                const std::string& def) const {
  const Flag* flag = valued(name);
  if (flag == nullptr) return def;
  return flag->value;
}

namespace {

/// The one comma splitter behind every list-valued flag: non-empty
/// items of `value`, in order.
std::vector<std::string> split_commas(const std::string& value) {
  std::vector<std::string> items;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) items.push_back(item);
  return items;
}

}  // namespace

std::vector<long> Options::get_longs(const std::string& name,
                                     const std::vector<long>& def) const {
  const Flag* flag = valued(name);
  if (flag == nullptr) return def;
  std::vector<long> values;
  for (const auto& item : split_commas(flag->value))
    values.push_back(parse_long(name, item, 0));
  return values.empty() ? def : values;
}

std::vector<std::string> Options::get_string_list(
    const std::string& name, const std::vector<std::string>& def) const {
  const Flag* flag = valued(name);
  if (flag == nullptr) return def;
  std::vector<std::string> values = split_commas(flag->value);
  return values.empty() ? def : values;
}

Options::HostPort Options::get_host_port(const std::string& name,
                                         const HostPort& def) const {
  const Flag* flag = lookup(name);
  if (flag == nullptr || !flag->has_value) return def;
  const std::string& value = flag->value;
  const auto colon = value.rfind(':');

  HostPort hp = def;
  const std::string host =
      colon == std::string::npos ? value : value.substr(0, colon);
  if (!host.empty()) hp.host = host;
  if (colon != std::string::npos && colon + 1 < value.size()) {
    const std::string port = value.substr(colon + 1);
    char* end = nullptr;
    const long parsed = std::strtol(port.c_str(), &end, 10);
    if (end == port.c_str() || *end != '\0' || parsed < 0 ||
        parsed > 65535) {
      std::fprintf(
          stderr,
          "options: --%s port '%s' is not in [0, 65535]; using %s:%d\n",
          name.c_str(), port.c_str(), def.host.c_str(), def.port);
      return def;
    }
    hp.port = static_cast<int>(parsed);
  }
  return hp;
}

long Options::get_duration_ms(const std::string& name, long def_ms) const {
  const Flag* flag = lookup(name);
  if (flag == nullptr || !flag->has_value) return def_ms;
  const std::string& value = flag->value;
  char* end = nullptr;
  const double number = std::strtod(value.c_str(), &end);
  const std::string unit(end);
  double scale_ms;  // a bare number is seconds, the historical unit
  if (unit.empty() || unit == "s")
    scale_ms = 1000.0;
  else if (unit == "ms")
    scale_ms = 1.0;
  else if (unit == "m")
    scale_ms = 60.0 * 1000.0;
  else if (unit == "h")
    scale_ms = 3600.0 * 1000.0;
  else
    scale_ms = -1.0;  // unknown suffix
  if (end == value.c_str() || scale_ms < 0 || number < 0) {
    std::fprintf(stderr,
                 "options: --%s value '%s' is not a duration "
                 "(try 500ms, 5s, 2m, 1h); using %ldms\n",
                 name.c_str(), value.c_str(), def_ms);
    return def_ms;
  }
  return static_cast<long>(number * scale_ms);
}

}  // namespace pragmalist::harness
