#pragma once
// Shared command-line surface for the bench binaries.
//
// Every bench_* main used to hand-roll the same strcmp/atoi loop; this
// header gives them one declarative parser so scripts and CI see a uniform
// flag vocabulary. Canonical names (use these when a binary grows the
// concept, rather than inventing a synonym):
//
//   --json PATH    machine-readable output file
//   --csv PATH     time-series / tabular CSV output file
//   --seeds N      number of seeds to sweep
//   --jobs N       parallel worker processes
//   --quick        cut the run short for smoke-testing (binary-defined)
//
// `--help`/`-h` and unknown-flag handling come for free. parse() returns
// false on bad usage after printing the usage text; mains `return 2`.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

namespace vnet::bench {

class Args {
 public:
  explicit Args(std::string summary) : summary_(std::move(summary)) {}

  /// Boolean switch: present -> *out = true.
  Args& flag(const char* name, bool* out, const char* help) {
    opts_.push_back({name, "", help, false, [out](const char*) { *out = true; }});
    return *this;
  }

  Args& option(const char* name, std::string* out, const char* metavar,
               const char* help) {
    opts_.push_back(
        {name, metavar, help, true, [out](const char* v) { *out = v; }});
    return *this;
  }

  Args& option(const char* name, int* out, const char* metavar,
               const char* help) {
    opts_.push_back({name, metavar, help, true,
                     [out](const char* v) { *out = std::atoi(v); }});
    return *this;
  }

  Args& option(const char* name, std::uint64_t* out, const char* metavar,
               const char* help) {
    opts_.push_back({name, metavar, help, true, [out](const char* v) {
                       *out = std::strtoull(v, nullptr, 10);
                     }});
    return *this;
  }

  Args& option(const char* name, double* out, const char* metavar,
               const char* help) {
    opts_.push_back({name, metavar, help, true,
                     [out](const char* v) { *out = std::atof(v); }});
    return *this;
  }

  /// Collects non-flag arguments instead of rejecting them.
  Args& positionals(std::vector<std::string>* out, const char* metavar) {
    positional_ = out;
    positional_metavar_ = metavar;
    return *this;
  }

  /// True on success. On bad usage, prints the usage text to stderr and
  /// returns false; `--help` prints to stdout and exits 0.
  bool parse(int argc, char** argv) {
    prog_ = argv[0];
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
        usage(stdout);
        std::exit(0);
      }
      const Opt* o = find(a);
      if (o == nullptr) {
        if (positional_ != nullptr && a[0] != '-') {
          positional_->push_back(a);
          continue;
        }
        std::fprintf(stderr, "%s: unknown argument '%s'\n", prog_, a);
        usage(stderr);
        return false;
      }
      const char* v = "";
      if (o->takes_value) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s: %s requires a value\n", prog_, a);
          usage(stderr);
          return false;
        }
        v = argv[++i];
      }
      o->apply(v);
    }
    return true;
  }

  void usage(std::FILE* f) const {
    std::fprintf(f, "usage: %s", prog_ != nullptr ? prog_ : "bench");
    for (const Opt& o : opts_) {
      if (o.takes_value) {
        std::fprintf(f, " [%s %s]", o.name, o.metavar);
      } else {
        std::fprintf(f, " [%s]", o.name);
      }
    }
    if (positional_ != nullptr) std::fprintf(f, " [%s...]", positional_metavar_);
    std::fprintf(f, "\n");
    if (!summary_.empty()) std::fprintf(f, "%s\n", summary_.c_str());
    for (const Opt& o : opts_) {
      char lhs[64];
      std::snprintf(lhs, sizeof lhs, "%s %s", o.name,
                    o.takes_value ? o.metavar : "");
      std::fprintf(f, "  %-22s %s\n", lhs, o.help);
    }
  }

 private:
  struct Opt {
    const char* name;
    const char* metavar;
    const char* help;
    bool takes_value;
    std::function<void(const char*)> apply;
  };

  const Opt* find(const char* a) const {
    for (const Opt& o : opts_) {
      if (!std::strcmp(o.name, a)) return &o;
    }
    return nullptr;
  }

  std::string summary_;
  const char* prog_ = nullptr;
  std::vector<Opt> opts_;
  std::vector<std::string>* positional_ = nullptr;
  const char* positional_metavar_ = "ARG";
};

/// Writes `bytes` to `path`; false if the file cannot be fully written.
inline bool write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                  bytes.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace vnet::bench
