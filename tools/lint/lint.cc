#include "tools/lint/lint.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <map>
// libstdc++ 12's <regex> moves std::function members through a temporary
// that GCC, at -O2 with -fsanitize=address,undefined, reports as maybe used
// uninitialized (bits/regex_automaton.h); the warning is about the library
// header, so it is silenced for that header alone.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <regex>
#pragma GCC diagnostic pop
#include <set>
#include <sstream>
#include <utility>

namespace shmcaffe::lint {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string_view basename_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string lowercase(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::string trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return std::string(s.substr(begin, end - begin));
}

/// One `lint:allow` suppression entry, with usage tracking: the stale-allow
/// pass reports entries that suppressed nothing over the whole-repo run.
struct AllowEntry {
  int anno_line = 0;    ///< 1-based line the annotation comment sits on
  int target_line = 0;  ///< 1-based line it suppresses
  std::string rule;
  bool used = false;
};
using FileAllows = std::vector<AllowEntry>;

/// `lint:allow(rule[,rule...])` annotations, extracted from the *raw* source
/// (they live inside comments, which the scrubber removes).
/// `lint:allow-next-line(...)` attaches its rules to the following line, for
/// declarations too long to carry a trailing comment.
FileAllows collect_allows(std::string_view contents) {
  static const std::regex kAllow(R"(lint:allow(-next-line)?\(([a-z0-9][a-z0-9,\s-]*)\))");
  std::vector<std::string> raw_lines;
  {
    std::size_t begin = 0;
    while (begin <= contents.size()) {
      std::size_t end = contents.find('\n', begin);
      if (end == std::string_view::npos) end = contents.size();
      raw_lines.emplace_back(contents.substr(begin, end - begin));
      if (end == contents.size()) break;
      begin = end + 1;
    }
  }
  FileAllows entries;
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& line = raw_lines[i];
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kAllow);
         it != std::sregex_iterator(); ++it) {
      const int anno_line = static_cast<int>(i) + 1;
      const int target_line = (*it)[1].matched ? anno_line + 1 : anno_line;
      std::stringstream rules((*it)[2].str());
      std::string rule;
      while (std::getline(rules, rule, ',')) {
        rule = trim(rule);
        if (!rule.empty()) entries.push_back(AllowEntry{anno_line, target_line, rule, false});
      }
    }
  }
  return entries;
}

std::vector<std::string> split_lines(std::string_view contents) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin <= contents.size()) {
    std::size_t end = contents.find('\n', begin);
    if (end == std::string_view::npos) end = contents.size();
    lines.emplace_back(contents.substr(begin, end - begin));
    if (end == contents.size()) break;
    begin = end + 1;
  }
  return lines;
}

/// True if a suppression for `rule` targets `line`; every matching entry is
/// marked used (the stale-allow pass reports the never-used ones).
bool allowed(FileAllows& allows, int line, std::string_view rule) {
  bool hit = false;
  for (AllowEntry& entry : allows) {
    if (entry.target_line == line && entry.rule == rule) {
      entry.used = true;
      hit = true;
    }
  }
  return hit;
}

/// Top-level project directories: a quoted include must start with one of
/// these, and an angle include must not.
constexpr std::array<std::string_view, 18> kProjectDirs = {
    "common/", "core/",     "smb/",  "sim/",  "net/",       "rdma/",
    "minimpi/", "coll/",    "dl/",   "data/", "cluster/",   "baselines/",
    "fault/",   "bench/",   "tests/", "tools/", "recovery/", "elastic/"};

bool is_project_include(std::string_view target) {
  for (const std::string_view dir : kProjectDirs) {
    if (starts_with(target, dir)) return true;
  }
  return false;
}

// --- include-layering: the declared src/ directory DAG ----------------------
//
// Each entry lists the directories a src/<dir>/ source may include from
// (same-directory includes are always allowed and not listed).  The DAG is
// documented in DESIGN.md ("Include layering"); edges point strictly
// downward, so an upward or cyclic include cannot be expressed — the rule
// reports it instead.  Growing a new dependency means adding the edge here
// *and* justifying it in DESIGN.md.
struct LayerEntry {
  std::string_view dir;
  std::vector<std::string_view> deps;
};

const std::vector<LayerEntry>& layering_table() {
  static const std::vector<LayerEntry> table = {
      {"common", {}},
      {"sim", {"common"}},
      {"fault", {"common"}},
      {"dl", {"common"}},
      {"cluster", {"common", "fault"}},
      {"net", {"common", "sim"}},
      {"data", {"common", "dl"}},
      {"rdma", {"common", "net", "sim"}},
      {"minimpi", {"common", "net", "sim"}},
      {"smb", {"common", "net", "rdma", "sim"}},
      {"coll", {"common", "minimpi"}},
      {"recovery", {"common", "fault", "smb"}},
      {"elastic", {"common", "fault", "recovery"}},
      {"core",
       {"cluster", "coll", "common", "data", "dl", "elastic", "fault", "minimpi", "net",
        "recovery", "sim", "smb"}},
      {"baselines",
       {"cluster", "coll", "common", "core", "data", "dl", "elastic", "fault", "minimpi",
        "net", "sim"}},
  };
  return table;
}

const LayerEntry* layer_of(std::string_view dir) {
  for (const LayerEntry& entry : layering_table()) {
    if (entry.dir == dir) return &entry;
  }
  return nullptr;
}

struct PatternRule {
  const char* rule;
  std::regex pattern;
  const char* message;
};

const std::vector<PatternRule>& rng_patterns() {
  static const std::vector<PatternRule> rules = [] {
    std::vector<PatternRule> r;
    r.push_back({"rng-source", std::regex(R"(\b(rand|srand)\s*\()"),
                 "raw libc entropy; draw from a seeded common::Rng instead"});
    r.push_back({"rng-source", std::regex(R"(\brandom_device\b)"),
                 "std::random_device is nondeterministic; seed a common::Rng explicitly"});
    r.push_back({"rng-source",
                 std::regex(R"(\b(mt19937(_64)?|minstd_rand0?|default_random_engine|ranlux\w+)\b)"),
                 "std::<random> engine; the project's only generator is common::Rng"});
    return r;
  }();
  return rules;
}

const std::vector<PatternRule>& sim_clock_patterns() {
  static const std::vector<PatternRule> rules = [] {
    std::vector<PatternRule> r;
    r.push_back({"sim-wall-clock",
                 std::regex(R"(\b(steady_clock|high_resolution_clock)\b)"),
                 "wall clock in simulated code; use the Simulation's virtual clock"});
    r.push_back({"sim-wall-clock", std::regex(R"(\b(sleep_for|sleep_until)\b)"),
                 "thread sleep in simulated code; co_await sim.delay(...) instead"});
    r.push_back({"sim-wall-clock", std::regex(R"(\bthis_thread\b)"),
                 "std::this_thread in simulated code; sim processes are coroutines"});
    return r;
  }();
  return rules;
}

/// Paths where spawning std::thread directly is the point: the work pool
/// itself, the Fig. 6 worker protocol (update thread + worker launch), and
/// the MiniMPI / simulation internals that model hosts as threads.
/// Everything else under src/ parallelises through common/parallel.h; a raw
/// thread there is either compute parallelism that would break thread-count
/// determinism or a lifecycle hazard the pool already solves.
bool raw_thread_allowed_path(std::string_view path) {
  return starts_with(path, "src/common/parallel.") ||
         starts_with(path, "src/core/trainer.cc") ||
         starts_with(path, "src/minimpi/") || starts_with(path, "src/sim/");
}

// --- pass 1: the declaration index ------------------------------------------

/// Strips C++ attributes (`[[...]]`) from a statement.
std::string strip_attributes(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '[' && i + 1 < s.size() && s[i + 1] == '[') {
      const std::size_t close = s.find("]]", i + 2);
      if (close == std::string_view::npos) break;
      i = close + 1;
      continue;
    }
    out.push_back(s[i]);
  }
  return out;
}

/// Identifier tokens of a statement, in order.
std::vector<std::string> identifier_tokens(std::string_view s) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < s.size()) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (std::isalpha(c) || c == '_') {
      std::size_t j = i;
      while (j < s.size() && (std::isalnum(static_cast<unsigned char>(s[j])) || s[j] == '_')) {
        ++j;
      }
      tokens.emplace_back(s.substr(i, j - i));
      i = j;
    } else {
      ++i;
    }
  }
  return tokens;
}

bool has_token(const std::vector<std::string>& tokens, std::string_view token) {
  return std::find(tokens.begin(), tokens.end(), token) != tokens.end();
}

/// True if `s` contains a '(' outside template angle brackets.  Used to tell
/// function declarations/definitions from field declarations: a field's
/// parens (std::function<void(int)>) only ever live inside its template
/// arguments once initialisers are cut.
bool has_top_level_paren(std::string_view s) {
  int angle = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char next = i + 1 < s.size() ? s[i + 1] : '\0';
    if (c == '<') {
      if (next == '<' || next == '=') {
        ++i;
        continue;
      }
      ++angle;
    } else if (c == '>') {
      if (i > 0 && s[i - 1] == '-') continue;  // ->
      if (next == '=') {
        ++i;
        continue;
      }
      if (next == '>' && angle >= 2) {
        angle -= 2;
        ++i;
        continue;
      }
      if (angle > 0) --angle;
    } else if (c == '(' && angle == 0) {
      return true;
    }
  }
  return false;
}

/// Position of the first `wanted` character outside parens/brackets/angles,
/// or npos.  `::` never counts as the ':' it contains.
std::size_t top_level_pos(std::string_view s, char wanted) {
  int angle = 0;
  int paren = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char next = i + 1 < s.size() ? s[i + 1] : '\0';
    if (c == '(' || c == '[') {
      ++paren;
    } else if (c == ')' || c == ']') {
      if (paren > 0) --paren;
    } else if (c == '<') {
      if (next == '<' || next == '=') {
        ++i;
        continue;
      }
      ++angle;
    } else if (c == '>') {
      if (i > 0 && s[i - 1] == '-') continue;
      if (next == '=') {
        ++i;
        continue;
      }
      if (next == '>' && angle >= 2) {
        angle -= 2;
        ++i;
        continue;
      }
      if (angle > 0) --angle;
    } else if (c == ':' && (next == ':' || (i > 0 && s[i - 1] == ':'))) {
      continue;  // scope resolution
    } else if (c == wanted && angle == 0 && paren == 0) {
      // '=' must be the assignment, not ==, <=, >=, != (the angle branch
      // already swallowed <= / >=).
      if (wanted == '=' && (next == '=' || (i > 0 && (s[i - 1] == '=' || s[i - 1] == '!')))) {
        continue;
      }
      return i;
    }
  }
  return std::string_view::npos;
}

/// Extracts and removes SHMCAFFE_GUARDED_BY(...) / SHMCAFFE_UNGUARDED /
/// SHMCAFFE_PIN_ESCAPE from a declaration statement.
void extract_annotations(std::string& stmt, bool& guarded, std::string& guard,
                         bool& unguarded, bool& pin_escape) {
  static const std::string kGuardedBy = "SHMCAFFE_GUARDED_BY";
  static const std::string kUnguarded = "SHMCAFFE_UNGUARDED";
  static const std::string kPinEscape = "SHMCAFFE_PIN_ESCAPE";
  for (std::size_t at; (at = stmt.find(kPinEscape)) != std::string::npos;) {
    pin_escape = true;
    stmt.erase(at, kPinEscape.size());
  }
  std::size_t at = stmt.find(kGuardedBy);
  if (at != std::string::npos) {
    std::size_t open = stmt.find('(', at + kGuardedBy.size());
    if (open != std::string::npos) {
      int depth = 1;
      std::size_t close = open + 1;
      while (close < stmt.size() && depth > 0) {
        if (stmt[close] == '(') ++depth;
        if (stmt[close] == ')') --depth;
        ++close;
      }
      guarded = true;
      guard = trim(stmt.substr(open + 1, close - open - 2));
      stmt.erase(at, close - at);
    }
  }
  at = stmt.find(kUnguarded);
  if (at != std::string::npos) {
    unguarded = true;
    stmt.erase(at, kUnguarded.size());
  }
}

/// Position of the first '(' outside template angle brackets, or npos (the
/// position counterpart of has_top_level_paren, for name extraction).
std::size_t top_level_paren_pos(std::string_view s) {
  int angle = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char next = i + 1 < s.size() ? s[i + 1] : '\0';
    if (c == '<') {
      if (next == '<' || next == '=') {
        ++i;
        continue;
      }
      ++angle;
    } else if (c == '>') {
      if (i > 0 && s[i - 1] == '-') continue;  // ->
      if (next == '=') {
        ++i;
        continue;
      }
      if (next == '>' && angle >= 2) {
        angle -= 2;
        ++i;
        continue;
      }
      if (angle > 0) --angle;
    } else if (c == '(' && angle == 0) {
      return i;
    }
  }
  return std::string_view::npos;
}

/// Extracts and removes SHMCAFFE_REQUIRES(...) / SHMCAFFE_DETERMINISTIC /
/// SHMCAFFE_HOT_KERNEL / SHMCAFFE_NONBLOCKING / SHMCAFFE_BLOCKS /
/// SHMCAFFE_PIN_ESCAPE from a function head.
void extract_function_annotations(std::string& head, std::vector<std::string>& requires_locks,
                                  bool& deterministic, bool& hot_kernel, bool& blocks,
                                  bool& nonblocking, bool& pin_escape) {
  static const std::string kRequires = "SHMCAFFE_REQUIRES";
  static const std::string kDeterministic = "SHMCAFFE_DETERMINISTIC";
  static const std::string kHotKernel = "SHMCAFFE_HOT_KERNEL";
  // NONBLOCKING before BLOCKS: neither is a substring of the other, but the
  // order makes the intent explicit.
  static const std::string kNonblocking = "SHMCAFFE_NONBLOCKING";
  static const std::string kBlocks = "SHMCAFFE_BLOCKS";
  static const std::string kPinEscape = "SHMCAFFE_PIN_ESCAPE";
  std::size_t at;
  while ((at = head.find(kRequires)) != std::string::npos) {
    const std::size_t open = head.find('(', at + kRequires.size());
    if (open == std::string::npos) break;
    int depth = 1;
    std::size_t close = open + 1;
    while (close < head.size() && depth > 0) {
      if (head[close] == '(') ++depth;
      if (head[close] == ')') --depth;
      ++close;
    }
    requires_locks.push_back(trim(head.substr(open + 1, close - open - 2)));
    head.erase(at, close - at);
  }
  while ((at = head.find(kDeterministic)) != std::string::npos) {
    deterministic = true;
    head.erase(at, kDeterministic.size());
  }
  while ((at = head.find(kHotKernel)) != std::string::npos) {
    hot_kernel = true;
    head.erase(at, kHotKernel.size());
  }
  while ((at = head.find(kNonblocking)) != std::string::npos) {
    nonblocking = true;
    head.erase(at, kNonblocking.size());
  }
  while ((at = head.find(kBlocks)) != std::string::npos) {
    blocks = true;
    head.erase(at, kBlocks.size());
  }
  while ((at = head.find(kPinEscape)) != std::string::npos) {
    pin_escape = true;
    head.erase(at, kPinEscape.size());
  }
}

/// Last `::` component of a qualified class name.
std::string class_tail(const std::string& qualified) {
  const std::size_t sep = qualified.rfind("::");
  return sep == std::string::npos ? qualified : qualified.substr(sep + 2);
}

/// Splits a function head into the (possibly empty) `Foo::bar` class
/// qualifier and the unqualified name — the qualified identifier immediately
/// before the parameter list.  False when the head is not function-shaped
/// (no top-level parens, an operator, a ctor-init fragment, a keyword).
bool function_head_name(const std::string& head, std::string& class_name, std::string& name) {
  const std::size_t paren = top_level_paren_pos(head);
  if (paren == std::string::npos) return false;
  const std::string before = trim(head.substr(0, paren));
  if (before.empty() || before.front() == ',' || before.front() == ':') return false;
  static const std::regex kTail(
      R"((~?[A-Za-z_][A-Za-z0-9_]*(\s*::\s*~?[A-Za-z_][A-Za-z0-9_]*)*)\s*$)");
  std::smatch m;
  if (!std::regex_search(before, m, kTail)) return false;
  std::string qualified = m[1].str();
  qualified.erase(std::remove_if(qualified.begin(), qualified.end(),
                                 [](unsigned char c) { return std::isspace(c) != 0; }),
                  qualified.end());
  const std::size_t sep = qualified.rfind("::");
  if (sep == std::string::npos) {
    name = qualified;
    class_name.clear();
  } else {
    name = qualified.substr(sep + 2);
    class_name = qualified.substr(0, sep);
  }
  static const std::array<std::string_view, 12> kNotNames = {
      "if", "for", "while", "switch", "return", "sizeof", "decltype", "alignof",
      "catch", "static_assert", "noexcept", "operator"};
  for (const std::string_view keyword : kNotNames) {
    if (name == keyword) return false;
  }
  return !starts_with(name, "SHMCAFFE_");  // a trailing macro, not a function
}

/// Scrubbed source with preprocessor lines (and their backslash
/// continuations) blanked, joined back into one text: the indexer's input.
std::string indexable_text(std::string_view contents) {
  std::vector<std::string> lines = scrub_source(contents);
  bool continuation = false;
  for (std::string& line : lines) {
    const std::string body = trim(line);
    const bool active = continuation || (!body.empty() && body.front() == '#');
    continuation = active && !body.empty() && body.back() == '\\';
    if (active) line.clear();
  }
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i != 0) text.push_back('\n');
    text += lines[i];
  }
  return text;
}

/// Recursive-descent declaration scanner over scrubbed, preprocessor-blanked
/// source.  It understands just enough C++ structure to find class/struct
/// bodies and split them into member declarations: function bodies and
/// initialisers are skipped, nested classes extend the qualified name.
class ClassIndexer {
 public:
  ClassIndexer(std::string text, std::string file, std::vector<ClassInfo>* out,
               std::vector<FunctionInfo>* funcs = nullptr)
      : text_(std::move(text)), file_(std::move(file)), out_(out), funcs_(funcs) {}

  void run() { parse_scope("", -1); }

 private:
  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }

  char get() {
    const char c = text_[pos_++];
    if (c == '\n') ++line_;
    return c;
  }

  /// Consumes a balanced brace block whose '{' was already consumed.
  void skip_braces() {
    int depth = 1;
    while (!eof() && depth > 0) {
      const char c = get();
      if (c == '{') ++depth;
      if (c == '}') --depth;
    }
  }

  /// Consumes a balanced brace block like skip_braces, but returns its text
  /// with newlines preserved (the flow passes map offsets back to lines).
  /// `body_line` is the line of the first body character.
  std::string capture_braces(int& body_line) {
    body_line = line_;
    std::string body;
    int depth = 1;
    while (!eof() && depth > 0) {
      const char c = get();
      if (c == '{') ++depth;
      if (c == '}') --depth;
      if (depth > 0) body.push_back(c);
    }
    return body;
  }

  /// Consumes through the next top-level ';' (trailing declarators after a
  /// class/enum body, the tail of a brace-initialised member).  Stops short
  /// of a scope-closing '}'.
  void consume_to_semicolon() {
    int depth = 0;
    while (!eof()) {
      if (depth == 0 && text_[pos_] == '}') return;
      const char c = get();
      if (c == '{') ++depth;
      if (c == '}') --depth;
      if (c == ';' && depth == 0) return;
    }
  }

  /// Accumulates a statement until ';', '{' or '}' at paren depth 0;
  /// returns the (consumed) terminator, '\0' at EOF.
  char collect(std::string& stmt, int& stmt_line) {
    stmt.clear();
    stmt_line = 0;
    int paren = 0;
    while (!eof()) {
      const char c = text_[pos_];
      if (paren == 0 && (c == ';' || c == '{' || c == '}')) {
        get();
        return c;
      }
      const int at_line = line_;
      get();
      if (c == '(' || c == '[') ++paren;
      if ((c == ')' || c == ']') && paren > 0) --paren;
      if (stmt_line == 0 && !std::isspace(static_cast<unsigned char>(c))) {
        stmt_line = at_line;
      }
      stmt.push_back(c == '\n' ? ' ' : c);
    }
    return '\0';
  }

  /// The (possibly ::-qualified) name after the class-key, or "<anonymous>".
  static std::string class_name_of(const std::string& head) {
    static const std::regex kKey(R"(\b(class|struct|union)\b)");
    static const std::regex kName(R"(^\s*([A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*))");
    std::smatch key;
    if (!std::regex_search(head, key, kKey)) return "<anonymous>";
    const std::string rest = key.suffix().str();
    std::smatch name;
    if (!std::regex_search(rest, name, kName)) return "<anonymous>";
    return name[1].str();
  }

  void parse_scope(const std::string& prefix, int class_index) {
    std::string stmt;
    int stmt_line = 0;
    while (!eof()) {
      const char term = collect(stmt, stmt_line);
      if (term == ';') {
        if (!handle_function(stmt, stmt_line, prefix, false, {}, 0) && class_index >= 0) {
          handle_field(stmt, stmt_line, class_index);
        }
        continue;
      }
      if (term == '}' || term == '\0') return;
      // term == '{': classify the head.
      const std::string head = trim(strip_attributes(stmt));
      if (head.empty()) {
        skip_braces();
        continue;
      }
      const std::vector<std::string> tokens = identifier_tokens(head);
      if (top_level_pos(head, '=') != std::string::npos && !has_token(tokens, "operator")) {
        // `type name = { ... };` — brace initialiser after '='.  The operator
        // token exempts `operator=` / `operator==` definitions, whose '=' is
        // part of the name, not an initialiser.
        skip_braces();
        consume_to_semicolon();
        if (class_index >= 0) handle_field(head, stmt_line, class_index);
        continue;
      }
      if (has_token(tokens, "namespace")) {
        parse_scope(prefix, class_index);
        continue;
      }
      if (has_token(tokens, "enum")) {
        skip_braces();
        consume_to_semicolon();
        continue;
      }
      const bool function_like = has_top_level_paren(head) || has_token(tokens, "operator");
      const bool class_like = has_token(tokens, "class") || has_token(tokens, "struct") ||
                              has_token(tokens, "union");
      if (class_like && !function_like) {
        const std::string name = class_name_of(head);
        const std::string qualified = prefix.empty() ? name : prefix + "::" + name;
        const int index = static_cast<int>(out_->size());
        ClassInfo info;
        info.name = qualified;
        info.enclosing = prefix;
        info.file = file_;
        info.line = stmt_line;
        out_->push_back(std::move(info));
        parse_scope(qualified, index);
        consume_to_semicolon();  // `} trailing_declarator;`
        continue;
      }
      if (function_like) {
        int body_line = 0;
        std::string body = capture_braces(body_line);
        handle_function(stmt, stmt_line, prefix, true, std::move(body), body_line);
        continue;
      }
      if (class_index >= 0) {
        // `type name{init};` — brace-initialised member.
        skip_braces();
        consume_to_semicolon();
        handle_field(head, stmt_line, class_index);
        continue;
      }
      skip_braces();  // unrecognised block at namespace scope
    }
  }

  /// Records a function declaration (`has_body` false) or definition found
  /// in scope `prefix`.  Returns true iff the statement was function-shaped
  /// — even when nothing is recorded (constructors, destructors, operators)
  /// — so the caller does not mistake it for a field.
  bool handle_function(const std::string& raw_head, int line, const std::string& prefix,
                       bool has_body, std::string body, int body_line) {
    std::string head = trim(strip_attributes(raw_head));
    static const std::regex kAccess(R"(^\s*(public|private|protected)\s*:)");
    std::smatch access;
    while (std::regex_search(head, access, kAccess) && head[access.position(0)] != ':') {
      head = trim(access.suffix().str());
    }
    std::vector<std::string> requires_locks;
    bool deterministic = false;
    bool hot_kernel = false;
    bool blocks = false;
    bool nonblocking = false;
    bool pin_escape = false;
    extract_function_annotations(head, requires_locks, deterministic, hot_kernel, blocks,
                                 nonblocking, pin_escape);
    const std::vector<std::string> tokens = identifier_tokens(head);
    static const std::array<std::string_view, 6> kSkipLead = {
        "using", "typedef", "friend", "template", "enum", "namespace"};
    for (const std::string_view lead : kSkipLead) {
      if (!tokens.empty() && tokens.front() == lead) return false;
    }
    if (has_token(tokens, "operator")) return has_top_level_paren(head);
    std::string class_name;
    std::string name;
    if (!function_head_name(head, class_name, name)) return false;
    if (class_name.empty()) class_name = prefix;
    // Constructors and destructors are function-shaped but not indexed: the
    // flow passes would only see member-init noise on a not-yet-shared object.
    if (name.front() == '~' || (!class_name.empty() && name == class_tail(class_name))) {
      return true;
    }
    if (funcs_ == nullptr) return true;
    FunctionInfo info;
    info.name = std::move(name);
    info.class_name = std::move(class_name);
    info.file = file_;
    info.line = line;
    info.head = std::move(head);
    info.has_body = has_body;
    info.body = std::move(body);
    info.body_line = body_line;
    info.requires_locks = std::move(requires_locks);
    info.deterministic = deterministic;
    info.hot_kernel = hot_kernel;
    info.blocks = blocks;
    info.nonblocking = nonblocking;
    info.pin_escape = pin_escape;
    funcs_->push_back(std::move(info));
    return true;
  }

  void handle_field(std::string stmt, int line, int class_index) {
    bool guarded = false;
    bool unguarded = false;
    bool pin_escape = false;
    std::string guard;
    extract_annotations(stmt, guarded, guard, unguarded, pin_escape);
    stmt = trim(strip_attributes(stmt));
    // Strip access-specifier labels glued to the first declaration.
    static const std::regex kAccess(R"(^\s*(public|private|protected)\s*:)");
    std::smatch access;
    while (std::regex_search(stmt, access, kAccess) && stmt[access.position(0)] != ':') {
      stmt = trim(access.suffix().str());
    }
    if (stmt.empty()) return;
    const std::vector<std::string> tokens = identifier_tokens(stmt);
    if (tokens.empty()) return;
    static const std::array<std::string_view, 9> kSkipLead = {
        "using", "typedef", "friend", "template", "class", "struct", "union", "enum",
        "namespace"};
    for (const std::string_view lead : kSkipLead) {
      if (tokens.front() == lead) return;
    }
    // static / constexpr members have no per-instance state to guard.
    if (has_token(tokens, "static") || has_token(tokens, "constexpr") ||
        has_token(tokens, "operator")) {
      return;
    }
    const std::size_t init = top_level_pos(stmt, '=');
    if (init != std::string::npos) stmt = trim(stmt.substr(0, init));
    if (stmt.empty()) return;
    if (has_top_level_paren(stmt)) return;  // function declaration
    const std::size_t bitfield = top_level_pos(stmt, ':');
    if (bitfield != std::string::npos) stmt = trim(stmt.substr(0, bitfield));
    static const std::regex kDeclName(
        R"(([A-Za-z_][A-Za-z0-9_]*)\s*(\[[^\]]*\]\s*)*$)");
    std::smatch name_match;
    if (!std::regex_search(stmt, name_match, kDeclName)) return;
    const std::string name = name_match[1].str();
    const std::string type = trim(stmt.substr(0, static_cast<std::size_t>(name_match.position(1))));
    if (type.empty()) return;  // lone identifier: a macro invocation, not a field

    static const std::regex kOrderedMutexType(R"(\bOrdered(Shared)?Mutex\b)");
    static const std::regex kPlainMutexType(
        R"(\b(mutex|shared_mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_timed_mutex)\b)");
    static const std::regex kConditionVariable(R"(\bcondition_variable(_any)?\b)");
    static const std::regex kAtomicLead(
        R"(^((mutable|volatile|inline)\s+)*std\s*::\s*atomic\b)");
    static const std::regex kConstLead(R"(^((mutable|volatile|inline)\s+)*const\b)");

    FieldInfo field;
    field.name = name;
    field.type = type;
    field.line = line;
    field.guarded = guarded;
    field.guard = guard;
    field.unguarded = unguarded;
    field.pin_escape = pin_escape;
    const bool value_type = type.find('*') == std::string::npos &&
                            type.find('&') == std::string::npos;
    field.is_mutex = value_type && std::regex_search(type, kOrderedMutexType);
    field.exempt = field.is_mutex ||
                   (value_type && std::regex_search(type, kPlainMutexType)) ||
                   std::regex_search(type, kConditionVariable) ||
                   std::regex_search(type, kAtomicLead) ||
                   (value_type && std::regex_search(type, kConstLead)) ||
                   type.find('&') != std::string::npos;
    ClassInfo& cls = (*out_)[static_cast<std::size_t>(class_index)];
    if (field.is_mutex) cls.owns_ordered_mutex = true;
    cls.fields.push_back(std::move(field));
  }

  std::string text_;
  std::string file_;
  std::vector<ClassInfo>* out_;
  std::vector<FunctionInfo>* funcs_ = nullptr;
  std::size_t pos_ = 0;
  int line_ = 1;
};

/// Last identifier of a lock expression: the mutex identity the flow passes
/// match on ("data_mutex" of `segment->data_mutex` — object-insensitive by
/// design, so every instance of a class shares one lock region, exactly like
/// the runtime LockSite name).
std::string last_identifier(std::string_view expr) {
  const std::vector<std::string> tokens = identifier_tokens(expr);
  return tokens.empty() ? std::string() : tokens.back();
}

// --- the #include closure ---------------------------------------------------
//
// Cross-file resolution (decl/def annotation merge, call-index lookups) is
// scoped by what a file can actually see: its transitive quoted includes
// within the given file set.  This keeps an unrelated same-named function in
// a file the caller never includes from polluting the call graph.
using IncludeClosure = std::map<std::string, std::vector<std::string>>;

IncludeClosure include_closure(const std::vector<SourceFile>& files) {
  static const std::regex kInclude("^\\s*#\\s*include\\s*\"([^\"]+)\"");
  std::set<std::string> paths;
  for (const SourceFile& file : files) paths.insert(file.path);
  std::map<std::string, std::vector<std::string>> direct;
  for (const SourceFile& file : files) {
    std::vector<std::string>& out = direct[file.path];
    for (const std::string& line : split_lines(file.contents)) {
      std::smatch m;
      if (!std::regex_search(line, m, kInclude)) continue;
      const std::string target = m[1].str();
      if (paths.count("src/" + target) != 0) {
        out.push_back("src/" + target);
      } else if (paths.count(target) != 0) {
        out.push_back(target);
      }
    }
  }
  IncludeClosure closure;
  for (const SourceFile& file : files) {
    std::vector<std::string> todo = {file.path};
    std::set<std::string> seen = {file.path};
    while (!todo.empty()) {
      const std::string current = todo.back();
      todo.pop_back();
      const auto it = direct.find(current);
      if (it == direct.end()) continue;
      for (const std::string& next : it->second) {
        if (seen.insert(next).second) todo.push_back(next);
      }
    }
    closure[file.path].assign(seen.begin(), seen.end());  // sorted (from the set)
  }
  return closure;
}

bool closure_contains(const IncludeClosure& closure, const std::string& from,
                      const std::string& to) {
  const auto it = closure.find(from);
  return it != closure.end() && std::binary_search(it->second.begin(), it->second.end(), to);
}

/// True if either file can see the other through the include graph (a .cc
/// sees its header; the header "sees" its .cc for merge purposes).
bool closure_related(const IncludeClosure& closure, const std::string& a, const std::string& b) {
  return a == b || closure_contains(closure, a, b) || closure_contains(closure, b, a);
}

/// The ClassInfo for `name` nearest to `file`: a closure-related definition
/// if one exists, else any definition of that name.
const ClassInfo* find_class(const std::vector<ClassInfo>& classes, const std::string& name,
                            const std::string& file, const IncludeClosure& closure) {
  const ClassInfo* fallback = nullptr;
  for (const ClassInfo& cls : classes) {
    if (cls.name != name) continue;
    if (closure_related(closure, cls.file, file)) return &cls;
    if (fallback == nullptr) fallback = &cls;
  }
  return fallback;
}

/// Function-index groups: all declarations/definitions of one (class, name).
using FunctionGroups = std::map<std::pair<std::string, std::string>, std::vector<std::size_t>>;

FunctionGroups group_functions(const std::vector<FunctionInfo>& funcs) {
  FunctionGroups groups;
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    groups[{funcs[i].class_name, funcs[i].name}].push_back(i);
  }
  return groups;
}

/// Unifies SHMCAFFE_REQUIRES / SHMCAFFE_DETERMINISTIC / SHMCAFFE_HOT_KERNEL /
/// SHMCAFFE_BLOCKS / SHMCAFFE_NONBLOCKING / SHMCAFFE_PIN_ESCAPE
/// between declarations and definitions of the same (class, name) whose
/// files are related through the include closure: annotating either site
/// annotates both.
void merge_function_annotations(std::vector<FunctionInfo>& funcs, const IncludeClosure& closure) {
  const FunctionGroups groups = group_functions(funcs);
  for (const auto& [key, members] : groups) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const std::size_t a : members) {
        for (const std::size_t b : members) {
          if (a == b || !closure_related(closure, funcs[a].file, funcs[b].file)) continue;
          FunctionInfo& into = funcs[a];
          const FunctionInfo& from = funcs[b];
          if (from.deterministic && !into.deterministic) {
            into.deterministic = true;
            changed = true;
          }
          if (from.hot_kernel && !into.hot_kernel) {
            into.hot_kernel = true;
            changed = true;
          }
          if (from.blocks && !into.blocks) {
            into.blocks = true;
            changed = true;
          }
          if (from.nonblocking && !into.nonblocking) {
            into.nonblocking = true;
            changed = true;
          }
          if (from.pin_escape && !into.pin_escape) {
            into.pin_escape = true;
            changed = true;
          }
          for (const std::string& req : from.requires_locks) {
            if (std::find(into.requires_locks.begin(), into.requires_locks.end(), req) ==
                into.requires_locks.end()) {
              into.requires_locks.push_back(req);
              changed = true;
            }
          }
        }
      }
    }
  }
}

/// The `_locked()` naming contract: a `_locked` member function of a class
/// with exactly one ordered-mutex member implicitly REQUIRES that mutex.
/// With several mutexes the annotation is mandatory (the lock-region pass
/// reports the omission at the definition).
void infer_locked_requirements(std::vector<FunctionInfo>& funcs,
                               const std::vector<ClassInfo>& classes,
                               const IncludeClosure& closure) {
  for (FunctionInfo& func : funcs) {
    if (!func.requires_locks.empty() || func.class_name.empty()) continue;
    if (!ends_with(func.name, "_locked")) continue;
    const ClassInfo* cls = find_class(classes, func.class_name, func.file, closure);
    if (cls == nullptr) continue;
    std::string sole;
    int mutexes = 0;
    for (const FieldInfo& field : cls->fields) {
      if (field.is_mutex) {
        ++mutexes;
        sole = field.name;
      }
    }
    if (mutexes == 1) func.requires_locks.push_back(sole);
  }
}

/// First identifier of a SHMCAFFE_GUARDED_BY expression ("mu_", or "mu_" of
/// "other.mu_"); the guard must name a mutex member.
std::string guard_identifier(const std::string& guard) {
  static const std::regex kIdent(R"([A-Za-z_][A-Za-z0-9_]*)");
  std::smatch m;
  if (!std::regex_search(guard, m, kIdent)) return {};
  return m.str(0);
}

/// True if `cls` (or a lexically enclosing class) has an ordered-mutex
/// member named `name`.
bool resolves_to_mutex(const std::vector<ClassInfo>& index, const ClassInfo& cls,
                       const std::string& name) {
  const ClassInfo* current = &cls;
  while (current != nullptr) {
    for (const FieldInfo& field : current->fields) {
      if (field.is_mutex && field.name == name) return true;
    }
    const std::string& enclosing = current->enclosing;
    current = nullptr;
    if (!enclosing.empty()) {
      for (const ClassInfo& candidate : index) {
        if (candidate.name == enclosing && candidate.file == cls.file) {
          current = &candidate;
          break;
        }
      }
    }
  }
  return false;
}

/// Pass 2 (index-driven half): the guarded-by rule over every src/ class
/// owning an ordered mutex.
std::vector<Finding> guarded_by_findings(
    const std::vector<ClassInfo>& index,
    std::map<std::string, FileAllows>& allows_by_file) {
  std::vector<Finding> findings;
  for (const ClassInfo& cls : index) {
    if (!cls.owns_ordered_mutex || !starts_with(cls.file, "src/")) continue;
    const auto allows = allows_by_file.find(cls.file);
    for (const FieldInfo& field : cls.fields) {
      if (field.is_mutex || field.exempt || field.unguarded) continue;
      std::string message;
      if (!field.guarded) {
        message = "field '" + field.name + "' of mutex-owning class '" + cls.name +
                  "' has neither SHMCAFFE_GUARDED_BY(mu) nor SHMCAFFE_UNGUARDED "
                  "(see src/common/ordered_mutex.h)";
      } else {
        const std::string ident = guard_identifier(field.guard);
        if (!ident.empty() && resolves_to_mutex(index, cls, ident)) continue;
        message = "SHMCAFFE_GUARDED_BY(" + field.guard + ") on field '" + field.name +
                  "' names no ordered-mutex member of '" + cls.name +
                  "' or an enclosing class";
      }
      if (allows != allows_by_file.end() &&
          allowed(allows->second, field.line, "guarded-by")) {
        continue;
      }
      findings.push_back(Finding{cls.file, field.line, "guarded-by", std::move(message)});
    }
  }
  return findings;
}

// --- pass 4: flow-sensitive lock regions and determinism taint --------------

/// One collect()-style statement of a captured function body: text
/// accumulated to ';' / '{' / '}' at paren depth 0, with its 1-based line.
struct BodyStatement {
  std::string text;
  int line = 0;
  char term = '\0';
};

std::vector<BodyStatement> body_statements(const std::string& body, int body_line) {
  std::vector<BodyStatement> out;
  int line = body_line;
  BodyStatement stmt;
  int paren = 0;
  const auto flush = [&](char term) {
    stmt.term = term;
    if (stmt.line == 0) stmt.line = line;
    out.push_back(std::move(stmt));
    stmt = BodyStatement{};
    paren = 0;
  };
  for (const char c : body) {
    if (c == '\n') {
      stmt.text.push_back(' ');
      ++line;
      continue;
    }
    if (paren == 0 && (c == ';' || c == '{' || c == '}')) {
      flush(c);
      continue;
    }
    if (c == '(' || c == '[') ++paren;
    if ((c == ')' || c == ']') && paren > 0) --paren;
    if (stmt.line == 0 && std::isspace(static_cast<unsigned char>(c)) == 0) stmt.line = line;
    stmt.text.push_back(c);
  }
  if (!trim(stmt.text).empty()) flush('\0');
  return out;
}

/// One RAII guard declaration found in a statement.
struct LockEvent {
  std::string var;                   ///< the guard variable
  std::vector<std::string> mutexes;  ///< last identifiers of the lock args
  bool held = true;                  ///< false for std::defer_lock
  std::size_t pos = 0;               ///< offset of the guard type in the statement
};

/// The offset of the closing brace of the innermost `{...}` block of `stmt`
/// that encloses `pos` (the statement's end if the block is unclosed), or
/// npos when `pos` sits in no block.  A statement holds a block only where a
/// lambda body sits inside parentheses (`threads.emplace_back([&] { ... })`):
/// body_statements splits every other brace.
std::size_t enclosing_block_end(const std::string& stmt, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = 0; i < pos; ++i) {
    if (stmt[i] == '{') ++depth;
    if (stmt[i] == '}' && depth > 0) --depth;
  }
  if (depth == 0) return std::string::npos;
  int inner = 0;
  for (std::size_t i = pos; i < stmt.size(); ++i) {
    if (stmt[i] == '{') ++inner;
    if (stmt[i] == '}' && inner-- == 0) return i;
  }
  return stmt.size();
}

/// Offsets of every match of `pattern` in `text`.
std::vector<std::size_t> match_positions(const std::string& text, const std::regex& pattern) {
  std::vector<std::size_t> positions;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), pattern);
       it != std::sregex_iterator(); ++it) {
    positions.push_back(static_cast<std::size_t>(it->position(0)));
  }
  return positions;
}

/// RAII guard declarations: `std::scoped_lock l(mu_)`, lock_guard /
/// unique_lock / shared_lock with optional template arguments, multi-mutex
/// scoped_lock, and the defer/try/adopt tags (try_to_lock and adopt_lock
/// still hold on success paths; defer_lock holds only after `l.lock()`).
std::vector<LockEvent> lock_events(const std::string& stmt) {
  static const std::regex kGuard(R"(\b(scoped_lock|lock_guard|unique_lock|shared_lock)\b)");
  std::vector<LockEvent> events;
  for (auto it = std::sregex_iterator(stmt.begin(), stmt.end(), kGuard);
       it != std::sregex_iterator(); ++it) {
    std::size_t pos = static_cast<std::size_t>(it->position(0)) + it->length(0);
    const auto skip_space = [&] {
      while (pos < stmt.size() && std::isspace(static_cast<unsigned char>(stmt[pos])) != 0) ++pos;
    };
    skip_space();
    if (pos < stmt.size() && stmt[pos] == '<') {
      int depth = 1;
      ++pos;
      while (pos < stmt.size() && depth > 0) {
        if (stmt[pos] == '<') ++depth;
        if (stmt[pos] == '>') --depth;
        ++pos;
      }
    }
    skip_space();
    const std::size_t name_begin = pos;
    while (pos < stmt.size() &&
           (std::isalnum(static_cast<unsigned char>(stmt[pos])) != 0 || stmt[pos] == '_')) {
      ++pos;
    }
    if (pos == name_begin) continue;  // a mention, not a declaration
    LockEvent event;
    event.pos = static_cast<std::size_t>(it->position(0));
    event.var = stmt.substr(name_begin, pos - name_begin);
    skip_space();
    if (pos >= stmt.size() || (stmt[pos] != '(' && stmt[pos] != '{')) continue;
    int depth = 1;
    std::size_t arg_begin = ++pos;
    std::vector<std::string> args;
    while (pos < stmt.size() && depth > 0) {
      const char c = stmt[pos];
      if (c == '(' || c == '{' || c == '[') ++depth;
      if (c == ')' || c == '}' || c == ']') {
        --depth;
        if (depth == 0) break;
      }
      if (c == ',' && depth == 1) {
        args.push_back(stmt.substr(arg_begin, pos - arg_begin));
        arg_begin = pos + 1;
      }
      ++pos;
    }
    args.push_back(stmt.substr(arg_begin, pos - arg_begin));
    for (const std::string& raw : args) {
      const std::string arg = trim(raw);
      if (arg.empty()) continue;
      if (arg.find("defer_lock") != std::string::npos) {
        event.held = false;
        continue;
      }
      if (arg.find("try_to_lock") != std::string::npos ||
          arg.find("adopt_lock") != std::string::npos) {
        continue;
      }
      const std::string mutex = last_identifier(arg);
      if (!mutex.empty()) event.mutexes.push_back(mutex);
    }
    if (!event.mutexes.empty()) events.push_back(std::move(event));
  }
  return events;
}

/// An identifier token and its position in the statement.
struct Token {
  std::string text;
  std::size_t pos = 0;
};

std::vector<Token> tokens_with_pos(const std::string& s) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < s.size()) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (std::isalpha(c) != 0 || c == '_') {
      std::size_t j = i;
      while (j < s.size() &&
             (std::isalnum(static_cast<unsigned char>(s[j])) != 0 || s[j] == '_')) {
        ++j;
      }
      tokens.push_back(Token{s.substr(i, j - i), i});
      i = j;
    } else {
      ++i;
    }
  }
  return tokens;
}

/// Call-site receiver shape of a token.
enum class CallForm { kPlain, kMember, kQualified };

CallForm call_form(const std::string& s, std::size_t pos, std::string& qualifier) {
  std::size_t i = pos;
  while (i > 0 && std::isspace(static_cast<unsigned char>(s[i - 1])) != 0) --i;
  if (i >= 2 && s[i - 1] == ':' && s[i - 2] == ':') {
    std::size_t q = i - 2;
    while (q > 0 && (std::isalnum(static_cast<unsigned char>(s[q - 1])) != 0 || s[q - 1] == '_')) {
      --q;
    }
    qualifier = s.substr(q, i - 2 - q);
    return CallForm::kQualified;
  }
  if (i >= 1 && s[i - 1] == '.') return CallForm::kMember;
  if (i >= 2 && s[i - 1] == '>' && s[i - 2] == '-') return CallForm::kMember;
  return CallForm::kPlain;
}

bool keyword_token(const std::string& t) {
  static const std::set<std::string> kKeywords = {
      "if", "for", "while", "switch", "return", "sizeof", "decltype", "alignof",
      "catch", "static_assert", "assert", "throw", "new", "delete", "defined",
      "alignas", "noexcept", "static_cast", "dynamic_cast", "const_cast",
      "reinterpret_cast", "scoped_lock", "lock_guard", "unique_lock", "shared_lock"};
  return kKeywords.count(t) != 0;
}

/// Method names too generic to resolve through the object-insensitive call
/// index (std:: container / algorithm / guard vocabulary): receiver calls
/// with these names are never traversed — `first_crash.find(...)` must not
/// resolve to SmbServer::find.
bool generic_method_name(const std::string& name) {
  static const std::set<std::string> kGeneric = {
      "find", "count", "contains", "begin", "end", "cbegin", "cend", "rbegin", "rend",
      "size", "empty", "clear", "insert", "erase", "emplace", "emplace_back",
      "push_back", "pop_back", "push", "pop", "front", "back", "top", "at", "reserve",
      "resize", "assign", "swap", "data", "get", "reset", "str", "c_str", "substr",
      "append", "compare", "length", "load", "store", "exchange", "fetch_add",
      "fetch_sub", "wait", "wait_for", "notify_one", "notify_all", "lock", "unlock",
      "try_lock", "owns_lock", "value", "has_value", "subspan", "lower_bound",
      "upper_bound", "to_string"};
  return kGeneric.count(name) != 0;
}

/// Names declared with an unordered container type in `text` (a function
/// head's parameters, a body's locals, or — via FieldInfo::type — a class
/// field).  The declared name is the identifier after the closing '>'.
void collect_unordered_idents(const std::string& text, std::set<std::string>& out) {
  static const std::regex kUnordered(R"(\bunordered_(?:map|set|multimap|multiset)\b)");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kUnordered);
       it != std::sregex_iterator(); ++it) {
    std::size_t pos = static_cast<std::size_t>(it->position(0)) + it->length(0);
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos])) != 0) ++pos;
    if (pos < text.size() && text[pos] == '<') {
      int depth = 1;
      ++pos;
      while (pos < text.size() && depth > 0) {
        if (text[pos] == '<') ++depth;
        if (text[pos] == '>') --depth;
        ++pos;
      }
    }
    while (pos < text.size() && (std::isspace(static_cast<unsigned char>(text[pos])) != 0 ||
                                 text[pos] == '&' || text[pos] == '*')) {
      ++pos;
    }
    std::size_t begin = pos;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) != 0 || text[pos] == '_')) {
      ++pos;
    }
    if (pos > begin) {
      const std::string name = text.substr(begin, pos - begin);
      if (name != "const") out.insert(name);
    }
  }
}

/// A guarded field visible to a function, with the class that owns it (for
/// the per-class access counters).
struct GuardedField {
  std::string guard;  ///< last identifier of the SHMCAFFE_GUARDED_BY expression
  std::string owner;  ///< qualified class name owning the field
};

/// Per-class lock-region access counters for the coverage report.
struct AccessStats {
  int accesses = 0;
  int unguarded = 0;
};

/// Result of the flow-sensitive passes over the whole set.
struct RepoAnalysis {
  std::vector<Finding> findings;
  std::map<std::string, AccessStats> access;  ///< class name -> counters
  int deterministic_roots = 0;
  int tainted = 0;
  int hot_kernel_roots = 0;
  int hot_allocs = 0;
  int blocking_roots = 0;        ///< SHMCAFFE_BLOCKS function groups in src/
  int nonblocking_contracts = 0; ///< SHMCAFFE_NONBLOCKING function groups in src/
  int pin_escapes = 0;           ///< SHMCAFFE_PIN_ESCAPE fields + function groups in src/
};

/// Pin-view types the pin-lifetime pass tracks: the SMB zero-copy views and
/// the arena slab RAII handle.  Matched against declared types, return types
/// and local-declaration statements.
const std::regex& pin_type_pattern() {
  static const std::regex kPinType(R"(\b(?:PinnedFloats|PinnedShard)\b|\barena\s*::\s*Buffer\b)");
  return kPinType;
}

/// The arena implementation is the sanctioned home of arena::Buffer itself:
/// its internals necessarily store, return and hand out the views the rule
/// polices everywhere else.
bool pin_exempt_file(const std::string& file) {
  return starts_with(file, "src/common/arena.");
}

/// True if the function's declared return type mentions a pin view *by
/// value* (a `PinnedFloats&` accessor aliases an existing pin and creates no
/// new escape).
bool returns_pin_by_value(const FunctionInfo& func) {
  const std::size_t paren = top_level_paren_pos(func.head);
  if (paren == std::string::npos) return false;
  const std::string before = func.head.substr(0, paren);
  return before.find('&') == std::string::npos &&
         std::regex_search(before, pin_type_pattern());
}

/// Guarded fields a member function of `class_name` can touch without an
/// object qualifier or through sibling objects: the class itself, its nested
/// classes, and the lexically enclosing chain (object-insensitive, like the
/// mutex identity).
std::map<std::string, GuardedField> family_guarded_fields(
    const std::vector<ClassInfo>& classes, const std::string& class_name,
    const std::string& file, const IncludeClosure& closure) {
  std::map<std::string, GuardedField> out;
  if (class_name.empty()) return out;
  std::set<std::string> family = {class_name};
  const ClassInfo* cls = find_class(classes, class_name, file, closure);
  while (cls != nullptr && !cls->enclosing.empty()) {
    family.insert(cls->enclosing);
    cls = find_class(classes, cls->enclosing, file, closure);
  }
  for (const ClassInfo& candidate : classes) {
    bool in_family = family.count(candidate.name) != 0;
    if (!in_family) {
      for (const std::string& name : family) {
        if (starts_with(candidate.name, name + "::")) {
          in_family = true;
          break;
        }
      }
    }
    if (!in_family || !closure_related(closure, candidate.file, file)) continue;
    for (const FieldInfo& field : candidate.fields) {
      if (field.guarded && !field.guard.empty()) {
        out.emplace(field.name, GuardedField{last_identifier(field.guard), candidate.name});
      }
    }
  }
  return out;
}

/// The flow-sensitive lock-region pass and the determinism-taint pass, run
/// together over the indexed function bodies (src/ only).  `allows_by_file`
/// is shared with the other passes so stale-allow accounting sees every rule.
RepoAnalysis analyze_repo(const std::vector<SourceFile>& files,
                          const std::vector<ClassInfo>& classes,
                          const std::vector<FunctionInfo>& funcs,
                          std::map<std::string, FileAllows>& allows_by_file) {
  RepoAnalysis result;
  const IncludeClosure closure = include_closure(files);
  const FunctionGroups groups = group_functions(funcs);

  // name -> indices, for call resolution.
  std::map<std::string, std::vector<std::size_t>> by_name;
  for (std::size_t i = 0; i < funcs.size(); ++i) by_name[funcs[i].name].push_back(i);

  // A candidate is visible from `file` if any decl/def of its (class, name)
  // group lives in `file`'s include closure: a .cc's definition is reachable
  // through the header that declares it.
  const auto group_visible = [&](std::size_t candidate, const std::string& file) {
    const auto it = groups.find({funcs[candidate].class_name, funcs[candidate].name});
    if (it == groups.end()) return false;
    for (const std::size_t member : it->second) {
      if (funcs[member].file == file || closure_contains(closure, file, funcs[member].file)) {
        return true;
      }
    }
    return false;
  };

  // Resolves a call-site token to candidate function indices.
  const auto resolve_call = [&](const std::string& name, CallForm form,
                                const std::string& qualifier, const FunctionInfo& caller,
                                const std::set<std::string>& caller_family) {
    std::vector<std::size_t> out;
    if (keyword_token(name) || starts_with(name, "SHMCAFFE_")) return out;
    if (form == CallForm::kQualified && qualifier == "std") return out;
    if (form == CallForm::kMember && generic_method_name(name)) return out;
    const auto it = by_name.find(name);
    if (it == by_name.end()) return out;
    for (const std::size_t idx : it->second) {
      const FunctionInfo& callee = funcs[idx];
      if (form == CallForm::kMember && callee.class_name.empty()) continue;
      if (form == CallForm::kPlain && !callee.class_name.empty() &&
          caller_family.count(callee.class_name) == 0) {
        continue;
      }
      if (form == CallForm::kQualified && !qualifier.empty() &&
          !callee.class_name.empty() && class_tail(callee.class_name) != qualifier &&
          callee.class_name != qualifier) {
        continue;
      }
      if (!group_visible(idx, caller.file)) continue;
      out.push_back(idx);
    }
    return out;
  };

  const auto allows_of = [&](const std::string& file) -> FileAllows& {
    return allows_by_file[file];
  };

  // The object-insensitive class family of a function (its class plus the
  // lexically enclosing chain), shared by every call-resolving pass.
  const auto family_of = [&](const FunctionInfo& func) {
    std::set<std::string> family;
    if (!func.class_name.empty()) {
      family.insert(func.class_name);
      const ClassInfo* cls = find_class(classes, func.class_name, func.file, closure);
      while (cls != nullptr && !cls->enclosing.empty()) {
        family.insert(cls->enclosing);
        cls = find_class(classes, cls->enclosing, func.file, closure);
      }
    }
    return family;
  };

  // ---- blocking classification (no-blocking-under-lock) --------------------
  // Roots are SHMCAFFE_BLOCKS annotations plus intrinsically blocking bodies
  // (a literal condition-variable / future wait or a thread sleep).
  // Blocking-ness then propagates caller-ward over the resolved call edges to
  // a fixpoint, and is unified across each (class, name) group so a
  // declaration carries its definition's classification.
  static const std::regex kIntrinsicWait(R"((?:\.|->)\s*wait(?:_for|_until)?\s*\()");
  static const std::regex kIntrinsicWaitArg(
      R"((?:\.|->)\s*wait(?:_for|_until)?\s*\(\s*([A-Za-z_]\w*))");
  static const std::regex kIntrinsicSleep(R"(\b(?:sleep_for|sleep_until)\b)");

  // Resolved callee edges, computed once: the fixpoint iterates them and the
  // lock-region walk re-resolves per statement for line-accurate reporting.
  std::vector<std::vector<std::size_t>> callees(funcs.size());
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    if (!funcs[i].has_body) continue;
    const std::set<std::string> family = family_of(funcs[i]);
    for (const BodyStatement& stmt : body_statements(funcs[i].body, funcs[i].body_line)) {
      for (const Token& token : tokens_with_pos(stmt.text)) {
        std::size_t after = token.pos + token.text.size();
        while (after < stmt.text.size() &&
               std::isspace(static_cast<unsigned char>(stmt.text[after])) != 0) {
          ++after;
        }
        if (after >= stmt.text.size() || stmt.text[after] != '(') continue;
        std::string qualifier;
        const CallForm form = call_form(stmt.text, token.pos, qualifier);
        for (const std::size_t idx : resolve_call(token.text, form, qualifier, funcs[i], family)) {
          callees[i].push_back(idx);
        }
      }
    }
  }

  std::vector<char> blocking(funcs.size(), 0);
  std::vector<std::string> blocking_why(funcs.size());
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    if (funcs[i].blocks) {
      blocking[i] = 1;
      blocking_why[i] = "is annotated SHMCAFFE_BLOCKS";
    } else if (funcs[i].has_body && std::regex_search(funcs[i].body, kIntrinsicWait)) {
      blocking[i] = 1;
      blocking_why[i] = "contains a condition-variable wait";
    } else if (funcs[i].has_body && std::regex_search(funcs[i].body, kIntrinsicSleep)) {
      blocking[i] = 1;
      blocking_why[i] = "contains a thread sleep";
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      if (blocking[i]) continue;
      for (const std::size_t callee : callees[i]) {
        if (!blocking[callee]) continue;
        blocking[i] = 1;
        blocking_why[i] = "calls '" + funcs[callee].name + "', which " + blocking_why[callee];
        changed = true;
        break;
      }
    }
    // Decl <-> def unification, scoped like the annotation merge.
    for (const auto& [key, members] : groups) {
      std::size_t from = members.size();
      for (std::size_t k = 0; k < members.size(); ++k) {
        if (blocking[members[k]]) {
          from = k;
          break;
        }
      }
      if (from == members.size()) continue;
      for (const std::size_t member : members) {
        if (blocking[member] ||
            !closure_related(closure, funcs[member].file, funcs[members[from]].file)) {
          continue;
        }
        blocking[member] = 1;
        blocking_why[member] = blocking_why[members[from]];
        changed = true;
      }
    }
  }

  {
    std::set<std::pair<std::string, std::string>> block_keys;
    std::set<std::pair<std::string, std::string>> nonblock_keys;
    for (const FunctionInfo& func : funcs) {
      if (!starts_with(func.file, "src/")) continue;
      if (func.blocks) block_keys.insert({func.class_name, func.name});
      if (func.nonblocking) nonblock_keys.insert({func.class_name, func.name});
    }
    result.blocking_roots = static_cast<int>(block_keys.size());
    result.nonblocking_contracts = static_cast<int>(nonblock_keys.size());
  }

  // SHMCAFFE_NONBLOCKING verification: the contract is violated when the
  // function can reach a blocking root (or carries both annotations).
  // Reported once per (class, name) group, at the definition when one exists.
  for (const auto& [key, members] : groups) {
    const FunctionInfo* site = nullptr;
    bool any_nonblocking = false;
    bool any_blocks_annotation = false;
    bool any_blocking = false;
    std::string why;
    bool suppressed = false;
    for (const std::size_t member : members) {
      const FunctionInfo& func = funcs[member];
      if (!starts_with(func.file, "src/")) continue;
      any_nonblocking = any_nonblocking || func.nonblocking;
      any_blocks_annotation = any_blocks_annotation || func.blocks;
      if (blocking[member] && !any_blocking) {
        any_blocking = true;
        why = blocking_why[member];
      }
      if (site == nullptr || (func.has_body && !site->has_body)) site = &func;
      if (allowed(allows_of(func.file), func.line, "no-blocking-under-lock")) suppressed = true;
    }
    if (site == nullptr || !any_nonblocking || suppressed) continue;
    if (any_blocks_annotation) {
      result.findings.push_back(Finding{
          site->file, site->line, "no-blocking-under-lock",
          "'" + site->name + "' carries both SHMCAFFE_NONBLOCKING and SHMCAFFE_BLOCKS; "
          "the contracts are contradictory"});
    } else if (any_blocking) {
      result.findings.push_back(Finding{
          site->file, site->line, "no-blocking-under-lock",
          "'" + site->name + "' is annotated SHMCAFFE_NONBLOCKING but can block: " + why});
    }
  }

  // ---- pin-lifetime classification ------------------------------------------
  // A (class, name) group returns a pin if any member's return type names a
  // pin view by value; SHMCAFFE_PIN_ESCAPE on any member annotates the group.
  std::vector<char> pin_return(funcs.size(), 0);
  std::vector<char> pin_escape_fn(funcs.size(), 0);
  for (const auto& [key, members] : groups) {
    bool returns = false;
    bool escape = false;
    for (const std::size_t member : members) {
      returns = returns || returns_pin_by_value(funcs[member]);
      escape = escape || funcs[member].pin_escape;
    }
    for (const std::size_t member : members) {
      pin_return[member] = returns ? 1 : 0;
      pin_escape_fn[member] = escape ? 1 : 0;
    }
  }

  {
    int escapes = 0;
    for (const ClassInfo& cls : classes) {
      if (!starts_with(cls.file, "src/")) continue;
      for (const FieldInfo& field : cls.fields) {
        if (field.pin_escape) ++escapes;
      }
    }
    std::set<std::pair<std::string, std::string>> fn_keys;
    for (const FunctionInfo& func : funcs) {
      if (func.pin_escape && starts_with(func.file, "src/")) {
        fn_keys.insert({func.class_name, func.name});
      }
    }
    result.pin_escapes = escapes + static_cast<int>(fn_keys.size());
  }

  // Declarative pin-lifetime findings: pin-typed fields and pin-returning
  // functions without SHMCAFFE_PIN_ESCAPE.
  for (const ClassInfo& cls : classes) {
    if (!starts_with(cls.file, "src/") || pin_exempt_file(cls.file)) continue;
    for (const FieldInfo& field : cls.fields) {
      if (field.pin_escape || !std::regex_search(field.type, pin_type_pattern())) continue;
      if (field.type.find('&') != std::string::npos ||
          field.type.find('*') != std::string::npos) {
        continue;  // non-owning alias, not a stored view
      }
      if (allowed(allows_of(cls.file), field.line, "pin-lifetime")) continue;
      result.findings.push_back(Finding{
          cls.file, field.line, "pin-lifetime",
          "pin-typed field '" + field.name + "' ('" + field.type + "') of '" + cls.name +
              "' stores a pinned view beyond its frame; annotate SHMCAFFE_PIN_ESCAPE "
              "with a justification or keep the view frame-local"});
    }
  }
  for (const auto& [key, members] : groups) {
    const FunctionInfo* site = nullptr;
    bool returns = false;
    bool escape = false;
    bool suppressed = false;
    for (const std::size_t member : members) {
      const FunctionInfo& func = funcs[member];
      if (!starts_with(func.file, "src/") || pin_exempt_file(func.file)) continue;
      returns = returns || pin_return[member] != 0;
      escape = escape || pin_escape_fn[member] != 0;
      if (site == nullptr || (func.has_body && !site->has_body)) site = &func;
      if (allowed(allows_of(func.file), func.line, "pin-lifetime")) suppressed = true;
    }
    if (site == nullptr || !returns || escape || suppressed) continue;
    result.findings.push_back(Finding{
        site->file, site->line, "pin-lifetime",
        "'" + site->name + "' returns a pinned view by value without "
        "SHMCAFFE_PIN_ESCAPE; pinned views must stay frame-local unless the "
        "escape is annotated and justified"});
  }

  // ---- lock-region pass ----------------------------------------------------
  static const std::regex kAssertHeld(R"(\bSHMCAFFE_ASSERT_HELD\s*\(([^)]*)\))");
  static const std::regex kVarLockOp(R"(\b([A-Za-z_]\w*)\s*\.\s*(unlock|lock)\s*\(\s*\))");

  for (const FunctionInfo& func : funcs) {
    if (!func.has_body || !starts_with(func.file, "src/")) continue;
    const std::map<std::string, GuardedField> fields =
        family_guarded_fields(classes, func.class_name, func.file, closure);
    const std::set<std::string> caller_family = family_of(func);

    // `_locked` contract: no annotation and no unique mutex to infer it from.
    // The contract only binds classes that own several ordered mutexes: with
    // zero the name is vocabulary, not a lock protocol (sim coroutine mutexes
    // etc.), and with exactly one the requirement was inferred.
    if (ends_with(func.name, "_locked") && func.requires_locks.empty()) {
      int class_mutexes = 0;
      if (const ClassInfo* cls =
              find_class(classes, func.class_name, func.file, closure)) {
        for (const FieldInfo& field : cls->fields) {
          if (field.is_mutex) ++class_mutexes;
        }
      }
      if (class_mutexes >= 2 &&
          !allowed(allows_of(func.file), func.line, "lock-region")) {
        result.findings.push_back(Finding{
            func.file, func.line, "lock-region",
            "'" + func.name + "' follows the _locked() naming contract but has no "
            "SHMCAFFE_REQUIRES(mu) and its class does not own exactly one ordered "
            "mutex to infer it from; annotate the required mutex"});
      }
    }

    // Held state is a stack of frames of signed entries ("+mu" held, "-mu"
    // released), resolved innermost-last-entry first.  An unlock records a
    // frame-local override, so `if (...) { lock.unlock(); return; }` does not
    // poison the statements after the branch.
    struct Frame {
      std::vector<std::pair<std::string, bool>> held;  ///< (mutex, is_held)
      std::map<std::string, std::vector<std::string>> lock_vars;
    };
    std::vector<Frame> stack(1);
    for (const std::string& req : func.requires_locks) {
      stack[0].held.emplace_back(last_identifier(req), true);
    }
    const auto holds = [&](const std::string& mutex) {
      for (auto frame = stack.rbegin(); frame != stack.rend(); ++frame) {
        for (auto entry = frame->held.rbegin(); entry != frame->held.rend(); ++entry) {
          if (entry->first == mutex) return entry->second;
        }
      }
      return false;
    };
    // Every mutex currently held, resolved with the same last-entry-wins
    // semantics as holds(): the blocking/pin checks test the whole set.
    const auto held_mutexes = [&]() {
      std::map<std::string, bool> state;
      for (const Frame& scope : stack) {
        for (const auto& entry : scope.held) state[entry.first] = entry.second;
      }
      std::vector<std::string> held;
      for (const auto& [mutex, is_held] : state) {
        if (is_held) held.push_back(mutex);
      }
      return held;
    };

    const bool pin_rules = !pin_exempt_file(func.file);
    std::set<std::string> pin_locals;  // pin-typed locals declared so far
    std::set<std::pair<int, std::string>> reported;  // (line, token) dedupe
    for (const BodyStatement& stmt : body_statements(func.body, func.body_line)) {
      if (stmt.term == '{') stack.emplace_back();
      Frame& frame = stack.back();
      // A guard declared in a lambda body inside this statement holds its
      // mutexes over [begin, end) of the statement's text only: from the
      // declaration to the body's closing brace.
      struct ScopedHold {
        std::string mutex;
        std::size_t begin;
        std::size_t end;
      };
      std::vector<ScopedHold> scoped;
      std::map<std::string, std::vector<std::string>> scoped_vars;
      const auto holds_at = [&](const std::string& mutex, std::size_t pos) {
        for (const ScopedHold& hold : scoped) {
          if (hold.mutex == mutex && hold.begin < pos && pos < hold.end) return true;
        }
        return holds(mutex);
      };
      const auto held_at = [&](std::size_t pos) {
        std::vector<std::string> held = held_mutexes();
        for (const ScopedHold& hold : scoped) {
          if (hold.begin < pos && pos < hold.end &&
              std::find(held.begin(), held.end(), hold.mutex) == held.end()) {
            held.push_back(hold.mutex);
          }
        }
        return held;
      };
      // Lock events first: an if-init guard covers the condition's accesses.
      for (const LockEvent& event : lock_events(stmt.text)) {
        const std::size_t block_end = enclosing_block_end(stmt.text, event.pos);
        if (block_end != std::string::npos) {
          scoped_vars[event.var] = event.mutexes;
          if (event.held) {
            for (const std::string& mutex : event.mutexes) {
              scoped.push_back(ScopedHold{mutex, event.pos, block_end});
            }
          }
          continue;
        }
        frame.lock_vars[event.var] = event.mutexes;
        if (event.held) {
          for (const std::string& mutex : event.mutexes) {
            frame.held.emplace_back(mutex, true);
          }
        }
      }
      for (auto it = std::sregex_iterator(stmt.text.begin(), stmt.text.end(), kAssertHeld);
           it != std::sregex_iterator(); ++it) {
        const std::string mutex = last_identifier((*it)[1].str());
        if (!mutex.empty()) frame.held.emplace_back(mutex, true);
      }
      for (auto it = std::sregex_iterator(stmt.text.begin(), stmt.text.end(), kVarLockOp);
           it != std::sregex_iterator(); ++it) {
        const std::string var = (*it)[1].str();
        const bool is_lock = (*it)[2].str() == "lock";
        const auto scoped_var = scoped_vars.find(var);
        if (scoped_var != scoped_vars.end()) {
          // A lambda-body guard: unlock() ends its holds there, lock() starts
          // one that lasts to the end of the enclosing block.
          const auto at = static_cast<std::size_t>(it->position(0));
          for (const std::string& mutex : scoped_var->second) {
            if (is_lock) {
              const std::size_t block_end = enclosing_block_end(stmt.text, at);
              if (block_end != std::string::npos) scoped.push_back(ScopedHold{mutex, at, block_end});
              continue;
            }
            for (ScopedHold& hold : scoped) {
              if (hold.mutex == mutex && hold.begin < at && at < hold.end) hold.end = at;
            }
          }
          continue;
        }
        // The override lands in the *current* frame regardless of where the
        // guard variable was declared: leaving the branch discards it.
        for (const Frame& scope : stack) {
          const auto lock_var = scope.lock_vars.find(var);
          if (lock_var == scope.lock_vars.end()) continue;
          for (const std::string& mutex : lock_var->second) {
            frame.held.emplace_back(mutex, is_lock);
          }
        }
      }

      // pin-lifetime: track pin-typed locals (explicit pin declarations and
      // `auto x = ...read_pinned(...)` initialisers) and flag explicit lambda
      // captures of them.  Blanket [&] / [=] captures are not resolved.
      if (pin_rules) {
        const bool pin_stmt = std::regex_search(stmt.text, pin_type_pattern()) ||
                              stmt.text.find("read_pinned") != std::string::npos;
        if (pin_stmt) {
          const std::size_t assign = top_level_pos(stmt.text, '=');
          std::string declared;
          if (assign != std::string::npos) {
            declared = last_identifier(stmt.text.substr(0, assign));
          } else if (stmt.term == ';' && !has_top_level_paren(stmt.text) &&
                     std::regex_search(stmt.text, pin_type_pattern())) {
            declared = last_identifier(stmt.text);
          }
          if (!declared.empty() && !keyword_token(declared)) pin_locals.insert(declared);
        }
        static const std::regex kCapture(
            R"(\[([^\[\]]*)\]\s*(?:\(|\{|mutable\b|noexcept\b|->|$))");
        for (auto it = std::sregex_iterator(stmt.text.begin(), stmt.text.end(), kCapture);
             it != std::sregex_iterator(); ++it) {
          for (const std::string& ident : identifier_tokens((*it)[1].str())) {
            if (ident == "this" || pin_locals.count(ident) == 0) continue;
            if (allowed(allows_of(func.file), stmt.line, "pin-lifetime")) continue;
            if (reported.emplace(stmt.line, "pin-capture/" + ident).second) {
              result.findings.push_back(Finding{
                  func.file, stmt.line, "pin-lifetime",
                  "pinned view '" + ident + "' captured by a lambda in '" + func.name +
                      "'; pinned views must stay frame-local — release before the "
                      "lambda outlives the frame or justify with "
                      "lint:allow(pin-lifetime)"});
            }
          }
        }
      }

      // no-blocking-under-lock: a literal wait/sleep in this statement while
      // a guard is held.  A cv wait over a guard declared in scope releases
      // that guard's mutexes for the duration of the wait; a wait over an
      // unresolvable guard variable (a unique_lock parameter) releases the
      // function's own SHMCAFFE_REQUIRES mutexes by convention.
      std::vector<std::size_t> blocking_at = match_positions(stmt.text, kIntrinsicWait);
      const bool waits = !blocking_at.empty();
      if (!waits) blocking_at = match_positions(stmt.text, kIntrinsicSleep);
      for (const std::size_t at : blocking_at) {
        std::set<std::string> released;
        std::smatch wait_arg;
        if (waits &&
            std::regex_search(stmt.text.cbegin() + static_cast<std::ptrdiff_t>(at),
                              stmt.text.cend(), wait_arg, kIntrinsicWaitArg,
                              std::regex_constants::match_continuous)) {
          const std::string guard_var = wait_arg[1].str();
          const auto scoped_var = scoped_vars.find(guard_var);
          if (scoped_var != scoped_vars.end()) {
            released.insert(scoped_var->second.begin(), scoped_var->second.end());
          }
          for (const Frame& scope : stack) {
            const auto lock_var = scope.lock_vars.find(guard_var);
            if (lock_var == scope.lock_vars.end()) continue;
            released.insert(lock_var->second.begin(), lock_var->second.end());
          }
          if (released.empty()) {
            for (const std::string& req : func.requires_locks) {
              released.insert(last_identifier(req));
            }
          }
        }
        for (const std::string& mutex : held_at(at)) {
          if (released.count(mutex) != 0) continue;
          if (allowed(allows_of(func.file), stmt.line, "no-blocking-under-lock")) continue;
          if (reported.emplace(stmt.line, "block/" + mutex).second) {
            result.findings.push_back(Finding{
                func.file, stmt.line, "no-blocking-under-lock",
                std::string(waits ? "blocking wait" : "thread sleep") + " in '" +
                    func.name + "' while holding '" + mutex +
                    "'; hoist the wait out of the lock region"});
          }
        }
      }

      for (const Token& token : tokens_with_pos(stmt.text)) {
        std::string qualifier;
        const CallForm form = call_form(stmt.text, token.pos, qualifier);
        std::size_t after = token.pos + token.text.size();
        while (after < stmt.text.size() &&
               std::isspace(static_cast<unsigned char>(stmt.text[after])) != 0) {
          ++after;
        }
        const bool is_call = after < stmt.text.size() && stmt.text[after] == '(';

        const auto field = fields.find(token.text);
        if (field != fields.end() && form != CallForm::kQualified) {
          // A guarded-field access (reads, writes, and std::function fields
          // invoked as calls all count).
          ++result.access[field->second.owner].accesses;
          if (!holds_at(field->second.guard, token.pos)) {
            if (allowed(allows_of(func.file), stmt.line, "lock-region")) continue;
            if (reported.emplace(stmt.line, token.text).second) {
              result.findings.push_back(Finding{
                  func.file, stmt.line, "lock-region",
                  "field '" + token.text + "' (SHMCAFFE_GUARDED_BY " +
                      field->second.guard + ") accessed in '" + func.name +
                      "' without holding '" + field->second.guard + "'"});
              ++result.access[field->second.owner].unguarded;
            }
          }
          continue;
        }
        if (!is_call) continue;
        for (const std::size_t idx :
             resolve_call(token.text, form, qualifier, func, caller_family)) {
          const FunctionInfo& callee = funcs[idx];
          for (const std::string& req : callee.requires_locks) {
            const std::string mutex = last_identifier(req);
            if (mutex.empty() || holds_at(mutex, token.pos)) continue;
            if (allowed(allows_of(func.file), stmt.line, "lock-region")) continue;
            if (reported.emplace(stmt.line, token.text + "/" + mutex).second) {
              result.findings.push_back(Finding{
                  func.file, stmt.line, "lock-region",
                  "call to '" + callee.name + "' which SHMCAFFE_REQUIRES(" + req +
                      ") while not holding '" + mutex + "'"});
            }
          }
          // no-blocking-under-lock: a call into the blocking set while a
          // guard is held.  A mutex the callee SHMCAFFE_REQUIRES is exempt:
          // the callee waits *on* the caller's lock and releases it (the
          // prepare_write_locked idiom).
          if (blocking[idx] != 0) {
            for (const std::string& mutex : held_at(token.pos)) {
              bool callee_releases = false;
              for (const std::string& req : callee.requires_locks) {
                if (last_identifier(req) == mutex) {
                  callee_releases = true;
                  break;
                }
              }
              if (callee_releases) continue;
              if (allowed(allows_of(func.file), stmt.line, "no-blocking-under-lock")) {
                continue;
              }
              if (reported.emplace(stmt.line, token.text + "/block/" + mutex).second) {
                result.findings.push_back(Finding{
                    func.file, stmt.line, "no-blocking-under-lock",
                    "call to '" + callee.name + "', which " + blocking_why[idx] +
                        ", while holding '" + mutex +
                        "'; hoist the blocking call out of the lock region"});
              }
            }
          }
          // pin-lifetime: pin acquisition while any guard is held inverts
          // the pin-then-lock retirement protocol.
          if (pin_rules && pin_return[idx] != 0) {
            const std::vector<std::string> held = held_at(token.pos);
            if (!held.empty() &&
                !allowed(allows_of(func.file), stmt.line, "pin-lifetime") &&
                reported.emplace(stmt.line, token.text + "/pin").second) {
              result.findings.push_back(Finding{
                  func.file, stmt.line, "pin-lifetime",
                  "pin acquired via '" + callee.name + "' in '" + func.name +
                      "' while holding '" + held.front() +
                      "'; the retirement protocol is pin-then-lock — take the pin "
                      "before locking or justify with lint:allow(pin-lifetime)"});
            }
          }
        }
      }
      if (stmt.term == '}' && stack.size() > 1) stack.pop_back();
    }
  }

  // ---- determinism-taint pass ----------------------------------------------
  static const std::regex kDetClock(
      R"(\b(system_clock|steady_clock|high_resolution_clock)\b|::now\s*\(|\bgettimeofday\b|\blocaltime\b|\bgmtime\b|\btime\s*\(|\bclock\s*\(\s*\))");
  static const std::regex kDetRng(
      R"(\b(rand|srand)\s*\(|\brandom_device\b|\bmt19937(_64)?\b|\bdefault_random_engine\b|\bgetenv\b|\bhardware_concurrency\b)");
  static const std::regex kDetAddr(
      R"(reinterpret_cast\s*<[^>]*intptr_t\s*>|\bhash\s*<[^<>]*\*\s*>|\bunordered_(?:map|set)\s*<[^,<>]*\*)");
  static const std::regex kBeginEnd(
      R"(\b([A-Za-z_]\w*)\s*(?:\.|->)\s*c?r?(?:begin|end)\s*\()");
  static const std::regex kRangeFor(R"(\bfor\s*\()");

  std::set<std::pair<std::string, std::string>> root_keys;
  for (const FunctionInfo& func : funcs) {
    if (func.deterministic && starts_with(func.file, "src/")) {
      root_keys.insert({func.class_name, func.name});
    }
  }
  result.deterministic_roots = static_cast<int>(root_keys.size());

  std::set<std::size_t> visited;
  std::vector<std::pair<std::size_t, std::string>> todo;  // (def index, root label)
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    if (!funcs[i].has_body || !funcs[i].deterministic) continue;
    if (!starts_with(funcs[i].file, "src/")) continue;
    if (visited.insert(i).second) todo.push_back({i, funcs[i].name});
  }
  while (!todo.empty()) {
    const auto [index, root] = todo.back();
    todo.pop_back();
    const FunctionInfo& func = funcs[index];

    std::set<std::string> unordered;
    collect_unordered_idents(func.head, unordered);
    collect_unordered_idents(func.body, unordered);
    std::set<std::string> caller_family;
    if (!func.class_name.empty()) {
      caller_family.insert(func.class_name);
      const ClassInfo* cls = find_class(classes, func.class_name, func.file, closure);
      for (const ClassInfo& candidate : classes) {
        if (caller_family.count(candidate.name) == 0 &&
            !starts_with(candidate.name, func.class_name + "::")) {
          continue;
        }
        for (const FieldInfo& field : candidate.fields) {
          if (field.type.find("unordered_") != std::string::npos) unordered.insert(field.name);
        }
      }
      while (cls != nullptr && !cls->enclosing.empty()) {
        caller_family.insert(cls->enclosing);
        cls = find_class(classes, cls->enclosing, func.file, closure);
      }
    }

    const std::string suffix = root == func.name
                                   ? "' (a SHMCAFFE_DETERMINISTIC root)"
                                   : "', reachable from SHMCAFFE_DETERMINISTIC root '" +
                                         root + "'";
    const auto taint = [&](int line, const std::string& what) {
      if (allowed(allows_of(func.file), line, "determinism")) return;
      result.findings.push_back(Finding{func.file, line, "determinism",
                                        what + " in '" + func.name + suffix});
      ++result.tainted;
    };

    for (const BodyStatement& stmt : body_statements(func.body, func.body_line)) {
      if (std::regex_search(stmt.text, kDetClock)) {
        taint(stmt.line, "wall-clock read");
      }
      if (std::regex_search(stmt.text, kDetRng)) {
        taint(stmt.line, "non-seeded RNG / environment read");
      }
      if (std::regex_search(stmt.text, kDetAddr)) {
        taint(stmt.line, "address-dependent ordering");
      }
      std::smatch for_match;
      if (std::regex_search(stmt.text, for_match, kRangeFor)) {
        // `for (decl : range)` — the range is the tail after the last
        // non-scope ':' inside the for-head's parentheses.  A brace-less
        // loop body can trail the head in the same statement, so bound the
        // search at the matching close paren rather than the statement end.
        const std::size_t open =
            static_cast<std::size_t>(for_match.position(0)) + for_match.length(0) - 1;
        std::size_t close = open;
        int depth = 0;
        for (std::size_t i = open; i < stmt.text.size(); ++i) {
          if (stmt.text[i] == '(') ++depth;
          if (stmt.text[i] == ')' && --depth == 0) {
            close = i;
            break;
          }
        }
        std::size_t colon = std::string::npos;
        for (std::size_t i = open; i < close; ++i) {
          if (stmt.text[i] != ':') continue;
          if (i > 0 && stmt.text[i - 1] == ':') continue;
          if (i + 1 < stmt.text.size() && stmt.text[i + 1] == ':') {
            ++i;
            continue;
          }
          colon = i;
        }
        if (colon != std::string::npos && close > colon) {
          const std::string range = last_identifier(stmt.text.substr(colon + 1, close - colon - 1));
          if (unordered.count(range) != 0) {
            taint(stmt.line, "iteration over unordered container '" + range + "'");
          }
        }
      }
      for (auto it = std::sregex_iterator(stmt.text.begin(), stmt.text.end(), kBeginEnd);
           it != std::sregex_iterator(); ++it) {
        if (unordered.count((*it)[1].str()) != 0) {
          taint(stmt.line, "iteration over unordered container '" + (*it)[1].str() + "'");
        }
      }

      for (const Token& token : tokens_with_pos(stmt.text)) {
        std::size_t after = token.pos + token.text.size();
        while (after < stmt.text.size() &&
               std::isspace(static_cast<unsigned char>(stmt.text[after])) != 0) {
          ++after;
        }
        if (after >= stmt.text.size() || stmt.text[after] != '(') continue;
        std::string qualifier;
        const CallForm form = call_form(stmt.text, token.pos, qualifier);
        for (const std::size_t idx :
             resolve_call(token.text, form, qualifier, func, caller_family)) {
          if (!funcs[idx].has_body) continue;
          if (visited.insert(idx).second) todo.push_back({idx, root});
        }
      }
    }
  }

  // ---- no-hot-alloc pass ---------------------------------------------------
  // Same reachability walk as the determinism pass, rooted at the
  // SHMCAFFE_HOT_KERNEL annotations: per-iteration kernels and everything
  // they call must not touch the heap.  Arena-routed statements are the
  // sanctioned allocation channel (the registry recycles slabs across
  // iterations), so any statement mentioning the arena is exempt.
  static const std::regex kHotNew(
      R"(\bnew\b|\bmake_unique\s*<|\bmake_shared\s*<|\bmalloc\s*\(|\bcalloc\s*\()");
  static const std::regex kHotContainer(
      R"(\b(?:std\s*::\s*)?(?:vector|string|deque|list|map|set|multimap|multiset|unordered_map|unordered_set)\s*<[^;{}]*>\s+[A-Za-z_]\w*\s*[({=;])");
  static const std::regex kHotGrow(
      R"([.\>]\s*(?:resize|reserve|push_back|emplace_back|emplace|shrink_to_fit)\s*\()");
  static const std::regex kArenaRouted(R"(\barena\s*::|\bglobal_arena\b|\bArena\b)");

  std::set<std::pair<std::string, std::string>> hot_root_keys;
  for (const FunctionInfo& func : funcs) {
    if (func.hot_kernel && starts_with(func.file, "src/")) {
      hot_root_keys.insert({func.class_name, func.name});
    }
  }
  result.hot_kernel_roots = static_cast<int>(hot_root_keys.size());

  std::set<std::size_t> hot_visited;
  std::vector<std::pair<std::size_t, std::string>> hot_todo;  // (def index, root label)
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    if (!funcs[i].has_body || !funcs[i].hot_kernel) continue;
    if (!starts_with(funcs[i].file, "src/")) continue;
    if (hot_visited.insert(i).second) hot_todo.push_back({i, funcs[i].name});
  }
  while (!hot_todo.empty()) {
    const auto [index, root] = hot_todo.back();
    hot_todo.pop_back();
    const FunctionInfo& func = funcs[index];
    // The arena implementation is the sanctioned allocation channel itself:
    // neither flagged nor walked further (its slab path bottoms out in
    // ::operator new by design).
    if (starts_with(func.file, "src/common/arena.")) continue;

    std::set<std::string> caller_family;
    if (!func.class_name.empty()) {
      caller_family.insert(func.class_name);
      const ClassInfo* cls = find_class(classes, func.class_name, func.file, closure);
      while (cls != nullptr && !cls->enclosing.empty()) {
        caller_family.insert(cls->enclosing);
        cls = find_class(classes, cls->enclosing, func.file, closure);
      }
    }

    const std::string suffix = root == func.name
                                   ? "' (a SHMCAFFE_HOT_KERNEL root)"
                                   : "', reachable from SHMCAFFE_HOT_KERNEL root '" +
                                         root + "'";
    const auto flag = [&](int line, const std::string& what) {
      if (allowed(allows_of(func.file), line, "no-hot-alloc")) return;
      result.findings.push_back(Finding{
          func.file, line, "no-hot-alloc",
          what + " in '" + func.name + suffix +
              "; route per-iteration storage through common::arena"});
      ++result.hot_allocs;
    };

    for (const BodyStatement& stmt : body_statements(func.body, func.body_line)) {
      if (!std::regex_search(stmt.text, kArenaRouted)) {
        if (std::regex_search(stmt.text, kHotNew)) {
          flag(stmt.line, "heap allocation");
        } else if (std::regex_search(stmt.text, kHotContainer)) {
          flag(stmt.line, "owning-container declaration");
        } else if (std::regex_search(stmt.text, kHotGrow)) {
          flag(stmt.line, "container growth");
        }
      }

      for (const Token& token : tokens_with_pos(stmt.text)) {
        std::size_t after = token.pos + token.text.size();
        while (after < stmt.text.size() &&
               std::isspace(static_cast<unsigned char>(stmt.text[after])) != 0) {
          ++after;
        }
        if (after >= stmt.text.size() || stmt.text[after] != '(') continue;
        std::string qualifier;
        const CallForm form = call_form(stmt.text, token.pos, qualifier);
        for (const std::size_t idx :
             resolve_call(token.text, form, qualifier, func, caller_family)) {
          if (!funcs[idx].has_body) continue;
          if (hot_visited.insert(idx).second) hot_todo.push_back({idx, root});
        }
      }
    }
  }

  std::stable_sort(result.findings.begin(), result.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.file != b.file ? a.file < b.file : a.line < b.line;
                   });
  return result;
}

}  // namespace

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> ids = {
      "rng-source",       "wall-clock",  "sim-wall-clock",  "raii-lock",
      "sim-ptr-container", "pragma-once", "include-hygiene", "no-naked-epoch",
      "no-raw-thread",     "guarded-by",  "include-layering", "lock-region",
      "determinism",       "no-hot-alloc", "no-blocking-under-lock",
      "pin-lifetime",      "stale-allow"};
  return ids;
}

bool is_sim_path(std::string_view path) {
  if (starts_with(path, "src/sim/") || starts_with(path, "src/net/")) return true;
  return starts_with(basename_of(path), "sim_");
}

const std::vector<std::string>& layering_dirs() {
  static const std::vector<std::string> dirs = [] {
    std::vector<std::string> out;
    for (const LayerEntry& entry : layering_table()) out.emplace_back(entry.dir);
    return out;
  }();
  return dirs;
}

bool layering_allows(std::string_view from_dir, std::string_view to_dir) {
  if (from_dir == to_dir) return true;
  const LayerEntry* entry = layer_of(from_dir);
  if (entry == nullptr) return false;
  return std::find(entry->deps.begin(), entry->deps.end(), to_dir) != entry->deps.end();
}

std::vector<std::string> scrub_source(std::string_view contents) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  std::vector<std::string> lines;
  std::string current;
  State state = State::kCode;
  std::string raw_delim;  // the `)delim"` terminator of an active raw string

  const std::size_t n = contents.size();
  // True if the 'R' at index i opens a raw string: the preceding identifier
  // run must be empty or one of the encoding prefixes (u8R", uR", LR", UR").
  const auto raw_string_at = [&](std::size_t i) {
    std::size_t start = i;
    while (start > 0 && (std::isalnum(static_cast<unsigned char>(contents[start - 1])) ||
                         contents[start - 1] == '_')) {
      --start;
    }
    const std::string_view prefix = contents.substr(start, i - start);
    return prefix.empty() || prefix == "u8" || prefix == "u" || prefix == "L" ||
           prefix == "U";
  };

  for (std::size_t i = 0; i < n; ++i) {
    const char c = contents[i];
    const char next = i + 1 < n ? contents[i + 1] : '\0';
    if (c == '\n') {
      // Unterminated ordinary strings/chars/line comments reset at EOL —
      // unless the newline is escaped (a backslash line continuation, legal
      // in line comments and literals alike).  Block comments and raw
      // strings continue across lines regardless.
      const bool spliced =
          (i >= 1 && contents[i - 1] == '\\') ||
          (i >= 2 && contents[i - 1] == '\r' && contents[i - 2] == '\\');
      if (!spliced &&
          (state == State::kLineComment || state == State::kString || state == State::kChar)) {
        state = State::kCode;
      }
      lines.push_back(std::move(current));
      current.clear();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' && raw_string_at(i)) {
          // (prefix)R"delim( ... )delim"
          std::size_t open = i + 2;
          std::string delim;
          while (open < n && contents[open] != '(' && contents[open] != '\n') {
            delim.push_back(contents[open]);
            ++open;
          }
          if (open < n && contents[open] == '(') {
            raw_delim = ")" + delim + "\"";
            state = State::kRawString;
            current += "R\"\"";  // keep a token so the line is not empty
            i = open;            // consumed through the opening '('
          } else {
            current.push_back(c);
          }
        } else if (c == '"') {
          state = State::kString;
          current.push_back('"');
        } else if (c == '\'') {
          state = State::kChar;
          current.push_back('\'');
        } else {
          current.push_back(c);
        }
        break;
      case State::kLineComment:
        break;  // dropped until EOL
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          if (next != '\n') ++i;  // never swallow a newline: line counts stay exact
        } else if (c == '"') {
          state = State::kCode;
          current.push_back('"');
        }
        break;
      case State::kChar:
        if (c == '\\') {
          if (next != '\n') ++i;
        } else if (c == '\'') {
          state = State::kCode;
          current.push_back('\'');
        }
        break;
      case State::kRawString:
        if (c == ')' && contents.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  lines.push_back(std::move(current));
  return lines;
}

std::vector<ClassInfo> index_classes(const std::vector<SourceFile>& files) {
  std::vector<ClassInfo> index;
  for (const SourceFile& file : files) {
    ClassIndexer indexer(indexable_text(file.contents), file.path, &index);
    indexer.run();
  }
  return index;
}

std::vector<FunctionInfo> index_functions(const std::vector<SourceFile>& files) {
  std::vector<ClassInfo> classes;
  std::vector<FunctionInfo> funcs;
  for (const SourceFile& file : files) {
    ClassIndexer indexer(indexable_text(file.contents), file.path, &classes, &funcs);
    indexer.run();
  }
  const IncludeClosure closure = include_closure(files);
  merge_function_annotations(funcs, closure);
  infer_locked_requirements(funcs, classes, closure);
  return funcs;
}

namespace {

/// lint_source body, over a caller-owned allow list so lint_repo can account
/// for suppression usage (the stale-allow rule) across every pass.
std::vector<Finding> lint_source_impl(std::string_view path, std::string_view contents,
                                      FileAllows& allows) {
  std::vector<Finding> findings;
  const std::vector<std::string> lines = scrub_source(contents);
  const std::vector<std::string> raw_lines = split_lines(contents);
  const bool sim = is_sim_path(path);
  const bool in_rng = starts_with(path, "src/common/rng");
  // no-raw-thread covers library code only: tests and benches drive threads
  // deliberately (pool shutdown races, concurrency suites).
  const bool raw_thread_applies =
      starts_with(path, "src/") && !raw_thread_allowed_path(path);
  // The fencing helpers themselves necessarily compare raw epoch values.
  const bool in_epoch_helpers = starts_with(path, "src/recovery/epoch");
  const bool header = ends_with(path, ".h");
  // include-layering applies to src/<dir>/ sources with a known layer dir.
  std::string from_dir;
  if (starts_with(path, "src/")) {
    const std::string_view rest = path.substr(4);
    const std::size_t slash = rest.find('/');
    if (slash != std::string_view::npos) from_dir = std::string(rest.substr(0, slash));
  }

  auto report = [&](int line, std::string_view rule, std::string message) {
    if (allowed(allows, line, rule)) return;
    findings.push_back(Finding{std::string(path), line, std::string(rule), std::move(message)});
  };

  static const std::regex kWallClock(R"(\bsystem_clock\b)");
  // no-raw-thread: std::thread / std::jthread construction or mention in
  // library code.  Matches the type name, not this_thread (the \b after ::
  // does not reach across this_thread's underscore).
  static const std::regex kRawThread(R"(\bstd\s*::\s*j?thread\b)");
  // no-naked-epoch: a comparison operator adjacent to a service-epoch value
  // (identifier containing `service_epoch`, optionally a call).  Service
  // epochs are fenced through epoch_is_current / epoch_is_stale so the
  // 0-means-never-resolved sentinel cannot be mishandled; a plain `=`
  // assignment never matches.  The `[^=!<>\-]` guard keeps `<<`, `>>`,
  // compound tokens and `->member` accesses from firing.
  static const std::regex kNakedEpochLeft(
      R"(\w*service_epoch\w*\s*(?:\(\s*\))?\s*(?:[=!<>]=|<(?!<)|>(?!>)))");
  static const std::regex kNakedEpochRight(
      R"((?:^|[^=!<>\-])(?:[=!<>]=|<(?!<)|>(?!>))\s*\w*service_epoch\w*)");
  static const std::regex kBareLock(
      R"(([A-Za-z_][A-Za-z0-9_]*)\s*(?:\.|->)\s*(lock|unlock|try_lock|lock_shared|unlock_shared|try_lock_shared)\s*\()");
  static const std::regex kPtrContainer(R"(\bunordered_(?:set|map)\s*<\s*([^,<>]*\*)\s*[,>])");
  static const std::regex kQuotedInclude("^\\s*#\\s*include\\s*\"([^\"]+)\"");
  static const std::regex kQuotedIncludeShape("^\\s*#\\s*include\\s*\"");
  static const std::regex kAngleInclude(R"(^\s*#\s*include\s*<([^>]+)>)");

  bool saw_pragma_once = false;

  for (std::size_t index = 0; index < lines.size(); ++index) {
    const std::string& line = lines[index];
    const int lineno = static_cast<int>(index) + 1;
    if (line.find("#pragma once") != std::string::npos) saw_pragma_once = true;

    if (!in_rng) {
      for (const PatternRule& rule : rng_patterns()) {
        if (std::regex_search(line, rule.pattern)) report(lineno, rule.rule, rule.message);
      }
    }
    if (raw_thread_applies && std::regex_search(line, kRawThread)) {
      report(lineno, "no-raw-thread",
             "raw std::thread in library code; use the shared work pool "
             "(common/parallel.h) so results stay thread-count-invariant");
    }
    if (std::regex_search(line, kWallClock)) {
      report(lineno, "wall-clock",
             "std::chrono::system_clock is nondeterministic wall time; use steady_clock "
             "(functional code) or the simulation clock");
    }
    if (!in_epoch_helpers && (std::regex_search(line, kNakedEpochLeft) ||
                              std::regex_search(line, kNakedEpochRight))) {
      report(lineno, "no-naked-epoch",
             "naked comparison on a service epoch; use epoch_is_current / "
             "epoch_is_stale (src/recovery/epoch.h) so fencing semantics stay "
             "in one place");
    }
    if (sim) {
      for (const PatternRule& rule : sim_clock_patterns()) {
        if (std::regex_search(line, rule.pattern)) report(lineno, rule.rule, rule.message);
      }
      std::smatch container;
      if (std::regex_search(line, container, kPtrContainer)) {
        report(lineno, "sim-ptr-container",
               "pointer-keyed " + container.str(0).substr(0, container.str(0).find('<')) +
                   " in simulated code iterates in ASLR-dependent order; key by a "
                   "stable id or use an ordered container");
      }
    }
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kBareLock);
         it != std::sregex_iterator(); ++it) {
      const std::string receiver = lowercase((*it)[1].str());
      if (receiver.find("mutex") != std::string::npos ||
          receiver.find("mtx") != std::string::npos) {
        report(lineno, "raii-lock",
               "bare ." + (*it)[2].str() + "() on '" + (*it)[1].str() +
                   "'; use std::scoped_lock / unique_lock / shared_lock");
      }
    }
    // The scrubber blanks string-literal bodies, so the quoted target must be
    // re-extracted from the raw line; the scrubbed line gates on the directive
    // itself so commented-out includes stay ignored.
    std::smatch include;
    if (std::regex_search(line, kQuotedIncludeShape) && index < raw_lines.size() &&
        std::regex_search(raw_lines[index], include, kQuotedInclude)) {
      const std::string target = include[1].str();
      if (target.find("../") != std::string::npos || starts_with(target, "./")) {
        report(lineno, "include-hygiene",
               "relative include \"" + target + "\"; use the repo-relative path from src/");
      } else if (target.find('/') == std::string::npos) {
        report(lineno, "include-hygiene",
               "directory-less include \"" + target +
                   "\"; project headers are included as \"dir/file.h\"");
      } else if (!from_dir.empty()) {
        // include-layering: the target's top directory must be in this
        // directory's declared dependency set (or the same directory).
        const std::string to_dir = target.substr(0, target.find('/'));
        if (to_dir != from_dir) {
          if (layer_of(from_dir) == nullptr) {
            report(lineno, "include-layering",
                   "src/" + from_dir + "/ is not a registered layer; add it (and its "
                   "dependencies) to the directory DAG in tools/lint/lint.cc");
          } else if (layer_of(to_dir) == nullptr) {
            report(lineno, "include-layering",
                   "include \"" + target + "\": '" + to_dir +
                       "' is not a src/ layer in the directory DAG (src/ must not "
                       "include from tests/, bench/ or tools/)");
          } else if (!layering_allows(from_dir, to_dir)) {
            report(lineno, "include-layering",
                   "include \"" + target + "\" from src/" + from_dir +
                       "/: '" + to_dir + "' is not in '" + from_dir +
                       "'s dependency set (upward or cyclic include; see the "
                       "layering DAG in DESIGN.md)");
          }
        }
      }
    } else if (std::regex_search(line, include, kAngleInclude)) {
      const std::string target = include[1].str();
      if (is_project_include(target)) {
        report(lineno, "include-hygiene",
               "project header <" + target + "> included with angle brackets; use quotes");
      }
    }
  }

  if (header && !saw_pragma_once) {
    report(1, "pragma-once", "header is missing #pragma once");
  }

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) { return a.line < b.line; });
  return findings;
}

}  // namespace

std::vector<Finding> lint_source(std::string_view path, std::string_view contents) {
  FileAllows allows = collect_allows(contents);
  return lint_source_impl(path, contents, allows);
}

std::vector<Finding> lint_repo(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  // One allow list per file, shared by every pass, so a suppression that
  // catches a finding in *any* pass counts as used for stale-allow.
  std::map<std::string, FileAllows> allows_by_file;
  for (const SourceFile& file : files) {
    allows_by_file[file.path] = collect_allows(file.contents);
  }
  for (const SourceFile& file : files) {
    std::vector<Finding> file_findings =
        lint_source_impl(file.path, file.contents, allows_by_file[file.path]);
    findings.insert(findings.end(), std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  const std::vector<ClassInfo> index = index_classes(files);
  const std::vector<FunctionInfo> funcs = index_functions(files);
  std::vector<Finding> guarded = guarded_by_findings(index, allows_by_file);
  findings.insert(findings.end(), std::make_move_iterator(guarded.begin()),
                  std::make_move_iterator(guarded.end()));
  RepoAnalysis analysis = analyze_repo(files, index, funcs, allows_by_file);
  findings.insert(findings.end(), std::make_move_iterator(analysis.findings.begin()),
                  std::make_move_iterator(analysis.findings.end()));
  // stale-allow: every annotation that suppressed nothing above.  A stale
  // annotation can itself be silenced with lint:allow(stale-allow) on its
  // line (for fixture files that exist to exercise the annotations).
  for (auto& [path, allows] : allows_by_file) {
    for (std::size_t i = 0; i < allows.size(); ++i) {
      if (allows[i].used || allows[i].rule == "stale-allow") continue;
      const int anno_line = allows[i].anno_line;
      const std::string rule = allows[i].rule;
      if (allowed(allows, anno_line, "stale-allow")) continue;
      findings.push_back(Finding{
          path, anno_line, "stale-allow",
          "lint:allow(" + rule + ") suppresses no finding; remove the stale "
          "annotation (or fix the rule id)"});
    }
  }
  std::stable_sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return a.file != b.file ? a.file < b.file : a.line < b.line;
  });
  return findings;
}

std::string coverage_json(const std::vector<SourceFile>& files) {
  struct Row {
    std::string name;
    std::string file;
    int mutexes = 0;
    int fields = 0;
    int guarded = 0;
    int unguarded = 0;
    int unannotated = 0;
    int accesses = 0;
    int unguarded_access = 0;
  };
  const std::vector<ClassInfo> classes = index_classes(files);
  const std::vector<FunctionInfo> funcs = index_functions(files);
  std::map<std::string, FileAllows> allows_by_file;
  for (const SourceFile& file : files) {
    allows_by_file[file.path] = collect_allows(file.contents);
  }
  const RepoAnalysis analysis = analyze_repo(files, classes, funcs, allows_by_file);
  std::vector<Row> rows;
  for (const ClassInfo& cls : classes) {
    if (!cls.owns_ordered_mutex || !starts_with(cls.file, "src/")) continue;
    Row row;
    row.name = cls.name;
    row.file = cls.file;
    for (const FieldInfo& field : cls.fields) {
      if (field.is_mutex) {
        ++row.mutexes;
        continue;
      }
      if (field.exempt) continue;
      ++row.fields;
      if (field.guarded) {
        ++row.guarded;
      } else if (field.unguarded) {
        ++row.unguarded;
      } else {
        ++row.unannotated;
      }
    }
    const auto access = analysis.access.find(cls.name);
    if (access != analysis.access.end()) {
      row.accesses = access->second.accesses;
      row.unguarded_access = access->second.unguarded;
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.name < b.name; });
  Row total;
  for (const Row& row : rows) {
    total.mutexes += row.mutexes;
    total.fields += row.fields;
    total.guarded += row.guarded;
    total.unguarded += row.unguarded;
    total.unannotated += row.unannotated;
  }
  // Summary access counters come from the analysis directly so accesses in
  // guarded classes without a mutex of their own (fields guarded by an
  // enclosing class's mutex) are not dropped.
  for (const auto& [owner, stats] : analysis.access) {
    total.accesses += stats.accesses;
    total.unguarded_access += stats.unguarded;
  }
  std::ostringstream out;
  // Field order matters to tools/check.sh: its sed extracts key off
  // `"unguarded": ` and `"unguarded_access": ` — the new counters sit after
  // "unannotated" so the original extract cannot mis-bind.
  out << "{\n  \"classes\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "    {\"class\": \"" << row.name << "\", \"file\": \"" << row.file
        << "\", \"mutexes\": " << row.mutexes << ", \"fields\": " << row.fields
        << ", \"guarded\": " << row.guarded << ", \"unguarded\": " << row.unguarded
        << ", \"unannotated\": " << row.unannotated
        << ", \"accesses\": " << row.accesses
        << ", \"unguarded_access\": " << row.unguarded_access << "}"
        << (i + 1 < rows.size() ? "," : "") << '\n';
  }
  out << "  ],\n";
  out << "  \"summary\": {\"classes\": " << rows.size() << ", \"mutexes\": " << total.mutexes
      << ", \"fields\": " << total.fields << ", \"guarded\": " << total.guarded
      << ", \"unguarded\": " << total.unguarded << ", \"unannotated\": " << total.unannotated
      << ", \"accesses\": " << total.accesses
      << ", \"unguarded_access\": " << total.unguarded_access
      << ", \"deterministic_roots\": " << analysis.deterministic_roots
      << ", \"tainted\": " << analysis.tainted
      << ", \"hot_kernel_roots\": " << analysis.hot_kernel_roots
      << ", \"hot_allocs\": " << analysis.hot_allocs
      << ", \"blocking_roots\": " << analysis.blocking_roots
      << ", \"nonblocking_contracts\": " << analysis.nonblocking_contracts
      << ", \"pin_escapes\": " << analysis.pin_escapes << "}\n}\n";
  return out.str();
}

std::string to_text(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ':' << f.line << ": " << f.rule << ": " << f.message << '\n';
  }
  return out.str();
}

std::string to_json(const std::vector<Finding>& findings) {
  // Control characters and non-ASCII bytes are \u-escaped so the output is
  // always parseable ASCII JSON, whatever a finding message or path carries
  // (multi-byte UTF-8 sequences come out as one \u00XX escape per byte —
  // lossy as text, but the check.sh gates only need well-formed JSON).
  auto escape = [](const std::string& s) {
    std::string out;
    char buf[8];
    for (const char raw : s) {
      const auto c = static_cast<unsigned char>(raw);
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (c < 0x20 || c >= 0x7f) {
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out.push_back(raw);
          }
      }
    }
    return out;
  };
  std::ostringstream out;
  out << "[\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << "  {\"file\": \"" << escape(f.file) << "\", \"line\": " << f.line
        << ", \"rule\": \"" << f.rule << "\", \"message\": \"" << escape(f.message) << "\"}"
        << (i + 1 < findings.size() ? "," : "") << '\n';
  }
  out << "]\n";
  return out.str();
}

}  // namespace shmcaffe::lint
