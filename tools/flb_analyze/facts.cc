#include "tools/flb_analyze/facts.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "tools/flb_analyze/cfg.h"

namespace flb::analyze {

namespace {

// ---------------------------------------------------------------------------
// Source / sink vocabularies.
// ---------------------------------------------------------------------------

// Identifiers that name a wall-clock read wherever they appear.
const std::set<std::string>& WallAlways() {
  static const std::set<std::string> s = {
      "system_clock", "steady_clock",  "high_resolution_clock",
      "gettimeofday", "clock_gettime", "timespec_get",
      "localtime",    "gmtime",        "mktime",
      "WallTimer"};
  return s;
}
// ...and the ones that only count when called (`time(...)`), so a member
// or accessor named `time`/`clock` stays clean.
const std::set<std::string>& WallCallOnly() {
  static const std::set<std::string> s = {"time", "clock",
                                          "ElapsedSeconds"};
  return s;
}
const std::set<std::string>& EntropyAlways() {
  static const std::set<std::string> s = {
      "random_device", "mt19937",  "mt19937_64", "default_random_engine",
      "minstd_rand",   "drand48",  "lrand48",    "mrand48"};
  return s;
}
const std::set<std::string>& EntropyCallOnly() {
  static const std::set<std::string> s = {"rand", "srand", "random"};
  return s;
}
// Declaring a variable of one of these types taints it at birth.
const std::set<std::string>& TaintedTypes() {
  static const std::set<std::string> s = {
      "WallTimer", "mt19937", "mt19937_64", "random_device",
      "default_random_engine", "minstd_rand"};
  return s;
}
const std::set<std::string>& UnorderedTypes() {
  static const std::set<std::string> s = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return s;
}
const std::set<std::string>& SerializeSinks() {
  static const std::set<std::string> s = {
      "PutU32",         "PutU64",          "PutDouble",
      "PutString",      "PutBigInt",       "PutBigIntFixed",
      "PutDoubleVector", "PutBigIntBatchFixed", "PutBytes"};
  return s;
}
const std::set<std::string>& StmtKeywords() {
  static const std::set<std::string> s = {
      "if",     "for",    "while",  "switch",   "return", "sizeof",
      "catch",  "throw",  "new",    "delete",   "case",   "goto",
      "do",     "else",   "co_return", "co_await", "co_yield",
      "static_assert",    "assert", "decltype", "alignof", "typeid",
      "operator"};
  return s;
}
const std::set<std::string>& CastKeywords() {
  static const std::set<std::string> s = {
      "static_cast", "const_cast", "dynamic_cast", "reinterpret_cast"};
  return s;
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

bool LooksLikeMutexName(const std::string& name) {
  const std::string low = Lower(name);
  return low == "mu" || low == "mu_" ||
         (low.size() >= 3 && low.compare(low.size() - 3, 3, "mu_") == 0) ||
         low.find("mutex") != std::string::npos ||
         low.find("lock_") != std::string::npos;
}

}  // namespace

std::string NormalizePath(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  const size_t pos = path.rfind("/src/");
  if (pos != std::string::npos) return path.substr(pos + 1);
  return path;
}

namespace {

// ---------------------------------------------------------------------------
// Per-function extraction.
// ---------------------------------------------------------------------------

class FnExtractor {
 public:
  FnExtractor(const std::vector<Token>& t, const FunctionDecl& decl,
              const std::set<std::string>& local_unordered)
      : t_(t), decl_(decl), local_unordered_(local_unordered) {
    out_.qual_name = decl.qual_name;
    out_.class_name = decl.class_name;
    out_.line = decl.line;
    out_.params = decl.params;
    for (size_t i = 0; i < decl.params.size(); ++i) {
      if (!decl.params[i].empty()) {
        param_index_[decl.params[i]] = i;
      }
    }
  }

  FnFacts Run() {
    WalkLocksAndCalls();
    const Cfg cfg = BuildCfg(t_, decl_.body_begin, decl_.body_end);
    const std::vector<Stmt> stmts = cfg.Statements();
    // Union-only transfer functions: iterate the statement set until the
    // local taint map stops changing.
    for (int round = 0; round < 8; ++round) {
      if (!TaintRound(stmts)) break;
    }
    EmitSinksAndReturns(stmts);
    FillCallArgs();
    return std::move(out_);
  }

 private:
  // Qualifies a lock expression ("mu_", "other.mu_", "this->mu_") with the
  // enclosing class so the same member names one node per class.
  std::string QualifyLock(const std::string& expr) const {
    std::string e = expr;
    if (e.rfind("this.", 0) == 0) e = e.substr(5);
    const std::string owner =
        decl_.class_name.empty() ? decl_.qual_name : decl_.class_name;
    return owner + "::" + e;
  }

  // Collects the dotted identifier chain inside a paren range, e.g.
  // `(&other.mu_)` -> "other.mu_".
  std::string LockExpr(size_t open, size_t close) const {
    std::string expr;
    for (size_t j = open + 1; j < close; ++j) {
      if (IsIdent(t_, j)) {
        if (!expr.empty()) expr += '.';
        expr += t_[j].text;
      }
    }
    return expr;
  }

  std::vector<std::string> HeldNames() const {
    std::vector<std::string> held;
    held.reserve(active_locks_.size());
    for (const auto& l : active_locks_) held.push_back(l.name);
    return held;
  }

  // Lowercased receiver chain of a call at token index i (the callee
  // identifier): `obs::MetricsRegistry::Global().Count(` -> the chain for
  // `Count` is "metricsregistry.global".
  std::string ChainOf(size_t i) const {
    std::string chain;
    size_t j = i;
    while (j >= 2) {
      const std::string& sep = t_[j - 1].text;
      if (sep != "." && sep != "->" && sep != "::") break;
      size_t prev = j - 2;
      if (t_[prev].text == ")") {
        // Back-skip a balanced call: `Global()` / `clock()`.
        int depth = 0;
        size_t k = prev;
        while (true) {
          if (t_[k].text == ")") ++depth;
          if (t_[k].text == "(" && --depth == 0) break;
          if (k == 0) return chain;
          --k;
        }
        if (k == 0 || !IsIdent(t_, k - 1)) return chain;
        prev = k - 1;
      }
      if (!IsIdent(t_, prev)) break;
      if (t_[prev].text != "this") {
        chain = chain.empty() ? Lower(t_[prev].text)
                              : Lower(t_[prev].text) + "." + chain;
      }
      j = prev;
    }
    return chain;
  }

  // Lambda body token ranges within the function body whose execution is
  // NOT synchronous with this function. A `[` opens a lambda-introducer
  // when it cannot be a subscript (no ident/`)`/`]` before it) and is not
  // an attribute (`[[`). A lambda bound to a local name that the body
  // later calls (`auto run = [&]{...}; ... run(i);`), or invoked
  // immediately (`[&]{...}()`), runs right here — only lambdas that escape
  // un-invoked (thread bodies, stored callbacks) are deferred.
  void FindLambdaBodies() {
    for (size_t i = decl_.body_begin; i < decl_.body_end; ++i) {
      if (t_[i].text != "[" || Is(t_, i + 1, "[")) continue;
      if (i > 0 && (IsIdent(t_, i - 1) || t_[i - 1].text == ")" ||
                    t_[i - 1].text == "]")) {
        continue;
      }
      size_t j = SkipBalanced(t_, i, "[", "]");
      if (j >= decl_.body_end) continue;
      if (Is(t_, j, "(")) j = SkipBalanced(t_, j, "(", ")");
      // Specifiers / trailing return type before the body brace.
      size_t k = j;
      for (int guard = 0; k < decl_.body_end && guard < 12; ++guard, ++k) {
        const std::string& x = t_[k].text;
        if (x == "{" || x == ";" || x == "," || x == ")") break;
      }
      if (k >= decl_.body_end || !Is(t_, k, "{")) continue;
      const size_t body_end = SkipBalanced(t_, k, "{", "}");
      if (Is(t_, body_end, "(")) continue;  // immediately invoked
      if (i >= 2 && Is(t_, i - 1, "=") && IsIdent(t_, i - 2)) {
        const std::string& name = t_[i - 2].text;
        bool invoked = false;
        for (size_t m = decl_.body_begin; m + 1 < decl_.body_end; ++m) {
          if ((m < i - 2 || m >= body_end) && Is(t_, m + 1, "(") &&
              IsIdent(t_, m) && t_[m].text == name) {
            invoked = true;
            break;
          }
        }
        if (invoked) continue;  // called in this body: synchronous
      }
      lambdas_.emplace_back(k, body_end);
    }
  }

  bool InLambda(size_t i) const {
    for (const auto& [b, e] : lambdas_) {
      if (i > b && i < e) return true;
    }
    return false;
  }

  // One walk over the body: RAII/manual lock scopes, acquisitions with the
  // held set, and every call site with the held set. Argument atoms are
  // filled in later, after the taint fixpoint.
  void WalkLocksAndCalls() {
    FindLambdaBodies();
    int depth = 0;
    for (size_t i = decl_.body_begin; i < decl_.body_end; ++i) {
      const std::string& x = t_[i].text;
      if (x == "{") {
        ++depth;
        continue;
      }
      if (x == "}") {
        while (!active_locks_.empty() && active_locks_.back().depth >= depth) {
          active_locks_.pop_back();
        }
        --depth;
        continue;
      }
      if (!IsIdent(t_, i)) continue;

      // RAII guards: `MutexLock l(mu_)`, `lock_guard<...> l(mu_)`.
      const bool raii = x == "MutexLock" || x == "lock_guard" ||
                        x == "unique_lock" || x == "scoped_lock" ||
                        x == "shared_lock";
      if (raii) {
        size_t j = i + 1;
        if (Is(t_, j, "<")) j = SkipBalanced(t_, j, "<", ">");
        if (IsIdent(t_, j) && Is(t_, j + 1, "(")) {
          const size_t close = SkipBalanced(t_, j + 1, "(", ")") - 1;
          const std::string expr = LockExpr(j + 1, close);
          if (!expr.empty()) {
            // A guard declared inside a lambda protects the lambda's own
            // execution, not this function's — skip it.
            if (!InLambda(i)) Acquire(QualifyLock(expr), t_[i].line, depth);
            i = close;
          }
        }
        continue;
      }

      // Manual lock()/unlock() on something that looks like a mutex.
      if ((x == "lock" || x == "Lock") && Is(t_, i + 1, "(") &&
          i >= 2 &&
          (t_[i - 1].text == "." || t_[i - 1].text == "->") &&
          IsIdent(t_, i - 2) && LooksLikeMutexName(t_[i - 2].text)) {
        if (!InLambda(i)) {
          Acquire(QualifyLock(t_[i - 2].text), t_[i].line, depth);
        }
        continue;
      }
      if ((x == "unlock" || x == "Unlock") && Is(t_, i + 1, "(") &&
          i >= 2 &&
          (t_[i - 1].text == "." || t_[i - 1].text == "->") &&
          IsIdent(t_, i - 2)) {
        const std::string name = QualifyLock(t_[i - 2].text);
        for (size_t k = active_locks_.size(); k-- > 0;) {
          if (active_locks_[k].name == name) {
            active_locks_.erase(active_locks_.begin() + k);
            break;
          }
        }
        continue;
      }

      // Call sites.
      if (!Is(t_, i + 1, "(")) continue;
      if (StmtKeywords().count(x) != 0 || CastKeywords().count(x) != 0) {
        continue;
      }
      std::string callee = x;
      if (i > decl_.body_begin) {
        const std::string& prev = t_[i - 1].text;
        if (prev == ">") continue;  // `vector<int> v(...)`: skip
        if (IsIdent(t_, i - 1) && StmtKeywords().count(prev) == 0 &&
            prev != "return") {
          // Declaration with ctor args: `Rng rng(seed)` — the call is to
          // the type's constructor.
          callee = prev;
          if (CastKeywords().count(callee) != 0) continue;
        }
      }
      PendingCall call;
      call.index = i;
      call.paren = i + 1;
      call.facts.callee = callee;
      call.facts.line = t_[i].line;
      call.facts.chain = ChainOf(i);
      call.facts.held = HeldNames();
      call.facts.deferred = InLambda(i);
      pending_calls_.push_back(std::move(call));
    }
  }

  void Acquire(const std::string& lock, int line, int depth) {
    out_.acquisitions.push_back(LockAcq{lock, line, HeldNames()});
    active_locks_.push_back(ActiveLock{lock, depth});
  }

  // ---- taint ---------------------------------------------------------

  // Atoms of an expression token range under the current taint map.
  std::vector<std::string> AtomsOf(size_t begin, size_t end) const {
    std::vector<std::string> atoms;
    auto add = [&](const std::string& a) {
      if (std::find(atoms.begin(), atoms.end(), a) == atoms.end()) {
        atoms.push_back(a);
      }
    };
    for (size_t j = begin; j < end && j < t_.size(); ++j) {
      if (t_[j].text == "reinterpret_cast" && Is(t_, j + 1, "<")) {
        const size_t close = SkipBalanced(t_, j + 1, "<", ">");
        for (size_t k = j + 2; k + 1 < close; ++k) {
          if (t_[k].text == "uintptr_t" || t_[k].text == "intptr_t" ||
              t_[k].text == "size_t") {
            add("src:pointer_order");
          }
        }
        continue;
      }
      if (!IsIdent(t_, j)) continue;
      const std::string& id = t_[j].text;
      const bool member =
          j > 0 && (t_[j - 1].text == "." || t_[j - 1].text == "->");
      const bool called = Is(t_, j + 1, "(");
      if (id == "hash" && Is(t_, j + 1, "<")) {
        const size_t close = SkipBalanced(t_, j + 1, "<", ">");
        for (size_t k = j + 2; k + 1 < close; ++k) {
          if (t_[k].text == "*") add("src:pointer_order");
        }
      }
      if ((!member && WallAlways().count(id) != 0) ||
          (called && WallCallOnly().count(id) != 0 &&
           (!member || id == "ElapsedSeconds"))) {
        add("src:wall_clock");
        continue;
      }
      if ((!member && EntropyAlways().count(id) != 0) ||
          (!member && called && EntropyCallOnly().count(id) != 0)) {
        add("src:entropy");
        continue;
      }
      if (member) {
        // Method calls contribute through their receiver's taint only.
        continue;
      }
      const auto p = param_index_.find(id);
      if (p != param_index_.end()) add("param:" + std::to_string(p->second));
      const auto v = taint_.find(id);
      if (v != taint_.end()) {
        for (const std::string& a : v->second) add(a);
      }
      if (called && StmtKeywords().count(id) == 0 &&
          CastKeywords().count(id) == 0) {
        add("call:" + id);
      }
    }
    return atoms;
  }

  bool AddTaint(const std::string& var, const std::vector<std::string>& atoms) {
    bool changed = false;
    auto& set = taint_[var];
    for (const std::string& a : atoms) {
      if (std::find(set.begin(), set.end(), a) == set.end()) {
        set.push_back(a);
        changed = true;
      }
    }
    return changed;
  }

  // Index of the first top-level `=` in [begin, end), or end.
  size_t FindAssign(size_t begin, size_t end) const {
    int depth = 0;
    for (size_t j = begin; j < end; ++j) {
      const std::string& x = t_[j].text;
      if (x == "(" || x == "[" || x == "{") ++depth;
      if (x == ")" || x == "]" || x == "}") --depth;
      if (x == "=" && depth == 0) return j;
      if (x == "<" && j + 1 < end && t_[j + 1].text == "=") return end;
    }
    return end;
  }

  bool TaintRound(const std::vector<Stmt>& stmts) {
    bool changed = false;
    for (const Stmt& s : stmts) {
      if (s.begin >= t_.size()) continue;
      const std::string& head = t_[s.begin].text;
      // Type-based taint: `WallTimer timer;` etc.
      for (size_t j = s.begin; j + 1 < s.end; ++j) {
        if (IsIdent(t_, j) && TaintedTypes().count(t_[j].text) != 0 &&
            IsIdent(t_, j + 1)) {
          const char* atom = t_[j].text == "WallTimer" ? "src:wall_clock"
                                                       : "src:entropy";
          changed |= AddTaint(t_[j + 1].text, {atom});
        }
      }
      if (head == "for" && Is(t_, s.begin + 1, "(")) {
        changed |= RangeFor(s) || changed;
        continue;
      }
      if (head == "return") continue;  // handled in the emit phase
      const size_t eq = FindAssign(s.begin, s.end);
      if (eq == s.end || eq + 1 >= s.end) continue;
      const std::vector<std::string> rhs = AtomsOf(eq + 1, s.end);
      if (rhs.empty()) continue;
      // Assignment target: the last identifier before `=` (skipping a
      // trailing compound-op fragment like `+`).
      std::string target;
      for (size_t j = s.begin; j < eq; ++j) {
        if (IsIdent(t_, j)) target = t_[j].text;
      }
      if (target.empty()) continue;
      // For member writes `base.field = ...`, taint the base object.
      for (size_t j = s.begin; j < eq; ++j) {
        if (t_[j].text == "." || t_[j].text == "->") {
          if (j > s.begin && IsIdent(t_, j - 1)) target = t_[j - 1].text;
          break;
        }
      }
      changed |= AddTaint(target, rhs);
    }
    return changed;
  }

  bool RangeFor(const Stmt& s) {
    const size_t close = SkipBalanced(t_, s.begin + 1, "(", ")");
    int depth = 0;
    size_t colon = 0;
    for (size_t j = s.begin + 1; j + 1 < close; ++j) {
      const std::string& x = t_[j].text;
      if (x == "(" || x == "<" || x == "[") ++depth;
      if (x == ")" || x == ">" || x == "]") --depth;
      if (x == ":" && depth == 1) {
        colon = j;
        break;
      }
    }
    if (colon == 0) return false;
    std::string var;
    for (size_t j = s.begin + 1; j < colon; ++j) {
      if (IsIdent(t_, j)) var = t_[j].text;
    }
    if (var.empty()) return false;
    std::vector<std::string> atoms = AtomsOf(colon + 1, close - 1);
    for (size_t j = colon + 1; j + 1 < close; ++j) {
      if (!IsIdent(t_, j)) continue;
      if (local_unordered_.count(t_[j].text) != 0) {
        atoms.push_back("src:unordered_iter");
      } else {
        atoms.push_back("iter:" + t_[j].text);
      }
    }
    return AddTaint(var, atoms);
  }

  void EmitSinksAndReturns(const std::vector<Stmt>& stmts) {
    for (const Stmt& s : stmts) {
      if (s.begin >= t_.size()) continue;
      if (t_[s.begin].text == "return") {
        for (const std::string& a : AtomsOf(s.begin + 1, s.end)) {
          if (std::find(out_.return_atoms.begin(), out_.return_atoms.end(),
                        a) == out_.return_atoms.end()) {
            out_.return_atoms.push_back(a);
          }
        }
        continue;
      }
      // RunReport field writes: `report.total_seconds = ...`.
      const size_t eq = FindAssign(s.begin, s.end);
      if (eq != s.end && eq + 1 < s.end) {
        for (size_t j = s.begin; j < eq; ++j) {
          if (t_[j].text == "." || t_[j].text == "->") {
            if (j > s.begin && IsIdent(t_, j - 1) &&
                Lower(t_[j - 1].text).find("report") != std::string::npos) {
              const std::vector<std::string> atoms = AtomsOf(eq + 1, s.end);
              if (!atoms.empty()) {
                out_.sinks.push_back(SinkSite{"report", s.line, atoms});
              }
            }
            break;
          }
        }
      }
    }
  }

  void FillCallArgs() {
    for (PendingCall& call : pending_calls_) {
      const size_t close = SkipBalanced(t_, call.paren, "(", ")");
      // Split top-level arguments.
      int depth = 0;
      size_t arg_start = call.paren + 1;
      for (size_t j = call.paren; j < close; ++j) {
        const std::string& x = t_[j].text;
        if (x == "(" || x == "<" || x == "[" || x == "{") ++depth;
        if (x == ")" || x == ">" || x == "]" || x == "}") --depth;
        const bool at_end = j + 1 == close;
        if ((x == "," && depth == 1) || at_end) {
          const size_t arg_end = at_end ? close - 1 : j;
          if (arg_end > arg_start) {
            call.facts.args.push_back(AtomsOf(arg_start, arg_end));
          } else if (!at_end || !call.facts.args.empty()) {
            call.facts.args.emplace_back();
          }
          arg_start = j + 1;
        }
      }
      ClassifySink(call.facts);
      out_.calls.push_back(std::move(call.facts));
    }
  }

  void ClassifySink(const CallSite& call) {
    std::vector<std::string> atoms;
    for (const auto& arg : call.args) {
      for (const std::string& a : arg) {
        if (std::find(atoms.begin(), atoms.end(), a) == atoms.end()) {
          atoms.push_back(a);
        }
      }
    }
    std::string kind;
    if (call.callee == "ChargeSpan" ||
        (call.callee == "Charge" &&
         call.chain.find("clock") != std::string::npos)) {
      kind = "charge";
    } else if (SerializeSinks().count(call.callee) != 0) {
      kind = "serialize";
    } else if (call.callee == "Rng" ||
               (call.callee == "ForStream" &&
                call.chain.find("rng") != std::string::npos)) {
      kind = "rng_seed";
    }
    if (!kind.empty() && !atoms.empty()) {
      out_.sinks.push_back(SinkSite{kind, call.line, atoms});
    }
  }

  struct ActiveLock {
    std::string name;
    int depth = 0;
  };
  struct PendingCall {
    size_t index = 0;
    size_t paren = 0;
    CallSite facts;
  };

  const std::vector<Token>& t_;
  const FunctionDecl& decl_;
  const std::set<std::string>& local_unordered_;
  FnFacts out_;
  std::vector<std::pair<size_t, size_t>> lambdas_;
  std::vector<ActiveLock> active_locks_;
  std::vector<PendingCall> pending_calls_;
  std::map<std::string, size_t> param_index_;
  std::map<std::string, std::vector<std::string>> taint_;
};

}  // namespace

FileFacts ExtractFacts(const SourceFile& file) {
  FileFacts facts;
  facts.path = file.path;

  const std::vector<Token>& tokens = file.tokens;
  ParsedFile parsed = ParseFile(tokens);
  facts.includes = std::move(parsed.includes);

  // Names declared with an unordered container type anywhere in the file
  // (members included): feeds the global index resolving iter:<name>.
  std::set<std::string> unordered;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!IsIdent(tokens, i) || UnorderedTypes().count(tokens[i].text) == 0) {
      continue;
    }
    if (!Is(tokens, i + 1, "<")) continue;
    size_t j = SkipBalanced(tokens, i + 1, "<", ">");
    while (j < tokens.size() &&
           (tokens[j].text == "&" || tokens[j].text == "*" ||
            tokens[j].text == "const")) {
      ++j;
    }
    if (IsIdent(tokens, j)) unordered.insert(tokens[j].text);
  }
  facts.unordered_decls.assign(unordered.begin(), unordered.end());

  for (const FunctionDecl& fn : parsed.functions) {
    facts.functions.push_back(FnExtractor(tokens, fn, unordered).Run());
  }
  return facts;
}

}  // namespace flb::analyze
