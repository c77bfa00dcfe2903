// The abstract interpreter behind verifyProgram(). Structure mirrors
// interp::Exec statement by statement — where the interpreter performs a
// runtime operation, the verifier applies the operation's Figure-1 state
// transition to an abstract per-(pid, symbol) ownership state and checks
// its preconditions. The correspondence is load-bearing: every diagnostic
// here maps to a concrete failure the runtime's --debug-checks (or the
// fabric's undelivered-message accounting) would report, which is what the
// differential oracle in test_pipeline_fuzz exercises.
#include "xdp/analysis/verifier.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_set>
#include <variant>

#include "xdp/il/printer.hpp"
#include "xdp/rt/types.hpp"
#include "xdp/support/arith.hpp"
#include "xdp/support/check.hpp"
#include "xdp/support/json.hpp"

namespace xdp::analysis {
namespace {

using il::DestSpec;
using il::ExprKind;
using il::ExprPtr;
using il::Program;
using il::SecExprKind;
using il::SectionExprPtr;
using il::SrcLoc;
using il::Stmt;
using il::StmtKind;
using il::StmtPtr;
using sec::Index;
using sec::Point;
using sec::RegionList;
using sec::Section;
using sec::Triplet;

using Value = std::variant<Index, double, bool>;
using AbsVal = std::optional<Value>;

/// Thrown inside compute-rule evaluation when the rule *definitely*
/// references the value of an unowned section: the rule is then false
/// (paper 2.4), exactly as in the interpreter.
struct UnownedRef {};
/// Abstract-step budget exhausted; analysis of this program aborts.
struct BudgetExceeded {};

Index asIntV(const Value& v) {
  if (std::holds_alternative<Index>(v)) return std::get<Index>(v);
  if (std::holds_alternative<bool>(v)) return std::get<bool>(v) ? 1 : 0;
  double d = std::get<double>(v);
  return static_cast<Index>(std::llround(d));
}

bool intExact(const Value& v) {
  if (!std::holds_alternative<double>(v)) return true;
  double d = std::get<double>(v);
  return static_cast<double>(static_cast<Index>(std::llround(d))) == d;
}

double asRealV(const Value& v) {
  if (std::holds_alternative<double>(v)) return std::get<double>(v);
  if (std::holds_alternative<Index>(v))
    return static_cast<double>(std::get<Index>(v));
  return std::get<bool>(v) ? 1.0 : 0.0;
}

bool asBoolV(const Value& v) {
  if (std::holds_alternative<bool>(v)) return std::get<bool>(v);
  if (std::holds_alternative<Index>(v)) return std::get<Index>(v) != 0;
  return std::get<double>(v) != 0.0;
}

std::optional<Index> knownInt(const AbsVal& v) {
  if (!v || !intExact(*v)) return std::nullopt;
  return asIntV(*v);
}

std::optional<bool> knownBool(const AbsVal& v) {
  if (!v) return std::nullopt;
  return asBoolV(*v);
}

bool sameValue(const Value& a, const Value& b) { return a == b; }

// --- abstract section state -------------------------------------------------

/// Figure-1 state of one symbol on one processor. `owned` includes
/// transitional subsections (segments exist for them); `pending` lists the
/// uncompleted receive initiations (their union with `owned` determines
/// Accessible); `gone` accumulates regions whose ownership this processor
/// transferred away (only used to sharpen double-transfer messages).
struct SymState {
  bool top = false;  ///< unknown — every query about this symbol is silent
  RegionList owned;
  std::vector<Section> pending;
  RegionList gone;

  void makeTop() {
    top = true;
    owned = RegionList();
    pending.clear();
    gone = RegionList();
  }
};

bool pendingOverlaps(const std::vector<Section>& pending, const Section& s) {
  for (const Section& p : pending) {
    if (p.rank() != s.rank()) continue;
    if (!Section::intersect(p, s).empty()) return true;
  }
  return false;
}

void completePendingOver(std::vector<Section>& pending, const Section& s) {
  pending.erase(std::remove_if(pending.begin(), pending.end(),
                               [&](const Section& p) {
                                 return p.rank() == s.rank() &&
                                        !Section::intersect(p, s).empty();
                               }),
                pending.end());
}

std::vector<std::string> pendingKeys(const std::vector<Section>& pending) {
  std::vector<std::string> keys;
  keys.reserve(pending.size());
  for (const Section& p : pending) keys.push_back(p.str());
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool sameSymState(const SymState& a, const SymState& b) {
  if (a.top != b.top) return false;
  if (a.top) return true;
  return a.owned.sameSet(b.owned) && a.gone.sameSet(b.gone) &&
         pendingKeys(a.pending) == pendingKeys(b.pending);
}

/// Per-processor machine state: symbol states + universal scalars.
struct Frame {
  std::vector<SymState> syms;
  std::map<std::string, AbsVal> env;
};

bool sameFrame(const Frame& a, const Frame& b) {
  for (std::size_t i = 0; i < a.syms.size(); ++i)
    if (!sameSymState(a.syms[i], b.syms[i])) return false;
  if (a.env.size() != b.env.size()) return false;
  for (const auto& [k, v] : a.env) {
    auto it = b.env.find(k);
    if (it == b.env.end()) return false;
    if (v.has_value() != it->second.has_value()) return false;
    if (v && !sameValue(*v, *it->second)) return false;
  }
  return true;
}

/// sameFrame, but with doubles compared bit for bit, as loop replay needs:
/// 0.0 == -0.0, yet 1.0 / x tells them apart.
bool identicalFrame(const Frame& a, const Frame& b) {
  if (!sameFrame(a, b)) return false;  // so the keys and types line up
  for (auto ia = a.env.begin(), ib = b.env.begin(); ia != a.env.end();
       ++ia, ++ib) {
    const AbsVal& va = ia->second;
    if (va && std::holds_alternative<double>(*va) &&
        std::bit_cast<std::uint64_t>(std::get<double>(*va)) !=
            std::bit_cast<std::uint64_t>(std::get<double>(*ib->second)))
      return false;
  }
  return true;
}

/// Join `b` into `a`. The domain is deliberately shallow: any disagreement
/// tops the symbol (or forgets the scalar). Precision after a join only
/// matters for programs with data-dependent rules, which are outside the
/// exact fragment anyway — soundness (no false positives) is what counts.
void joinFrame(Frame& a, const Frame& b) {
  for (std::size_t i = 0; i < a.syms.size(); ++i)
    if (!sameSymState(a.syms[i], b.syms[i])) a.syms[i].makeTop();
  for (auto& [k, v] : a.env) {
    auto it = b.env.find(k);
    if (it == b.env.end() || v.has_value() != it->second.has_value() ||
        (v && !sameValue(*v, *it->second)))
      v = std::nullopt;
  }
  for (const auto& [k, v] : b.env)
    if (!a.env.count(k)) a.env[k] = std::nullopt;
}

// --- communication events ---------------------------------------------------

enum class EvClass { Data, Own, OwnVal };

struct Event {
  bool isSend = false;
  EvClass cls = EvClass::Data;
  int pid = -1;
  int sym = -1;    ///< name symbol (the *source* symbol for data receives)
  Section name;    ///< name section (messages match on (sym, name) exactly)
  std::optional<std::vector<int>> dests;  ///< sends: bound destinations
  bool conditional = false;  ///< recorded under an unknown guard / widening
  int seq = 0;               ///< per-pid program order
  StmtPtr stmt;
};

/// Receive initiation viewed from the destination side, for the
/// await-before-initiate ordering check.
struct RecvInit {
  int sym = -1;
  Section sec;
  int seq = 0;
  bool conditional = false;
  SrcLoc loc;
};

/// An await that found the awaited section fully accessible with nothing
/// pending ("trivial"): legal, but suspicious if a *later* receive on the
/// same processor initiates the very data it was meant to wait for.
struct AwaitRec {
  int sym = -1;
  Section sec;
  int seq = 0;
  bool conditional = false;
  StmtPtr stmt;
};

// --- replayable loops -------------------------------------------------------

// Does the subtree read, assign or rebind the scalar `v`?
bool namesVar(const ExprPtr& e, const std::string& v);

bool namesVar(const SectionExprPtr& se, const std::string& v) {
  if (!se) return false;
  for (const auto& t : se->dims)
    if (namesVar(t.lb, v) || namesVar(t.ub, v) || namesVar(t.stride, v))
      return true;
  return namesVar(se->pid, v) || namesVar(se->a, v) || namesVar(se->b, v);
}

bool namesVar(const ExprPtr& e, const std::string& v) {
  if (!e) return false;
  if (e->kind == ExprKind::ScalarRef && e->name == v) return true;
  return namesVar(e->lhs, v) || namesVar(e->rhs, v) ||
         namesVar(e->section, v);
}

bool namesVar(const DestSpec& d, const std::string& v) {
  for (const auto& p : d.pids)
    if (namesVar(p, v)) return true;
  return namesVar(d.section, v);
}

bool namesVar(const StmtPtr& s, const std::string& v) {
  if (!s) return false;
  if ((s->kind == StmtKind::ScalarAssign || s->kind == StmtKind::For) &&
      s->name == v)
    return true;
  for (const auto& c : s->stmts)
    if (namesVar(c, v)) return true;
  for (const auto& arg : s->args)
    if (namesVar(arg.second, v)) return true;
  return namesVar(s->value, v) || namesVar(s->lhs, v) ||
         namesVar(s->rhs, v) || namesVar(s->lb, v) || namesVar(s->ub, v) ||
         namesVar(s->step, v) || namesVar(s->body, v) ||
         namesVar(s->rule, v) || namesVar(s->sec2, v) ||
         namesVar(s->dest, v) || namesVar(s->bindHint, v);
}

/// Collect the loops whose body never names the loop variable: one
/// iteration of such a body is a function of the frame alone.
void collectReplayable(const StmtPtr& s,
                       std::unordered_set<const Stmt*>& out) {
  if (!s) return;
  if (s->kind == StmtKind::For && !namesVar(s->body, s->name))
    out.insert(s.get());
  for (const auto& c : s->stmts) collectReplayable(c, out);
  collectReplayable(s->body, out);
}

/// Append `copies` more copies of v[from, end); copy j is shifted j*dseq
/// later in program order.
template <class T>
void appendCopies(std::vector<T>& v, std::size_t from, std::uint64_t copies,
                  std::int64_t dseq) {
  const std::size_t to = v.size();
  v.reserve(to + (to - from) * copies);
  for (std::uint64_t j = 1; j <= copies; ++j) {
    for (std::size_t x = from; x < to; ++x) {
      T c = v[x];
      if constexpr (requires { c.seq; })
        c.seq += static_cast<int>(static_cast<std::int64_t>(j) * dseq);
      v.push_back(std::move(c));
    }
  }
}

struct Shared {
  std::uint64_t steps = 0;
  std::vector<Event> events;
  std::set<int> poisonedSyms;  ///< name symbol had an unevaluable section
  std::set<std::pair<int, const Stmt*>> seenDiags;
  bool incomplete = false;  ///< some pid's abstract run aborted
  std::unordered_set<const Stmt*> replayable;  ///< see collectReplayable
};

// --- the per-processor abstract executor -------------------------------------

class PidExec {
 public:
  PidExec(const Program& prog, const VerifyOptions& opts, Shared& sh,
          VerifyResult& res, int pid)
      : prog_(prog), opts_(opts), sh_(sh), res_(res), pid_(pid) {
    frame_.syms.resize(prog.arrays.size());
    for (std::size_t i = 0; i < prog.arrays.size(); ++i) {
      if (opts.obliviousPlacement)
        frame_.syms[i].makeTop();  // who owns what is placement-dependent
      else
        frame_.syms[i].owned = prog.arrays[i].dist.localPart(pid);
    }
  }

  void run() {
    try {
      exec(prog_.body);
    } catch (const BudgetExceeded&) {
      res_.exhaustive = false;
      sh_.incomplete = true;
    } catch (const Error&) {
      // A malformed construct the abstract evaluator could not guard
      // against (the runtime would XDP_CHECK on it). Stay silent.
      res_.exhaustive = false;
      sh_.incomplete = true;
    }
    checkAwaitOrdering();
  }

 private:
  // --- diagnostics -----------------------------------------------------

  void diag(DiagKind kind, Severity sev, const StmtPtr& stmt,
            std::string msg) {
    if (condDepth_ > 0) {
      // The enclosing guard was not decidable: the violation is definite
      // *if* this code runs, but we cannot prove it runs.
      if (sev == Severity::Error) sev = Severity::Warning;
      msg += " (in conditionally-executed code)";
    }
    auto key = std::make_pair(static_cast<int>(kind),
                              static_cast<const Stmt*>(stmt.get()));
    if (!sh_.seenDiags.insert(key).second) return;
    Diagnostic d;
    d.severity = sev;
    d.kind = kind;
    d.pid = pid_;
    d.stmt = stmt;
    d.loc = stmt ? stmt->loc : SrcLoc{};
    d.message = std::move(msg);
    res_.diagnostics.push_back(std::move(d));
  }

  std::string symName(int sym) const { return prog_.decl(sym).name; }

  std::string secOf(int sym, const Section& s) const {
    return s.str() + " of '" + symName(sym) + "'";
  }

  // --- state queries ---------------------------------------------------

  SymState& st(int sym) { return frame_.syms[static_cast<std::size_t>(sym)]; }

  /// Check that (sym, s) is provably Accessible; `what` names the
  /// operation ("read of", "data send of", ...). Returns false if a
  /// definite violation was diagnosed. Silent when the state is Top.
  bool requireAccessible(DiagKind kind, const StmtPtr& stmt, int sym,
                         const Section& s, const char* what) {
    SymState& ss = st(sym);
    if (ss.top || s.empty()) return true;
    if (!ss.owned.covers(s)) {
      const bool wasMine = !ss.gone.empty() &&
                           overlapsRegion(ss.gone, s);
      diag(kind, Severity::Error, stmt,
           std::string(what) + " section " + secOf(sym, s) +
               (wasMine ? " after its ownership was transferred away"
                        : " that this processor does not own"));
      return false;
    }
    if (pendingOverlaps(ss.pending, s)) {
      diag(kind, Severity::Error, stmt,
           std::string(what) + " transitional section " + secOf(sym, s) +
               " (overlaps an uncompleted receive; await it first)");
      return false;
    }
    return true;
  }

  static bool overlapsRegion(const RegionList& rl, const Section& s) {
    for (const Section& piece : rl.sections()) {
      if (piece.rank() != s.rank()) continue;
      if (!Section::intersect(piece, s).empty()) return true;
    }
    return false;
  }

  // --- statement execution ---------------------------------------------

  void step() {
    res_.stmtsAnalyzed += 1;
    if (++sh_.steps > opts_.maxSteps) throw BudgetExceeded{};
  }

  void exec(const StmtPtr& s) {
    if (!s) return;
    step();
    curStmt_ = s;  // anchor for diagnostics raised during expression eval
    switch (s->kind) {
      case StmtKind::Block:
        for (const auto& c : s->stmts) exec(c);
        return;
      case StmtKind::ScalarAssign:
        frame_.env[s->name] = evalValue(s->value);
        return;
      case StmtKind::ElemAssign:
        execElemAssign(s);
        return;
      case StmtKind::For:
        execFor(s);
        return;
      case StmtKind::Guarded:
        execGuarded(s);
        return;
      case StmtKind::SendData:
        execSendData(s);
        return;
      case StmtKind::RecvData:
        execRecvData(s);
        return;
      case StmtKind::SendOwn:
        execSendOwn(s);
        return;
      case StmtKind::RecvOwn:
        execRecvOwn(s);
        return;
      case StmtKind::Await:
        execAwait(s);
        return;
      case StmtKind::LocalCopy:
        execLocalCopy(s);
        return;
      case StmtKind::Kernel:
        // Kernels are opaque: by contract they touch only what they may
        // (the built-in `fill` writes the owned intersection of each
        // argument), so argument sections are not checked.
        return;
      case StmtKind::ComputeCost:
        evalValue(s->value);  // still checks element reads in the cost
        return;
    }
  }

  void execElemAssign(const StmtPtr& s) {
    if (guardDepth_ == 0) {
      // Pre-lowering owner-computes dialect: an unguarded element
      // assignment denotes a *global* assignment that lowerOwnerComputes
      // turns into explicit guarded transfers. Not checkable as-is.
      return;
    }
    AbsVal rhs = evalValue(s->rhs);  // checks the reads
    (void)rhs;
    std::optional<Section> pt = evalSection(s->sym, s->lhs);
    if (!pt) return;
    if (pt->count() != 1) {
      diag(DiagKind::TransferMismatch, Severity::Error, s,
           "element assignment target " + secOf(s->sym, *pt) +
               " is not a single point");
      return;
    }
    requireAccessible(DiagKind::NotAccessible, s, s->sym, *pt, "write to");
  }

  // Replay is tried from the second iteration on (the first may still
  // create scalars), at most twice per loop execution, and only when it
  // would skip at least two iterations.
  static constexpr std::uint64_t kReplayMinRemaining = 2;
  static constexpr int kReplayMaxAttempts = 2;

  void execFor(const StmtPtr& s) {
    std::optional<Index> lb = knownInt(evalValue(s->lb));
    std::optional<Index> ub = knownInt(evalValue(s->ub));
    std::optional<Index> stp =
        s->step ? knownInt(evalValue(s->step)) : std::optional<Index>(1);
    if (!lb || !ub || !stp || *stp <= 0) {
      widenLoop(s);
      return;
    }
    if (*lb > *ub) return;
    const bool replayable = sh_.replayable.count(s.get()) != 0;
    const auto ustep = static_cast<std::uint64_t>(*stp);
    int attempts = 0;
    for (Index i = *lb;;) {
      frame_.env[s->name] = Value(i);
      // As in both engines, termination is decided on the unsigned
      // distance to ub, which is always in range: a bound near INT64_MAX
      // cannot overflow `i + step`.
      const std::uint64_t left =
          static_cast<std::uint64_t>(*ub) - static_cast<std::uint64_t>(i);
      if (replayable && i != *lb && attempts < kReplayMaxAttempts &&
          left / ustep >= kReplayMinRemaining) {
        ++attempts;
        if (execAndReplay(s, i, left / ustep, *stp)) return;
      } else {
        exec(s->body);
      }
      if (left < ustep) return;
      i += *stp;
    }
  }

  /// Execute one iteration of the replayable loop `s` (its variable is
  /// already `i`). If the iteration left the frame exactly as it found it,
  /// every later iteration would repeat it statement for statement — the
  /// body does not name the variable, and nothing else it reads changes —
  /// so append `rem` copies of what it recorded instead of executing them
  /// and return true. Diagnostics need no copies: the repeats would raise
  /// only (kind, statement) pairs that seenDiags already holds.
  bool execAndReplay(const StmtPtr& s, Index i, std::uint64_t rem, Index stp) {
    const Frame before = frame_;
    const std::size_t events0 = sh_.events.size();
    const std::size_t awaits0 = awaits_.size();
    const std::size_t recvInits0 = recvInits_.size();
    const std::size_t cost0 = res_.costEvents.size();
    const std::uint64_t steps0 = sh_.steps;
    const int seq0 = seq_;
    exec(s->body);
    if (!identicalFrame(frame_, before)) return false;
    const std::uint64_t k = sh_.steps - steps0;
    // A replay that would cross the step budget iterates normally instead,
    // so the budget trips at the same statement.
    if (k > 0 && rem > (opts_.maxSteps - sh_.steps) / k) return false;
    const std::int64_t dseq = seq_ - seq0;
    appendCopies(sh_.events, events0, rem, dseq);
    appendCopies(awaits_, awaits0, rem, dseq);
    appendCopies(recvInits_, recvInits0, rem, dseq);
    appendCopies(res_.costEvents, cost0, rem, dseq);
    seq_ += static_cast<int>(static_cast<std::int64_t>(rem) * dseq);
    sh_.steps += rem * k;
    res_.stmtsAnalyzed += rem * k;
    res_.itersReplayed += rem;
    frame_.env[s->name] = Value(static_cast<Index>(
        static_cast<std::uint64_t>(i) + rem * static_cast<std::uint64_t>(stp)));
    return true;
  }

  /// Loop with a bound the analysis cannot evaluate: run the body to a
  /// local fixpoint with the loop variable unknown, topping whatever does
  /// not stabilize, then join with the zero-iteration state. Diagnostics
  /// inside are downgraded (the body may execute zero times) and events
  /// are conditional (their matching groups go silent).
  void widenLoop(const StmtPtr& s) {
    res_.exhaustive = false;
    Frame before = frame_;
    ++condDepth_;
    frame_.env[s->name] = std::nullopt;
    const int kMaxIter = 3;
    for (int k = 0; k < kMaxIter; ++k) {
      Frame entry = frame_;
      exec(s->body);
      frame_.env[s->name] = std::nullopt;
      if (sameFrame(frame_, entry)) break;
      if (k == kMaxIter - 1) {
        // Not converged: drop everything that is still moving.
        for (std::size_t i = 0; i < frame_.syms.size(); ++i)
          if (!sameSymState(frame_.syms[i], entry.syms[i]))
            frame_.syms[i].makeTop();
        for (auto& [key, v] : frame_.env) {
          auto it = entry.env.find(key);
          if (it == entry.env.end() || v.has_value() != it->second.has_value() ||
              (v && !sameValue(*v, *it->second)))
            v = std::nullopt;
        }
      }
    }
    --condDepth_;
    joinFrame(frame_, before);
  }

  void execGuarded(const StmtPtr& s) {
    std::optional<bool> r = evalRule(s->rule);
    ++guardDepth_;
    if (r.has_value()) {
      if (*r) exec(s->body);
    } else {
      res_.exhaustive = false;
      Frame before = frame_;
      ++condDepth_;
      exec(s->body);
      --condDepth_;
      joinFrame(frame_, before);
    }
    --guardDepth_;
  }

  void execSendData(const StmtPtr& s) {
    std::optional<Section> e = evalSection(s->sym, s->lhs);
    if (!e) {
      res_.exhaustive = false;
      sh_.poisonedSyms.insert(s->sym);
      return;
    }
    if (e->empty()) return;
    requireAccessible(DiagKind::SendUnowned, s, s->sym, *e, "data send of");
    // The message is emitted regardless (without --debug-checks the
    // runtime reads whatever the segments hold), so record it either way
    // to keep the matching diagnostics focused on the root cause.
    recordSend(s, EvClass::Data, s->sym, *e, resolveDest(s, s->dest),
               /*expandToSet=*/true);
    // Fan-out is structural: a send-to-set emits one message per listed
    // destination even when a pid expression is not compile-time known.
    const Index fanout = s->dest.kind == DestSpec::Kind::Pids
                             ? static_cast<Index>(s->dest.pids.size())
                             : 1;
    recordCost(s, CostClass::Data, s->sym, e->count(), fanout,
               /*definite=*/condDepth_ == 0);
  }

  void execRecvData(const StmtPtr& s) {
    std::optional<Section> dst = evalSection(s->sym, s->lhs);
    std::optional<Section> name = evalSection(s->sym2, s->sec2);
    if (!name) {
      res_.exhaustive = false;
      sh_.poisonedSyms.insert(s->sym2);
    }
    if (dst && name && dst->empty() && name->empty()) return;
    if (dst && name && dst->count() != name->count()) {
      diag(DiagKind::TransferMismatch, Severity::Error, s,
           "receive destination " + secOf(s->sym, *dst) + " and name " +
               secOf(s->sym2, *name) + " differ in size (" +
               std::to_string(dst->count()) + " vs " +
               std::to_string(name->count()) + " elements)");
      return;
    }
    if (prog_.decl(s->sym).type != prog_.decl(s->sym2).type) {
      diag(DiagKind::TransferMismatch, Severity::Error, s,
           "receive element type mismatch: '" + symName(s->sym) + "' is " +
               rt::elemTypeName(prog_.decl(s->sym).type) + ", '" +
               symName(s->sym2) + "' is " +
               rt::elemTypeName(prog_.decl(s->sym2).type));
      return;
    }
    if (!dst) {
      res_.exhaustive = false;
      st(s->sym).makeTop();
    } else if (!dst->empty()) {
      SymState& ss = st(s->sym);
      if (!ss.top) {
        if (!ss.owned.covers(*dst)) {
          diag(DiagKind::NotAccessible, Severity::Error, s,
               "receive into section " + secOf(s->sym, *dst) +
                   " that this processor does not own");
          return;  // the runtime refuses to post the receive
        }
        // E <- X blocks until E is accessible (completing anything
        // pending over it), then initiates the receive.
        completePendingOver(ss.pending, *dst);
        ss.pending.push_back(*dst);
      }
      recvInits_.push_back(RecvInit{s->sym, *dst, seq_, condDepth_ > 0,
                                    s->loc});
    }
    if (name && !name->empty())
      recordRecv(s, EvClass::Data, s->sym2, *name);
  }

  void execSendOwn(const StmtPtr& s) {
    std::optional<Section> e = evalSection(s->sym, s->lhs);
    if (!e) {
      res_.exhaustive = false;
      sh_.poisonedSyms.insert(s->sym);
      st(s->sym).makeTop();
      return;
    }
    if (e->empty()) return;
    Dest d = resolveDest(s, s->dest);
    if (d.pids && d.pids->size() > 1) {
      diag(DiagKind::TransferMismatch, Severity::Error, s,
           "ownership can be sent to exactly one processor (got " +
               std::to_string(d.pids->size()) + " destinations)");
      return;
    }
    SymState& ss = st(s->sym);
    const bool ownershipProven = !ss.top;
    if (!ss.top) {
      if (!ss.owned.covers(*e)) {
        if (overlapsRegion(ss.gone, *e)) {
          diag(DiagKind::DoubleOwnership, Severity::Error, s,
               "ownership of section " + secOf(s->sym, *e) +
                   " transferred away twice (already sent)");
        } else {
          diag(DiagKind::SendUnowned, Severity::Error, s,
               "ownership send of section " + secOf(s->sym, *e) +
                   " that this processor does not own");
        }
        return;  // the runtime makes this a no-op: no message leaves
      }
      // "Owner send operations block until the section is accessible."
      completePendingOver(ss.pending, *e);
      ss.owned.subtract(*e);
      ss.gone.add(*e);
    }
    recordSend(s, s->withValue ? EvClass::OwnVal : EvClass::Own, s->sym, *e,
               d, /*expandToSet=*/false);
    // Unproven ownership means the runtime may silently drop this send
    // (ownership send of an unowned section is a no-op), so the event is
    // only definite when ownership was proven.
    recordCost(s, s->withValue ? CostClass::OwnVal : CostClass::Own, s->sym,
               e->count(), 1,
               /*definite=*/condDepth_ == 0 && ownershipProven);
  }

  void execRecvOwn(const StmtPtr& s) {
    std::optional<Section> u = evalSection(s->sym, s->lhs);
    if (!u) {
      res_.exhaustive = false;
      sh_.poisonedSyms.insert(s->sym);
      st(s->sym).makeTop();
      return;
    }
    if (u->empty()) return;
    SymState& ss = st(s->sym);
    if (!ss.top) {
      if (overlapsRegion(ss.owned, *u)) {
        diag(DiagKind::DoubleOwnership, Severity::Error, s,
             "ownership receive of section " + secOf(s->sym, *u) +
                 " this processor already owns");
        return;
      }
      ss.owned.add(*u);
      ss.pending.push_back(*u);
      ss.gone.subtract(*u);
    }
    recvInits_.push_back(RecvInit{s->sym, *u, seq_, condDepth_ > 0, s->loc});
    recordRecv(s, s->withValue ? EvClass::OwnVal : EvClass::Own, s->sym, *u);
  }

  void execAwait(const StmtPtr& s) {
    std::optional<Section> sec = evalSection(s->sym, s->lhs);
    if (!sec) {
      res_.exhaustive = false;
      st(s->sym).makeTop();
      return;
    }
    if (sec->empty()) return;
    SymState& ss = st(s->sym);
    if (ss.top) return;
    if (!ss.owned.covers(*sec)) {
      diag(DiagKind::AwaitMismatch, Severity::Warning, s,
           "await of section " + secOf(s->sym, *sec) +
               " this processor does not own: it returns false "
               "immediately and synchronizes nothing");
      return;
    }
    const bool trivial = !pendingOverlaps(ss.pending, *sec);
    completePendingOver(ss.pending, *sec);
    if (trivial)
      awaits_.push_back(AwaitRec{s->sym, *sec, seq_, condDepth_ > 0, s});
    ++seq_;
  }

  void execLocalCopy(const StmtPtr& s) {
    std::optional<Section> dst = evalSection(s->sym, s->lhs);
    std::optional<Section> src = evalSection(s->sym2, s->sec2);
    if (!dst || !src) {
      res_.exhaustive = false;
      return;
    }
    if (dst->empty() && src->empty()) return;
    if (dst->count() != src->count()) {
      diag(DiagKind::TransferMismatch, Severity::Error, s,
           "local copy size mismatch: " + secOf(s->sym, *dst) + " vs " +
               secOf(s->sym2, *src));
      return;
    }
    if (prog_.decl(s->sym).type != prog_.decl(s->sym2).type) {
      diag(DiagKind::TransferMismatch, Severity::Error, s,
           "local copy element type mismatch between '" + symName(s->sym) +
               "' and '" + symName(s->sym2) + "'");
      return;
    }
    requireAccessible(DiagKind::NotAccessible, s, s->sym2, *src, "read of");
    requireAccessible(DiagKind::NotAccessible, s, s->sym, *dst, "write to");
  }

  // --- events ----------------------------------------------------------

  struct Dest {
    bool known = true;
    std::optional<std::vector<int>> pids;  ///< nullopt = unspecified
  };

  void recordSend(const StmtPtr& s, EvClass cls, int sym, const Section& e,
                  const Dest& d, bool expandToSet) {
    Event ev;
    ev.isSend = true;
    ev.cls = cls;
    ev.pid = pid_;
    ev.sym = sym;
    ev.name = e;
    ev.conditional = condDepth_ > 0 || !d.known;
    ev.seq = seq_++;
    ev.stmt = s;
    if (d.known && d.pids && expandToSet && d.pids->size() > 1) {
      // sendToSet: one message per destination processor.
      for (int pid : *d.pids) {
        Event copy = ev;
        copy.dests = std::vector<int>{pid};
        sh_.events.push_back(std::move(copy));
      }
      return;
    }
    if (d.known) ev.dests = d.pids;
    sh_.events.push_back(std::move(ev));
  }

  void recordCost(const StmtPtr& s, CostClass cls, int sym, Index elems,
                  Index messages, bool definite) {
    if (!opts_.collectCost) return;
    CostEvent ce;
    ce.pid = pid_;
    ce.sym = sym;
    ce.stmt = s;
    ce.loc = s ? s->loc : SrcLoc{};
    ce.cls = cls;
    ce.elems = elems;
    ce.messages = messages;
    ce.definite = definite;
    res_.costEvents.push_back(std::move(ce));
  }

  void recordRecv(const StmtPtr& s, EvClass cls, int nameSym,
                  const Section& name) {
    Event ev;
    ev.isSend = false;
    ev.cls = cls;
    ev.pid = pid_;
    ev.sym = nameSym;
    ev.name = name;
    ev.conditional = condDepth_ > 0;
    ev.seq = seq_++;
    ev.stmt = s;
    sh_.events.push_back(std::move(ev));
  }

  Dest resolveDest(const StmtPtr& s, const DestSpec& d) {
    switch (d.kind) {
      case DestSpec::Kind::None:
        return Dest{true, std::nullopt};
      case DestSpec::Kind::Pids: {
        std::vector<int> pids;
        for (const auto& e : d.pids) {
          std::optional<Index> v = knownInt(evalValue(e));
          if (!v) {
            res_.exhaustive = false;
            return Dest{false, std::nullopt};
          }
          if (*v < 0 || *v >= prog_.nprocs) {
            diag(DiagKind::TransferMismatch, Severity::Error, s,
                 "send destination processor " + std::to_string(*v) +
                     " is outside 0.." + std::to_string(prog_.nprocs - 1));
            return Dest{false, std::nullopt};
          }
          pids.push_back(static_cast<int>(*v));
        }
        return Dest{true, std::move(pids)};
      }
      case DestSpec::Kind::OwnerOf: {
        if (opts_.obliviousPlacement) {
          // Who owns the section is exactly what this mode abstracts away.
          res_.exhaustive = false;
          return Dest{false, std::nullopt};
        }
        std::optional<Section> sec = evalSection(d.sym, d.section);
        if (!sec || sec->empty()) {
          res_.exhaustive = false;
          return Dest{false, std::nullopt};
        }
        const dist::Distribution& dd =
            d.distOverride ? *d.distOverride : prog_.decl(d.sym).dist;
        int owner = -1;
        bool unique = true;
        try {
          sec->forEach([&](const Point& p) {
            int o = dd.ownerOf(p);
            if (owner < 0) owner = o;
            else if (o != owner) unique = false;
          });
        } catch (const Error&) {
          res_.exhaustive = false;
          return Dest{false, std::nullopt};
        }
        if (!unique) {
          diag(DiagKind::TransferMismatch, Severity::Error, s,
               "bound destination section " + secOf(d.sym, *sec) +
                   " spans more than one processor");
          return Dest{false, std::nullopt};
        }
        return Dest{true, std::vector<int>{owner}};
      }
    }
    return Dest{false, std::nullopt};
  }

  // --- expression evaluation -------------------------------------------

  std::optional<bool> evalRule(const ExprPtr& e) {
    ++ruleDepth_;
    std::optional<bool> result;
    try {
      result = knownBool(evalValue(e));
    } catch (const UnownedRef&) {
      result = false;  // paper 2.4: unowned value reference => rule false
    }
    --ruleDepth_;
    return result;
  }

  AbsVal evalValue(const ExprPtr& e) {
    if (!e) return std::nullopt;
    switch (e->kind) {
      case ExprKind::IntConst:
        return Value(e->intVal);
      case ExprKind::RealConst:
        return Value(e->realVal);
      case ExprKind::ScalarRef: {
        auto it = frame_.env.find(e->name);
        if (it == frame_.env.end()) return std::nullopt;
        return it->second;
      }
      case ExprKind::MyPid:
        return Value(static_cast<Index>(pid_));
      case ExprKind::NProcs:
        return Value(static_cast<Index>(prog_.nprocs));
      case ExprKind::Bin:
        return evalBin(e);
      case ExprKind::Neg: {
        AbsVal v = evalValue(e->lhs);
        if (!v) return std::nullopt;
        if (std::holds_alternative<Index>(*v))
          return Value(arith::wrapNeg(std::get<Index>(*v)));
        return Value(-asRealV(*v));
      }
      case ExprKind::Not: {
        std::optional<bool> b = knownBool(evalValue(e->lhs));
        if (!b) return std::nullopt;
        return Value(!*b);
      }
      case ExprKind::Elem:
        return evalElem(e);
      case ExprKind::Iown: {
        std::optional<Section> s = evalSection(e->sym, e->section);
        SymState& ss = st(e->sym);
        if (!s || ss.top) return std::nullopt;
        return Value(ss.owned.covers(*s));
      }
      case ExprKind::Accessible: {
        std::optional<Section> s = evalSection(e->sym, e->section);
        SymState& ss = st(e->sym);
        if (!s || ss.top) return std::nullopt;
        return Value(ss.owned.covers(*s) && !pendingOverlaps(ss.pending, *s));
      }
      case ExprKind::Await: {
        // await(X) in rule position: false if unowned, else blocks until
        // accessible — which completes the overlapping pending receives.
        std::optional<Section> s = evalSection(e->sym, e->section);
        SymState& ss = st(e->sym);
        if (!s || ss.top) return std::nullopt;
        if (s->empty()) return Value(true);
        if (!ss.owned.covers(*s)) return Value(false);
        const bool trivial = !pendingOverlaps(ss.pending, *s);
        completePendingOver(ss.pending, *s);
        if (trivial && curStmt_)
          awaits_.push_back(
              AwaitRec{e->sym, *s, seq_, condDepth_ > 0, curStmt_});
        ++seq_;
        return Value(true);
      }
      case ExprKind::MyLb:
      case ExprKind::MyUb: {
        std::optional<Section> s = evalSection(e->sym, e->section);
        SymState& ss = st(e->sym);
        if (!s || ss.top) return std::nullopt;
        if (e->dim < 0 || e->dim >= s->rank()) return std::nullopt;
        const bool lower = e->kind == ExprKind::MyLb;
        Index best = lower ? rt::kMaxInt : rt::kMinInt;
        for (const Section& piece : ss.owned.sections()) {
          if (piece.rank() != s->rank()) continue;
          Section i = Section::intersect(piece, *s);
          if (i.empty()) continue;
          best = lower ? std::min(best, i.dim(e->dim).lb())
                       : std::max(best, i.dim(e->dim).ub());
        }
        return Value(best);
      }
      case ExprKind::SecNonEmpty: {
        std::optional<Section> s = evalSection(e->sym, e->section);
        if (!s) return std::nullopt;
        return Value(!s->empty());
      }
    }
    return std::nullopt;
  }

  AbsVal evalElem(const ExprPtr& e) {
    std::optional<Section> pt = evalSection(e->sym, e->section);
    if (!pt) return std::nullopt;
    if (pt->count() != 1) {
      diag(DiagKind::TransferMismatch, Severity::Error, curStmt_,
           "element reference " + secOf(e->sym, *pt) +
               " is not a single point");
      return std::nullopt;
    }
    SymState& ss = st(e->sym);
    if (ss.top) return std::nullopt;
    if (ruleDepth_ > 0) {
      // Inside a compute rule an unowned value reference makes the whole
      // rule false (no diagnostic); a transitional read is still an error.
      if (!ss.owned.covers(*pt)) throw UnownedRef{};
      if (pendingOverlaps(ss.pending, *pt)) {
        diag(DiagKind::NotAccessible, Severity::Error, curStmt_,
             "compute rule reads transitional section " +
                 secOf(e->sym, *pt) + " (overlaps an uncompleted receive)");
      }
      return std::nullopt;  // element values are not tracked
    }
    requireAccessible(DiagKind::NotAccessible, curStmt_, e->sym, *pt,
                      "read of");
    return std::nullopt;
  }

  AbsVal evalBin(const ExprPtr& e) {
    using il::BinOp;
    if (e->op == BinOp::And || e->op == BinOp::Or) {
      const bool isAnd = e->op == BinOp::And;
      std::optional<bool> a = knownBool(evalValue(e->lhs));
      if (a.has_value()) {
        // Mirror the interpreter's short-circuit: the rhs (and any await
        // side effect in it) is only evaluated when the lhs lets it run.
        if (isAnd && !*a) return Value(false);
        if (!isAnd && *a) return Value(true);
        std::optional<bool> b = knownBool(evalValue(e->rhs));
        if (!b) return std::nullopt;
        return Value(*b);
      }
      // lhs unknown: the rhs may or may not execute. An UnownedRef inside
      // it is no longer a definite rule-falsifier.
      std::optional<bool> b;
      try {
        b = knownBool(evalValue(e->rhs));
      } catch (const UnownedRef&) {
        b = std::nullopt;
      }
      if (b.has_value() && *b == isAnd) return std::nullopt;  // decided by lhs
      if (!b.has_value()) return std::nullopt;
      return Value(*b);  // absorbing element: false&&x / true||x
    }
    AbsVal av = evalValue(e->lhs);
    AbsVal bv = evalValue(e->rhs);
    if (!av || !bv) return std::nullopt;
    const Value& a = *av;
    const Value& b = *bv;
    const bool bothInt =
        std::holds_alternative<Index>(a) && std::holds_alternative<Index>(b);
    switch (e->op) {
      // Same wrap/trap semantics as both execution backends (see
      // xdp/support/arith.hpp); would-trap divisions become "unknown"
      // instead of faulting the analysis.
      case BinOp::Add:
        return bothInt
                   ? Value(arith::wrapAdd(std::get<Index>(a), std::get<Index>(b)))
                   : Value(asRealV(a) + asRealV(b));
      case BinOp::Sub:
        return bothInt
                   ? Value(arith::wrapSub(std::get<Index>(a), std::get<Index>(b)))
                   : Value(asRealV(a) - asRealV(b));
      case BinOp::Mul:
        return bothInt
                   ? Value(arith::wrapMul(std::get<Index>(a), std::get<Index>(b)))
                   : Value(asRealV(a) * asRealV(b));
      case BinOp::Div: {
        if (bothInt) {
          if (auto q = arith::tryFoldDiv(std::get<Index>(a),
                                         std::get<Index>(b)))
            return Value(*q);
          return std::nullopt;
        }
        return Value(asRealV(a) / asRealV(b));
      }
      case BinOp::Mod: {
        if (!bothInt) return std::nullopt;
        if (auto r = arith::tryFoldMod(std::get<Index>(a), std::get<Index>(b)))
          return Value(*r);
        return std::nullopt;
      }
      case BinOp::Lt:
        return Value(asRealV(a) < asRealV(b));
      case BinOp::Le:
        return Value(asRealV(a) <= asRealV(b));
      case BinOp::Gt:
        return Value(asRealV(a) > asRealV(b));
      case BinOp::Ge:
        return Value(asRealV(a) >= asRealV(b));
      case BinOp::Eq:
        return Value(asRealV(a) == asRealV(b));
      case BinOp::Ne:
        return Value(asRealV(a) != asRealV(b));
      case BinOp::Min:
        return bothInt
                   ? Value(std::min(std::get<Index>(a), std::get<Index>(b)))
                   : Value(std::min(asRealV(a), asRealV(b)));
      case BinOp::Max:
        return bothInt
                   ? Value(std::max(std::get<Index>(a), std::get<Index>(b)))
                   : Value(std::max(asRealV(a), asRealV(b)));
      case BinOp::And:
      case BinOp::Or:
        break;  // handled above
    }
    return std::nullopt;
  }

  // --- section evaluation ----------------------------------------------

  static Section emptyOfRank(int rank) {
    std::vector<Triplet> dims;
    dims.emplace_back();  // one empty triplet makes the section empty
    for (int d = 1; d < rank; ++d) dims.emplace_back(0, 0);
    return rank == 0 ? Section{Triplet()} : Section(dims);
  }

  std::optional<Section> evalSection(int sym, const SectionExprPtr& se) {
    if (!se) return std::nullopt;
    try {
      switch (se->kind) {
        case SecExprKind::Literal: {
          std::vector<Triplet> dims;
          for (const auto& t : se->dims) {
            std::optional<Index> lb = knownInt(evalValue(t.lb));
            if (!lb) return std::nullopt;
            std::optional<Index> ub =
                t.ub ? knownInt(evalValue(t.ub)) : lb;
            std::optional<Index> stride =
                t.stride ? knownInt(evalValue(t.stride))
                         : std::optional<Index>(1);
            if (!ub || !stride) return std::nullopt;
            dims.emplace_back(*lb, *ub, *stride);
          }
          return Section(dims);
        }
        case SecExprKind::LocalPart:
          return partOf(se->sym >= 0 ? se->sym : sym, pid_,
                        se->distOverride);
        case SecExprKind::OwnerPart: {
          std::optional<Index> pid = knownInt(evalValue(se->pid));
          if (!pid || *pid < 0) return std::nullopt;
          return partOf(se->sym >= 0 ? se->sym : sym,
                        static_cast<int>(*pid), se->distOverride);
        }
        case SecExprKind::Intersect: {
          std::optional<Section> a = evalSection(sym, se->a);
          std::optional<Section> b = evalSection(sym, se->b);
          if (!a || !b) return std::nullopt;
          if (a->empty() || b->empty() || a->rank() != b->rank())
            return emptyOfRank(a->rank());
          return Section::intersect(*a, *b);
        }
      }
    } catch (const Error&) {
      return std::nullopt;  // the runtime would XDP_CHECK on this shape
    }
    return std::nullopt;
  }

  std::optional<Section> partOf(int sym, int pid,
                                const std::optional<dist::Distribution>& over) {
    if (opts_.obliviousPlacement) {
      res_.exhaustive = false;  // partitions are placement-dependent
      return std::nullopt;
    }
    const dist::Distribution& d = over ? *over : prog_.decl(sym).dist;
    RegionList part = d.localPart(pid);
    if (part.empty()) return emptyOfRank(d.rank());
    if (part.sections().size() != 1) {
      diag(DiagKind::TransferMismatch, Severity::Error, curStmt_,
           "partition of '" + symName(sym) +
               "' is not a single section (CYCLIC(k) local parts cannot "
               "be named by one section expression)");
      return std::nullopt;
    }
    return part.sections()[0];
  }

  // --- await ordering --------------------------------------------------

  void checkAwaitOrdering() {
    for (const AwaitRec& a : awaits_) {
      if (a.conditional) continue;
      for (const RecvInit& r : recvInits_) {
        if (r.conditional || r.seq <= a.seq || r.sym != a.sym) continue;
        if (r.sec.rank() != a.sec.rank()) continue;
        if (Section::intersect(r.sec, a.sec).empty()) continue;
        std::string at = r.loc.valid()
                             ? " (initiated at line " +
                                   std::to_string(r.loc.line) + ")"
                             : "";
        diag(DiagKind::AwaitMismatch, Severity::Warning, a.stmt,
             "await of section " + secOf(a.sym, a.sec) +
                 " precedes the receive that initiates it" + at +
                 ": the await synchronizes with nothing");
        break;
      }
    }
  }

  const Program& prog_;
  const VerifyOptions& opts_;
  Shared& sh_;
  VerifyResult& res_;
  int pid_;
  Frame frame_;
  int guardDepth_ = 0;
  int ruleDepth_ = 0;
  int condDepth_ = 0;
  int seq_ = 0;
  StmtPtr curStmt_;
  std::vector<RecvInit> recvInits_;
  std::vector<AwaitRec> awaits_;
};

// --- communication matching --------------------------------------------------

/// Maximum bipartite matching (Kuhn's augmenting paths) between the sends
/// and receives of one (class, symbol, name-section) group, honoring bound
/// destinations. Groups without bound destinations are complete bipartite
/// graphs and are matched by counting instead (see matchEvents).
struct Group {
  std::vector<const Event*> sends;
  std::vector<const Event*> recvs;
};

bool canServe(const Event& send, const Event& recv) {
  if (!send.dests) return true;  // unspecified: rendezvous-routed
  for (int p : *send.dests)
    if (p == recv.pid) return true;
  return false;
}

bool augment(const Group& g, std::size_t si, std::vector<int>& recvOf,
             std::vector<char>& visited) {
  for (std::size_t ri = 0; ri < g.recvs.size(); ++ri) {
    if (visited[ri] || !canServe(*g.sends[si], *g.recvs[ri])) continue;
    visited[ri] = 1;
    if (recvOf[ri] < 0 ||
        augment(g, static_cast<std::size_t>(recvOf[ri]), recvOf, visited)) {
      recvOf[ri] = static_cast<int>(si);
      return true;
    }
  }
  return false;
}

void matchEvents(const Program& prog, const Shared& sh, VerifyResult& res) {
  std::map<std::string, Group> groups;
  std::map<std::string, bool> groupConditional;
  for (const Event& ev : sh.events) {
    if (sh.poisonedSyms.count(ev.sym)) continue;
    std::string key = std::to_string(static_cast<int>(ev.cls)) + "#" +
                      std::to_string(ev.sym) + "#" + ev.name.str();
    Group& g = groups[key];
    (ev.isSend ? g.sends : g.recvs).push_back(&ev);
    if (ev.conditional) groupConditional[key] = true;
  }
  for (auto& [key, g] : groups) {
    if (groupConditional.count(key)) continue;  // cannot reason exactly
    std::vector<int> recvOf(g.recvs.size(), -1);
    std::vector<char> sendMatched(g.sends.size(), 0);
    const bool complete =
        std::none_of(g.sends.begin(), g.sends.end(),
                     [](const Event* ev) { return ev->dests.has_value(); });
    if (complete) {
      // Every send can serve every receive. Kuhn's augmenting paths then
      // always end at the first unmatched receive, so they match exactly
      // the first min(S, R) sends and receives in event order; counting
      // gives the same sets without Kuhn's O(S * R^2) failed searches.
      const std::size_t m = std::min(g.sends.size(), g.recvs.size());
      for (std::size_t x = 0; x < m; ++x) {
        recvOf[x] = static_cast<int>(x);
        sendMatched[x] = 1;
      }
    } else {
      for (std::size_t si = 0; si < g.sends.size(); ++si) {
        std::vector<char> visited(g.recvs.size(), 0);
        augment(g, si, recvOf, visited);
      }
      // Derive which sends ended up matched (augmenting may reassign).
      for (std::size_t ri = 0; ri < g.recvs.size(); ++ri)
        if (recvOf[ri] >= 0)
          sendMatched[static_cast<std::size_t>(recvOf[ri])] = 1;
    }
    auto push = [&](const Event& ev, DiagKind kind, const std::string& msg) {
      Diagnostic d;
      d.severity = Severity::Error;
      d.kind = kind;
      d.pid = ev.pid;
      d.stmt = ev.stmt;
      d.loc = ev.stmt ? ev.stmt->loc : SrcLoc{};
      d.message = msg;
      res.diagnostics.push_back(std::move(d));
    };
    std::set<const Stmt*> reported;
    for (std::size_t si = 0; si < g.sends.size(); ++si) {
      const Event& ev = *g.sends[si];
      if (sendMatched[si] || !reported.insert(ev.stmt.get()).second)
        continue;
      std::size_t extra = 0;
      for (std::size_t sj = 0; sj < g.sends.size(); ++sj)
        if (!sendMatched[sj] && g.sends[sj]->stmt == ev.stmt) ++extra;
      std::string times =
          extra > 1 ? " (" + std::to_string(extra) + " times)" : "";
      push(ev, DiagKind::UnmatchedSend,
           "send of " + ev.name.str() + " of '" + prog.decl(ev.sym).name +
               "' has no matching receive" + times +
               ": the message would go undelivered");
    }
    reported.clear();
    for (std::size_t ri = 0; ri < g.recvs.size(); ++ri) {
      const Event& ev = *g.recvs[ri];
      if (recvOf[ri] >= 0 || !reported.insert(ev.stmt.get()).second)
        continue;
      push(ev, DiagKind::OrphanRecv,
           "receive of " + ev.name.str() + " of '" + prog.decl(ev.sym).name +
               "' has no matching send: it never completes and awaiting "
               "it deadlocks");
    }
  }
}

}  // namespace

// --- public API ---------------------------------------------------------------

const char* severityName(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

const char* kindName(DiagKind k) {
  switch (k) {
    case DiagKind::NotAccessible: return "not-accessible";
    case DiagKind::SendUnowned: return "send-unowned";
    case DiagKind::DoubleOwnership: return "double-ownership";
    case DiagKind::UnmatchedSend: return "unmatched-send";
    case DiagKind::OrphanRecv: return "orphan-recv";
    case DiagKind::AwaitMismatch: return "await-mismatch";
    case DiagKind::TransferMismatch: return "transfer-mismatch";
  }
  return "?";
}

std::size_t VerifyResult::count(Severity s) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == s) ++n;
  return n;
}

VerifyResult verifyProgram(const il::Program& prog,
                           const VerifyOptions& opts) {
  VerifyResult res;
  XDP_CHECK(prog.body != nullptr, "program has no body");
  XDP_CHECK(prog.nprocs > 0, "program needs at least one processor");
  Shared sh;
  collectReplayable(prog.body, sh.replayable);
  for (int pid = 0; pid < prog.nprocs; ++pid) {
    PidExec ex(prog, opts, sh, res, pid);
    ex.run();
  }
  if (opts.matchComm && !sh.incomplete) matchEvents(prog, sh, res);
  res.stmtsAnalyzed = sh.steps;
  std::stable_sort(res.diagnostics.begin(), res.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.loc.line != b.loc.line)
                       return a.loc.line < b.loc.line;
                     if (a.loc.col != b.loc.col) return a.loc.col < b.loc.col;
                     return a.pid < b.pid;
                   });
  return res;
}

std::string formatDiagnostic(const il::Program& prog, const Diagnostic& d,
                             const std::string& file) {
  std::ostringstream os;
  if (d.loc.valid()) {
    if (!file.empty()) os << file << ":";
    os << d.loc.line << ":" << d.loc.col << ": ";
  } else if (!file.empty()) {
    os << file << ": ";
  }
  os << severityName(d.severity) << ": " << d.message << " ["
     << kindName(d.kind);
  if (d.pid >= 0) os << ", p" << d.pid;
  os << "]";
  if (!d.loc.valid() && d.stmt) {
    std::string text = il::printStmt(prog, d.stmt);
    std::size_t nl = text.find('\n');
    if (nl != std::string::npos) text = text.substr(0, nl) + " ...";
    os << "\n    in: " << text;
  }
  return os.str();
}

std::string formatDiagnostics(const il::Program& prog, const VerifyResult& r,
                              const std::string& file) {
  std::string out;
  for (const Diagnostic& d : r.diagnostics) {
    out += formatDiagnostic(prog, d, file);
    out += '\n';
  }
  return out;
}

std::string diagnosticsJson(const il::Program& prog, const VerifyResult& r,
                            const std::string& file) {
  (void)prog;
  std::ostringstream os;
  os << "{\"file\":" << json::str(file) << ",\"diagnostics\":[";
  for (std::size_t i = 0; i < r.diagnostics.size(); ++i) {
    if (i) os << ",";
    const Diagnostic& d = r.diagnostics[i];
    os << "{\"class\":" << json::str(kindName(d.kind))
       << ",\"severity\":" << json::str(severityName(d.severity))
       << ",\"file\":" << json::str(file) << ",\"line\":" << d.loc.line
       << ",\"col\":" << d.loc.col << ",\"pid\":" << d.pid
       << ",\"message\":" << json::str(d.message) << "}";
  }
  os << "],\"errors\":" << r.errors()
     << ",\"warnings\":" << r.count(Severity::Warning)
     << ",\"exhaustive\":" << (r.exhaustive ? "true" : "false")
     << ",\"stmts_analyzed\":" << r.stmtsAnalyzed
     << ",\"iters_replayed\":" << r.itersReplayed << "}";
  return os.str();
}

}  // namespace xdp::analysis
