#include "rewriting/rewriter.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "logic/interner.h"
#include "logic/memo.h"

namespace semap::rew {

using logic::Atom;
using logic::AtomRef;
using logic::ConjunctiveQuery;
using logic::Term;
using logic::TermRef;

namespace {

// Backstop against pathological rule sets; bodies in practice have a
// handful of atoms, so normal searches finish in a few hundred steps.
constexpr long kMaxSearchSteps = 500000;

// Separator token in canonical duplicate keys; variable codes are small
// negatives and constant codes are interned pointers, so INT64_MIN can
// never collide with either.
constexpr int64_t kAtomSep = INT64_MIN;

struct KeyHash {
  size_t operator()(const std::vector<int64_t>& v) const {
    size_t h = v.size();
    for (int64_t x : v) {
      h = h * 1099511628211ULL ^ static_cast<uint64_t>(x);
    }
    return h;
  }
};

/// Open-addressed set of int64 key sequences. Keys live back-to-back in
/// one arena and the table holds (hash, offset, length) — inserting never
/// allocates per key, and teardown frees two vectors instead of walking
/// thousands of heap nodes (the unordered_set<vector> it replaces showed
/// up in profiles mostly for its destructor).
class FlatKeySet {
 public:
  /// True if the key was newly inserted, false if already present.
  bool Insert(const std::vector<int64_t>& key) {
    if ((entries_.size() + 1) * 4 >= table_.size() * 3) Grow();
    uint64_t h = KeyHash{}(key);
    size_t mask = table_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      int32_t slot = table_[i];
      if (slot < 0) {
        uint32_t off = static_cast<uint32_t>(arena_.size());
        arena_.insert(arena_.end(), key.begin(), key.end());
        table_[i] = static_cast<int32_t>(entries_.size());
        entries_.push_back(Entry{h, off, static_cast<uint32_t>(key.size())});
        return true;
      }
      const Entry& e = entries_[static_cast<size_t>(slot)];
      if (e.hash == h && e.len == key.size() &&
          std::equal(key.begin(), key.end(), arena_.begin() + e.off)) {
        return false;
      }
    }
  }

 private:
  struct Entry {
    uint64_t hash;
    uint32_t off;
    uint32_t len;
  };
  void Grow() {
    size_t cap = table_.empty() ? 64 : table_.size() * 2;
    table_.assign(cap, -1);
    size_t mask = cap - 1;
    for (size_t idx = 0; idx < entries_.size(); ++idx) {
      size_t i = entries_[idx].hash & mask;
      while (table_[i] >= 0) i = (i + 1) & mask;
      table_[i] = static_cast<int32_t>(idx);
    }
  }
  std::vector<int64_t> arena_;
  std::vector<Entry> entries_;
  std::vector<int32_t> table_;  // index into entries_, -1 = empty
};

/// The resolution engine: structure-shared terms. A term in flight is a
/// (handle, environment) pair — the handle is the interned rule/query term
/// as written, the environment names one use of a rule (the paper's "fresh
/// copy per application"). Variables never get renamed during the search;
/// the environment id plays the role the "u<N>_" prefix plays in the
/// emitted strings, and the prefix is only materialized for surviving
/// rewritings. Binding is a per-environment slot list plus an undo trail,
/// so backtracking never copies a substitution.
struct Value {
  TermRef term = nullptr;
  uint32_t env = 0;
};

inline bool SameVar(const Value& a, const Value& b) {
  return a.term == b.term && a.env == b.env;
}

struct Frame {
  int use = -1;  // -1 for the query environment, else N of the "u<N>_" prefix
  std::vector<std::pair<TermRef, Value>> slots;
};

class Engine {
 public:
  Engine(const Request& req, const exec::RunContext& ctx)
      : query_(*req.query),
        session_(*req.session),
        options_(req.options),
        ctx_(ctx) {}

  Result<std::vector<ConjunctiveQuery>> Run();

 private:
  using SessionRule = RewriteSession::Rule;

  // ---- binding environment ----
  const Value* Find(TermRef var, uint32_t env) const {
    for (const auto& slot : frames_[env].slots) {
      if (slot.first == var) return &slot.second;
    }
    return nullptr;
  }
  Value Walk(Value v) const {
    while (v.term->IsVar()) {
      const Value* bound = Find(v.term, v.env);
      if (bound == nullptr) break;
      v = *bound;
    }
    return v;
  }
  void Bind(const Value& var, const Value& value) {
    frames_[var.env].slots.push_back({var.term, value});
    trail_.push_back(var);
  }
  void Undo(size_t mark) {
    while (trail_.size() > mark) {
      frames_[trail_.back().env].slots.pop_back();
      trail_.pop_back();
    }
  }

  bool Occurs(const Value& var, Value t) const {
    Value r = Walk(t);
    if (r.term->IsVar()) return SameVar(r, var);
    if (r.term->kind == logic::TermKind::kFunction) {
      for (TermRef a : session_.interner().ArgsOf(r.term)) {
        if (Occurs(var, Value{a, r.env})) return true;
      }
    }
    return false;
  }

  // Mirrors logic::Unify exactly, including the binding orientation (the
  // side that gets bound decides which variable name survives into the
  // emitted rewriting).
  bool Unify(Value a, Value b) {
    Value ra = Walk(a);
    Value rb = Walk(b);
    if (ra.term->IsVar()) {
      if (rb.term->IsVar() && SameVar(ra, rb)) return true;
      if (Occurs(ra, rb)) return false;
      Bind(ra, rb);
      return true;
    }
    if (rb.term->IsVar()) {
      if (Occurs(rb, ra)) return false;
      Bind(rb, ra);
      return true;
    }
    if (ra.term->kind != rb.term->kind || ra.term->name != rb.term->name ||
        ra.term->args.size() != rb.term->args.size()) {
      return false;
    }
    const std::vector<TermRef>& args_a = session_.interner().ArgsOf(ra.term);
    const std::vector<TermRef>& args_b = session_.interner().ArgsOf(rb.term);
    for (size_t i = 0; i < args_a.size(); ++i) {
      if (!Unify(Value{args_a[i], ra.env}, Value{args_b[i], rb.env})) {
        return false;
      }
    }
    return true;
  }

  bool UnifyAtoms(AtomRef a, uint32_t env_a, AtomRef b, uint32_t env_b) {
    if (a->predicate != b->predicate || a->terms.size() != b->terms.size()) {
      return false;
    }
    const std::vector<TermRef>& terms_a = session_.interner().TermsOf(a);
    const std::vector<TermRef>& terms_b = session_.interner().TermsOf(b);
    for (size_t i = 0; i < terms_a.size(); ++i) {
      if (!Unify(Value{terms_a[i], env_a}, Value{terms_b[i], env_b})) {
        return false;
      }
    }
    return true;
  }

  // A goal is pristine when every term still reads as written (no variable
  // bound, no function term): then the outcome of unifying it with a fresh
  // copy of a rule head depends on the two structures alone, and the
  // session's viability memo applies across candidates.
  bool Pristine(AtomRef goal) const {
    for (TermRef t : session_.interner().TermsOf(goal)) {
      if (t->kind == logic::TermKind::kFunction) return false;
      if (t->IsVar() && Find(t, 0) != nullptr) return false;
    }
    return true;
  }

  void Search(size_t atom_index);
  void Leaf();
  Term Materialize(Value v) const;
  std::vector<int64_t> MinimizedKey(const ConjunctiveQuery& q);

  // ---- inputs / setup ----
  ConjunctiveQuery query_;  // body reordered most-constrained-first
  RewriteSession& session_;
  const RewriteOptions& options_;
  exec::RunContext ctx_;
  std::vector<AtomRef> goals_;
  std::vector<TermRef> head_;
  std::vector<std::vector<const SessionRule*>> goal_candidates_;
  std::vector<int> required_ids_;

  // ---- search state ----
  std::vector<Frame> frames_;
  std::vector<Value> trail_;
  std::vector<std::pair<const SessionRule*, uint32_t>> table_atoms_;
  std::vector<std::pair<int, uint32_t>> instances_;  // (table pred id, env)
  int rule_use_counter_ = 0;
  long steps_ = 0;
  std::vector<ConjunctiveQuery> results_;
  std::vector<bool> is_dup_;
  FlatKeySet seen_keys_;

  // ---- leaf scratch (reused across leaves) ----
  std::vector<Value> head_vals_;
  std::vector<Value> term_vals_;
  std::vector<std::pair<Value, int64_t>> var_codes_;
  std::vector<int64_t> key_;
  std::vector<std::pair<size_t, size_t>> atom_spans_;

  // ---- counters ----
  int64_t index_hits_ = 0;
  int64_t memo_hits_ = 0;
  int64_t dup_skips_ = 0;
  int64_t normalize_misses_ = 0;
  logic::HomStats hom_;  // searches run here, outside the EquivCache
};

void Engine::Search(size_t atom_index) {
  if (results_.size() >= options_.max_rewritings) return;
  if (++steps_ > kMaxSearchSteps) return;
  if (!ctx_.Charge()) return;
  if (atom_index == goals_.size()) {
    Leaf();
    return;
  }
  AtomRef goal = goals_[atom_index];
  const std::vector<const SessionRule*>& candidates =
      goal_candidates_[atom_index];
  ++index_hits_;
  // Pass 1: satisfy the goal from a row instance already joined into the
  // partial rewriting (same table, same environment) — this is what yields
  // the paper's compact rewritings, and enumerating it first keeps them
  // ahead of the result cap. The entries below `instance_count` are stable
  // across the recursion.
  const size_t instance_count = instances_.size();
  for (const SessionRule* rule : candidates) {
    for (size_t i = 0; i < instance_count; ++i) {
      if (instances_[i].first != rule->table_pred_id) continue;
      size_t mark = trail_.size();
      if (UnifyAtoms(goal, 0, rule->head, instances_[i].second)) {
        Search(atom_index + 1);
      }
      Undo(mark);
    }
  }
  // Pass 2: a fresh row instance per rule. The use counter advances for
  // every candidate — including memo-skipped ones — because its value
  // names the row variables of later successful uses.
  const bool memo_on = session_.tuning().use_memo;
  const bool pristine = memo_on && Pristine(goal);
  for (const SessionRule* rule : candidates) {
    int use = rule_use_counter_++;
    bool viable = true;
    bool from_memo = false;
    if (pristine && session_.LookupViability(goal, rule, &viable)) {
      from_memo = true;
      ++memo_hits_;
      if (!viable) continue;
    }
    frames_.push_back(Frame{use, {}});
    uint32_t env = static_cast<uint32_t>(frames_.size() - 1);
    size_t mark = trail_.size();
    bool ok = UnifyAtoms(goal, 0, rule->head, env);
    if (pristine && !from_memo) session_.StoreViability(goal, rule, ok);
    if (ok) {
      table_atoms_.push_back({rule, env});
      instances_.push_back({rule->table_pred_id, env});
      Search(atom_index + 1);
      table_atoms_.pop_back();
      instances_.pop_back();
    }
    Undo(mark);
    frames_.pop_back();
  }
}

Term Engine::Materialize(Value v) const {
  v = Walk(v);
  if (v.term->IsVar()) {
    const int use = frames_[v.env].use;
    if (use < 0) return Term::Var(v.term->name);
    return Term::Var("u" + std::to_string(use) + "_" + v.term->name);
  }
  if (v.term->kind == logic::TermKind::kConstant) return *v.term;
  Term out;
  out.kind = logic::TermKind::kFunction;
  out.name = v.term->name;
  for (TermRef a : session_.interner().ArgsOf(v.term)) {
    out.args.push_back(Materialize(Value{a, v.env}));
  }
  return out;
}

void Engine::Leaf() {
  // An answer variable still bound to a Skolem term cannot be produced
  // from the tables: reject this combination.
  head_vals_.clear();
  for (TermRef t : head_) {
    Value v = Walk(Value{t, 0});
    if (!v.term->IsVar()) return;
    head_vals_.push_back(v);
  }
  // Table atoms with Skolem-valued columns can never hold real rows.
  term_vals_.clear();
  atom_spans_.clear();
  for (const auto& [rule, env] : table_atoms_) {
    size_t begin = term_vals_.size();
    for (TermRef t : session_.interner().TermsOf(rule->table_atom)) {
      Value v = Walk(Value{t, env});
      if (v.term->kind == logic::TermKind::kFunction) return;
      term_vals_.push_back(v);
    }
    atom_spans_.push_back({begin, term_vals_.size()});
  }
  // Required-table filter applied inline: rewritings missing a
  // corresponded table must not consume the result budget (the valid ones
  // can hide arbitrarily deep in the enumeration order).
  for (int required : required_ids_) {
    bool found = false;
    for (const auto& [rule, env] : table_atoms_) {
      if (rule->table_pred_id == required) {
        found = true;
        break;
      }
    }
    if (!found) return;
  }
  if (session_.tuning().use_dup_skip) {
    // Canonical duplicate key: variables coded by first occurrence, atoms
    // sorted, variables recoded, atoms re-sorted (same scheme as
    // logic::CanonicalCq, over integer tokens). Equal keys mean the
    // rewriting is a variable-renaming / atom-reordering of one pushed
    // earlier in this run; the dedup filter would drop it against that
    // earlier one, so it is recorded as a placeholder and never
    // materialized, minimized or normalized. Unequal keys prove nothing —
    // those duplicates still fall through to the equivalence filter.
    var_codes_.clear();
    auto code_of = [&](const Value& v) -> int64_t {
      if (!v.term->IsVar()) {
        return static_cast<int64_t>(reinterpret_cast<uintptr_t>(v.term));
      }
      for (const auto& [seen, code] : var_codes_) {
        if (SameVar(seen, v)) return code;
      }
      int64_t code = -static_cast<int64_t>(var_codes_.size()) - 1;
      var_codes_.push_back({v, code});
      return code;
    };
    key_.clear();
    for (const Value& v : head_vals_) key_.push_back(code_of(v));
    std::vector<std::vector<int64_t>> atom_keys;
    atom_keys.reserve(atom_spans_.size());
    for (size_t a = 0; a < atom_spans_.size(); ++a) {
      std::vector<int64_t> ak;
      ak.push_back(table_atoms_[a].first->table_pred_id);
      for (size_t i = atom_spans_[a].first; i < atom_spans_[a].second; ++i) {
        ak.push_back(code_of(term_vals_[i]));
      }
      atom_keys.push_back(std::move(ak));
    }
    std::sort(atom_keys.begin(), atom_keys.end());
    atom_keys.erase(std::unique(atom_keys.begin(), atom_keys.end()),
                    atom_keys.end());
    // Recode variables by first occurrence in the sorted order, then sort
    // again under the new codes.
    std::vector<int64_t> recode;
    int64_t assigned = 0;
    auto renumber = [&](int64_t code) -> int64_t {
      if (code >= 0) return code;
      size_t idx = static_cast<size_t>(-code) - 1;
      if (recode.size() <= idx) recode.resize(idx + 1, 0);
      if (recode[idx] == 0) recode[idx] = -(++assigned);
      return recode[idx];
    };
    for (int64_t& c : key_) c = renumber(c);
    for (std::vector<int64_t>& ak : atom_keys) {
      for (size_t i = 1; i < ak.size(); ++i) ak[i] = renumber(ak[i]);
    }
    std::sort(atom_keys.begin(), atom_keys.end());
    for (const std::vector<int64_t>& ak : atom_keys) {
      key_.push_back(kAtomSep);
      key_.insert(key_.end(), ak.begin(), ak.end());
    }
    if (!seen_keys_.Insert(key_)) {
      results_.emplace_back();
      is_dup_.push_back(true);
      return;
    }
  }
  ConjunctiveQuery rewriting;
  rewriting.head_predicate = query_.head_predicate;
  for (const Value& v : head_vals_) rewriting.head.push_back(Materialize(v));
  for (size_t a = 0; a < atom_spans_.size(); ++a) {
    Atom out;
    out.predicate = table_atoms_[a].first->rule->table_atom.predicate;
    for (size_t i = atom_spans_[a].first; i < atom_spans_[a].second; ++i) {
      out.terms.push_back(Materialize(term_vals_[i]));
    }
    rewriting.body.push_back(std::move(out));
  }
  // Deduplicate identical atoms introduced by shared rule uses.
  std::sort(rewriting.body.begin(), rewriting.body.end());
  rewriting.body.erase(
      std::unique(rewriting.body.begin(), rewriting.body.end()),
      rewriting.body.end());
  results_.push_back(std::move(rewriting));
  is_dup_.push_back(false);
}

// Canonical integer key of a minimized rewriting (value form): variables
// coded by first occurrence, constants and predicates by their
// session-stable ids, atoms sorted / recoded / re-sorted — the Leaf key
// scheme applied to a materialized query. Renaming-invariant: two
// minimized rewritings get equal keys iff they are variable-renamings /
// atom-reorderings of each other.
std::vector<int64_t> Engine::MinimizedKey(const ConjunctiveQuery& q) {
  std::vector<std::pair<std::string_view, int64_t>> var_codes;
  auto code_of = [&](const Term& t) -> int64_t {
    if (t.kind != logic::TermKind::kVariable) return session_.PredId(t.name);
    for (const auto& [name, code] : var_codes) {
      if (name == t.name) return code;
    }
    int64_t code = -static_cast<int64_t>(var_codes.size()) - 1;
    var_codes.push_back({t.name, code});
    return code;
  };
  std::vector<int64_t> key;
  for (const Term& t : q.head) key.push_back(code_of(t));
  std::vector<std::vector<int64_t>> atom_keys;
  atom_keys.reserve(q.body.size());
  for (const Atom& a : q.body) {
    std::vector<int64_t> ak;
    ak.push_back(session_.PredId(a.predicate));
    for (const Term& t : a.terms) ak.push_back(code_of(t));
    atom_keys.push_back(std::move(ak));
  }
  std::sort(atom_keys.begin(), atom_keys.end());
  std::vector<int64_t> recode;
  int64_t assigned = 0;
  auto renumber = [&](int64_t code) -> int64_t {
    if (code >= 0) return code;
    size_t idx = static_cast<size_t>(-code) - 1;
    if (recode.size() <= idx) recode.resize(idx + 1, 0);
    if (recode[idx] == 0) recode[idx] = -(++assigned);
    return recode[idx];
  };
  for (int64_t& c : key) c = renumber(c);
  for (std::vector<int64_t>& ak : atom_keys) {
    for (size_t i = 1; i < ak.size(); ++i) ak[i] = renumber(ak[i]);
  }
  std::sort(atom_keys.begin(), atom_keys.end());
  for (const std::vector<int64_t>& ak : atom_keys) {
    key.push_back(kAtomSep);
    key.insert(key.end(), ak.begin(), ak.end());
  }
  return key;
}

Result<std::vector<ConjunctiveQuery>> Engine::Run() {
  // Resolve the most constrained goals first (fewest matching rules):
  // relationship atoms typically have a single producing table, so the
  // class and attribute atoms that follow are satisfied by reusing the
  // rows those joins introduced.
  std::stable_sort(query_.body.begin(), query_.body.end(),
                   [&](const Atom& a, const Atom& b) {
                     return session_.Candidates(a.predicate, a.terms.size())
                                .size() <
                            session_.Candidates(b.predicate, b.terms.size())
                                .size();
                   });
  logic::Interner& interner = session_.interner();
  for (const Atom& atom : query_.body) goals_.push_back(interner.Intern(atom));
  for (const Term& t : query_.head) head_.push_back(interner.Intern(t));
  for (const Atom& atom : query_.body) {
    // Rules over the corresponded (required) tables lead; those tables
    // must appear in any surviving rewriting, so exploring them first
    // reaches the intended expressions before the result cap.
    std::vector<const SessionRule*> candidates =
        session_.Candidates(atom.predicate, atom.terms.size());
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](const SessionRule* a, const SessionRule* b) {
                       return options_.required_tables.count(
                                  a->rule->table_atom.predicate) >
                              options_.required_tables.count(
                                  b->rule->table_atom.predicate);
                     });
    goal_candidates_.push_back(std::move(candidates));
  }
  for (const std::string& table : options_.required_tables) {
    required_ids_.push_back(session_.PredId(table));
  }
  frames_.push_back(Frame{-1, {}});

  const size_t arena_before = session_.arena_bytes();
  const logic::EquivCacheStats stats_before = session_.equiv().stats();
  {
    obs::ScopedTimer search_timer(ctx_.metrics, "rewriting.search_ns");
    Search(0);
  }
  ctx_.Count("rewriting.resolution_steps", steps_);
  ctx_.Count("rewriting.rewritings_enumerated",
             static_cast<int64_t>(results_.size()));
  if (ctx_.Exhausted()) {
    ctx_.governor->NoteTruncation(
        "RewriteQuery: enumeration stopped after " + std::to_string(steps_) +
        " resolution steps with " + std::to_string(results_.size()) +
        " rewriting(s)");
  }

  // Minimization may fold away a required table's only atom (when another
  // table subsumes it), so the filter is re-checked after minimizing.
  // Canonical duplicates skip the whole filter chain: the rewriting they
  // duplicate has already gone through it.
  obs::ScopedTimer filter_timer(ctx_.metrics, "rewriting.filter_ns");
  // The canonical key of the *minimized* rewriting serves two filters: a
  // per-call skip of survivors whose minimized form is a renaming of an
  // earlier survivor's (the dedup loop is guaranteed to drop them — the
  // earlier one was either kept, making them equivalent to it, or dropped
  // against a kept one they are then also equivalent to), and the
  // session-wide normalize memo key.
  const bool want_key =
      session_.tuning().use_dup_skip || session_.tuning().use_memo;
  std::vector<ConjunctiveQuery> rewritings;
  std::vector<std::vector<int64_t>> rewriting_keys;
  FlatKeySet seen_minimized;
  for (size_t i = 0; i < results_.size(); ++i) {
    if (is_dup_[i]) {
      ++dup_skips_;
      continue;
    }
    ConjunctiveQuery minimized = logic::Minimize(std::move(results_[i]), &hom_);
    bool ok = true;
    for (const std::string& table : options_.required_tables) {
      bool found = false;
      for (const Atom& a : minimized.body) {
        if (a.predicate == table) {
          found = true;
          break;
        }
      }
      if (!found) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    std::vector<int64_t> key;
    if (want_key) key = MinimizedKey(minimized);
    if (session_.tuning().use_dup_skip && !key.empty() &&
        !seen_minimized.Insert(key)) {
      ++dup_skips_;
      continue;
    }
    rewritings.push_back(std::move(minimized));
    rewriting_keys.push_back(std::move(key));
  }

  // Drop duplicates and, when requested, rewritings strictly contained in
  // another survivor — both judged on the normalized (e.g. chased) forms,
  // so variants equivalent under the schema constraints collapse onto the
  // first (most compact, thanks to reuse-first enumeration) one. With the
  // session caches enabled the verdicts come from the EquivCache
  // (memoized, signature-pruned); with both escapes off this is the plain
  // quadratic loop over logic::Equivalent / logic::Contains.
  logic::EquivCache& equiv = session_.equiv();
  const bool cached =
      session_.tuning().use_memo || session_.tuning().use_signatures;
  obs::ScopedTimer dedup_timer(ctx_.metrics, "rewriting.dedup_ns");
  std::vector<ConjunctiveQuery> unique;
  std::vector<ConjunctiveQuery> out;
  if (cached) {
    // Ref-based path: every survivor is interned once, and all verdicts
    // run over handles (pointer fast paths, signatures, pair memos). The
    // normalized forms are cores — the filter loop minimized the
    // survivors, and options_.normalize (when set) minimizes its own
    // output — so the core-isomorphism signature pruning applies. The
    // session-wide normalize memo is keyed by the canonical duplicate key
    // of the raw rewriting: the memoized form may be a renaming of this
    // call's, which is fine because it only feeds renaming-invariant
    // verdicts.
    const bool memo_on = session_.tuning().use_memo;
    auto normalize_ref = [&](const ConjunctiveQuery& q,
                             const std::vector<int64_t>& key) {
      obs::ScopedTimer normalize_timer(ctx_.metrics,
                                       "rewriting.normalize_ns");
      if (memo_on && !key.empty()) {
        if (logic::CqRef hit = session_.LookupNormalized(key)) {
          ++memo_hits_;
          return hit;
        }
      }
      ++normalize_misses_;
      logic::CqRef norm =
          equiv.Intern(options_.normalize ? options_.normalize(q) : q);
      if (memo_on && !key.empty()) session_.StoreNormalized(key, norm);
      return norm;
    };
    std::vector<logic::CqRef> unique_norm;
    for (size_t i = 0; i < rewritings.size(); ++i) {
      logic::CqRef norm = normalize_ref(rewritings[i], rewriting_keys[i]);
      bool duplicate = false;
      for (logic::CqRef kept : unique_norm) {
        if (equiv.EquivalentRefs(kept, norm, /*minimized=*/true)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        unique.push_back(std::move(rewritings[i]));
        unique_norm.push_back(norm);
      }
    }
    if (options_.keep_only_maximal) {
      std::vector<bool> keep(unique.size(), true);
      for (size_t i = 0; i < unique.size(); ++i) {
        for (size_t j = 0; j < unique.size(); ++j) {
          if (i == j) continue;
          if (equiv.ContainsRefs(unique_norm[j], unique_norm[i]) &&
              !equiv.ContainsRefs(unique_norm[i], unique_norm[j])) {
            keep[i] = false;
            break;
          }
        }
      }
      for (size_t i = 0; i < unique.size(); ++i) {
        if (keep[i]) out.push_back(std::move(unique[i]));
      }
    } else {
      out = std::move(unique);
    }
  } else {
    auto normalize = [&](const ConjunctiveQuery& q) -> ConjunctiveQuery {
      obs::ScopedTimer normalize_timer(ctx_.metrics,
                                       "rewriting.normalize_ns");
      ++normalize_misses_;
      return options_.normalize ? options_.normalize(q) : q;
    };
    std::vector<ConjunctiveQuery> unique_norm;
    for (ConjunctiveQuery& q : rewritings) {
      ConjunctiveQuery norm = normalize(q);
      bool duplicate = false;
      for (const ConjunctiveQuery& kept : unique_norm) {
        if (logic::Equivalent(kept, norm, &hom_)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        unique.push_back(std::move(q));
        unique_norm.push_back(std::move(norm));
      }
    }
    if (options_.keep_only_maximal) {
      std::vector<bool> keep(unique.size(), true);
      for (size_t i = 0; i < unique.size(); ++i) {
        for (size_t j = 0; j < unique.size(); ++j) {
          if (i == j) continue;
          if (logic::Contains(unique_norm[j], unique_norm[i], &hom_) &&
              !logic::Contains(unique_norm[i], unique_norm[j], &hom_)) {
            keep[i] = false;
            break;
          }
        }
      }
      for (size_t i = 0; i < unique.size(); ++i) {
        if (keep[i]) out.push_back(std::move(unique[i]));
      }
    } else {
      out = std::move(unique);
    }
  }
  ctx_.Count("rewriting.rewritings_kept", static_cast<int64_t>(out.size()));

  const logic::EquivCacheStats& stats_after = equiv.stats();
  ctx_.Count("rewriting.rules_indexed_hits", index_hits_);
  ctx_.Count("rewriting.normalize_misses", normalize_misses_);
  ctx_.Count("rewriting.memo_hits",
             memo_hits_ + dup_skips_ +
                 (stats_after.memo_hits - stats_before.memo_hits));
  ctx_.Count("rewriting.signature_skips",
             stats_after.signature_skips - stats_before.signature_skips);
  ctx_.Count("rewriting.hom_step_capped",
             hom_.step_capped +
                 (stats_after.hom_step_capped - stats_before.hom_step_capped));
  ctx_.Count("rewriting.arena_bytes",
             static_cast<int64_t>(session_.arena_bytes() - arena_before));
  return out;
}

}  // namespace

Result<std::vector<ConjunctiveQuery>> Rewrite(const Request& req,
                                              const exec::RunContext& run_ctx) {
  exec::RunContext ctx = run_ctx;
  if (ctx.governor == nullptr) ctx.governor = req.options.governor;
  obs::ScopedTimer timer(ctx.metrics, "rewriting.rewrite_query_ns");
  Engine engine(req, ctx);
  return engine.Run();
}

Result<std::vector<ConjunctiveQuery>> RewriteQuery(
    const ConjunctiveQuery& cm_query, const std::vector<InverseRule>& rules,
    const RewriteOptions& options) {
  return RewriteQuery(cm_query, rules, options, exec::RunContext{});
}

Result<std::vector<ConjunctiveQuery>> RewriteQuery(
    const ConjunctiveQuery& cm_query, const std::vector<InverseRule>& rules,
    const RewriteOptions& options, const exec::RunContext& run_ctx) {
  // Deprecated shim: a throwaway session per call loses the cross-call
  // memoization; long-lived callers should hold a RewriteSession and use
  // Rewrite directly.
  RewriteSession session(rules);
  Request req;
  req.query = &cm_query;
  req.session = &session;
  req.options = options;
  return Rewrite(req, run_ctx);
}

}  // namespace semap::rew
