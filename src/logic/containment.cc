#include "logic/containment.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string_view>
#include <vector>

namespace semap::logic {

namespace {

// Array of `n` trivially-copyable scratch values that lives on the stack
// up to N elements and spills to the heap only beyond, so planning the
// small bodies of the rewriting hot path allocates nothing. Elements
// start uninitialized; every user writes before it reads.
template <typename T, size_t N>
class Scratch {
 public:
  explicit Scratch(size_t n) {
    if (n > N) spill_.resize(n);
    data_ = n > N ? spill_.data() : inline_;
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* data() { return data_; }
  const T* data() const { return data_; }

 private:
  T inline_[N];
  std::vector<T> spill_;
  T* data_;
};

constexpr size_t kInlineAtoms = 32;
constexpr size_t kInlineVars = 256;

size_t CountVariables(const Term& t) {
  if (t.IsVar()) return 1;
  size_t n = 0;
  for (const Term& a : t.args) n += CountVariables(a);
  return n;
}

size_t CountVariables(const ConjunctiveQuery& q) {
  size_t n = 0;
  for (const Term& t : q.head) n += CountVariables(t);
  for (const Atom& a : q.body) {
    for (const Term& t : a.terms) n += CountVariables(t);
  }
  return n;
}

// The pattern query compiled once per call: every variable occurrence —
// head terms first, then each body atom's terms, each term in pre-order —
// carries the dense slot of its variable, so the search binds and looks
// up variables by index instead of comparing names.
class Pattern {
 public:
  explicit Pattern(const ConjunctiveQuery& q)
      : num_occurrences_(CountVariables(q)),
        slot_of_(num_occurrences_),
        slot_name_(num_occurrences_),
        atom_begin_(q.body.size() + 1) {
    size_t capacity = 16;
    while (capacity < 2 * num_occurrences_) capacity <<= 1;
    Scratch<uint32_t, 2 * kInlineVars> table(capacity);  // slot + 1, 0 = free
    std::fill(table.data(), table.data() + capacity, 0u);
    size_t next = 0;
    auto visit = [&](auto&& self, const Term& t) -> void {
      if (!t.IsVar()) {
        for (const Term& a : t.args) self(self, a);
        return;
      }
      size_t h = std::hash<std::string_view>{}(t.name) & (capacity - 1);
      while (table[h] != 0 && *slot_name_[table[h] - 1] != t.name) {
        h = (h + 1) & (capacity - 1);
      }
      if (table[h] == 0) {
        slot_name_[num_slots_] = &t.name;
        table[h] = static_cast<uint32_t>(++num_slots_);
      }
      slot_of_[next++] = table[h] - 1;
    };
    for (const Term& t : q.head) visit(visit, t);
    for (size_t i = 0; i < q.body.size(); ++i) {
      atom_begin_[i] = static_cast<uint32_t>(next);
      for (const Term& t : q.body[i].terms) visit(visit, t);
    }
    atom_begin_[q.body.size()] = static_cast<uint32_t>(next);
  }

  size_t num_slots() const { return num_slots_; }
  const std::string& SlotName(uint32_t slot) const {
    return *slot_name_[slot];
  }
  // Slots of the head's variable occurrences, then of body atom i's.
  const uint32_t* HeadSlots() const { return slot_of_.data(); }
  const uint32_t* AtomSlots(size_t i) const {
    return slot_of_.data() + atom_begin_[i];
  }
  const uint32_t* AtomSlotsEnd(size_t i) const {
    return slot_of_.data() + atom_begin_[i + 1];
  }

 private:
  size_t num_occurrences_;
  size_t num_slots_ = 0;
  Scratch<uint32_t, kInlineVars> slot_of_;
  Scratch<const std::string*, kInlineVars> slot_name_;
  Scratch<uint32_t, kInlineAtoms + 1> atom_begin_;
};

// Prefilter for bucket membership: atoms with equal predicate and arity
// always have equal keys, so most non-members are rejected without a
// string compare.
uint64_t BucketKey(const Atom& a) {
  const std::string& p = a.predicate;
  uint64_t key = (static_cast<uint64_t>(p.size()) << 8) | a.terms.size();
  if (!p.empty()) {
    key ^= static_cast<uint64_t>(static_cast<unsigned char>(p.front())) << 40 |
           static_cast<uint64_t>(static_cast<unsigned char>(p.back())) << 48 |
           static_cast<uint64_t>(static_cast<unsigned char>(p[p.size() / 2]))
               << 56;
  }
  return key;
}

// Backtracking state of one search. Bindings are slot-indexed pointers
// into the target's terms; undo pops the trail.
struct SearchState {
  const ConjunctiveQuery& from;
  const Pattern& pattern;
  const std::vector<Atom>& targets;
  const uint32_t* order;       // pattern atoms in search order
  const uint32_t* candidates;  // row i: pattern atom i's bucket
  const uint32_t* bucket_size;
  size_t row;                  // candidates row stride
  const Term** binding;
  uint32_t* trail;
  size_t trail_size = 0;
  int64_t steps = 0;
  bool capped = false;

  // Extend the bindings so `p` maps onto `t`; `slots` walks p's variable
  // occurrences in pre-order. Leaves partial bindings on failure — the
  // caller unwinds to its trail mark.
  bool MatchTerm(const Term& p, const Term& t, const uint32_t*& slots) {
    switch (p.kind) {
      case TermKind::kVariable: {
        const uint32_t slot = *slots++;
        if (const Term* bound = binding[slot]) {
          return bound == &t || *bound == t;
        }
        binding[slot] = &t;
        trail[trail_size++] = slot;
        return true;
      }
      case TermKind::kConstant:
        return t.kind == TermKind::kConstant && t.name == p.name;
      case TermKind::kFunction: {
        if (t.kind != TermKind::kFunction || t.name != p.name ||
            t.args.size() != p.args.size()) {
          return false;
        }
        for (size_t i = 0; i < p.args.size(); ++i) {
          if (!MatchTerm(p.args[i], t.args[i], slots)) return false;
        }
        return true;
      }
    }
    return false;
  }

  bool Descend(size_t depth) {
    if (depth == from.body.size()) return true;
    const uint32_t atom = order[depth];
    const Atom& p = from.body[atom];
    const uint32_t* bucket = candidates + atom * row;
    for (uint32_t c = 0; c < bucket_size[atom]; ++c) {
      if (steps == kMaxHomSteps) {
        capped = true;
        return false;
      }
      ++steps;
      const size_t mark = trail_size;
      const uint32_t* slots = pattern.AtomSlots(atom);
      const Atom& t = targets[bucket[c]];
      bool matched = true;
      for (size_t i = 0; i < p.terms.size() && matched; ++i) {
        matched = MatchTerm(p.terms[i], t.terms[i], slots);
      }
      if (matched && Descend(depth + 1)) return true;
      while (trail_size > mark) binding[trail[--trail_size]] = nullptr;
    }
    return false;
  }
};

// The one homomorphism search: `from` into the query with head `to_head`
// and body `to_body` minus the atom at `skip` (none when out of range —
// Minimize asks about the body without one atom). `compiled` caches
// `from`'s Pattern across calls; it is filled only once the cheap
// rejects have passed. On success with `out` set, the bindings are
// copied into it.
bool Search(const ConjunctiveQuery& from, std::optional<Pattern>& compiled,
            const std::vector<Term>& to_head, const std::vector<Atom>& to_body,
            size_t skip, HomStats* stats, Substitution* out) {
  if (from.head.size() != to_head.size()) return false;
  const size_t n = from.body.size();

  // Bucket the target by (predicate, arity): row i lists, in body order,
  // the target atoms pattern atom i may map onto.
  const size_t m = to_body.size();
  Scratch<uint64_t, kInlineAtoms> target_key(m);
  for (size_t j = 0; j < m; ++j) target_key[j] = BucketKey(to_body[j]);
  Scratch<uint32_t, kInlineAtoms * kInlineAtoms> candidates(n * m);
  Scratch<uint32_t, kInlineAtoms> bucket_size(n);
  for (size_t i = 0; i < n; ++i) {
    const Atom& p = from.body[i];
    const uint64_t key = BucketKey(p);
    uint32_t size = 0;
    for (size_t j = 0; j < m; ++j) {
      if (j != skip && target_key[j] == key &&
          to_body[j].terms.size() == p.terms.size() &&
          to_body[j].predicate == p.predicate) {
        candidates[i * m + size++] = static_cast<uint32_t>(j);
      }
    }
    if (size == 0) return false;
    bucket_size[i] = size;
  }

  const Pattern& pattern = compiled ? *compiled : compiled.emplace(from);
  const size_t slots = pattern.num_slots();
  Scratch<const Term*, kInlineVars> binding(slots);
  Scratch<uint32_t, kInlineVars> trail(slots);
  std::fill(binding.data(), binding.data() + slots, nullptr);

  SearchState state{from,
                    pattern,
                    to_body,
                    nullptr,
                    candidates.data(),
                    bucket_size.data(),
                    m,
                    binding.data(),
                    trail.data()};
  const uint32_t* head_slots = pattern.HeadSlots();
  for (size_t i = 0; i < from.head.size(); ++i) {
    if (!state.MatchTerm(from.head[i], to_head[i], head_slots)) {
      return false;
    }
  }

  // Plan: connectivity first — an atom touching an already-bound variable
  // (head variables are bound by now), or one with no variables at all,
  // is checked against bindings instead of guessing fresh ones — then
  // fewest candidates, then body order.
  Scratch<uint8_t, kInlineVars> bound(slots);
  for (size_t s = 0; s < slots; ++s) bound[s] = binding[s] != nullptr;
  Scratch<uint8_t, kInlineAtoms> placed(n);
  std::fill(placed.data(), placed.data() + n, uint8_t{0});
  Scratch<uint32_t, kInlineAtoms> order(n);
  for (size_t depth = 0; depth < n; ++depth) {
    size_t best = n;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (placed[i]) continue;
      const uint32_t* s = pattern.AtomSlots(i);
      const uint32_t* end = pattern.AtomSlotsEnd(i);
      bool connected = s == end;
      for (; s != end && !connected; ++s) connected = bound[*s] != 0;
      if (best == n || (connected && !best_connected) ||
          (connected == best_connected &&
           bucket_size[i] < bucket_size[best])) {
        best = i;
        best_connected = connected;
      }
    }
    placed[best] = 1;
    order[depth] = static_cast<uint32_t>(best);
    for (const uint32_t* s = pattern.AtomSlots(best);
         s != pattern.AtomSlotsEnd(best); ++s) {
      bound[*s] = 1;
    }
  }
  state.order = order.data();

  const bool found = state.Descend(0);
  if (stats != nullptr) stats->steps += state.steps;
  if (!found) {
    if (stats != nullptr && state.capped) ++stats->step_capped;
    return false;
  }
  if (out != nullptr) {
    for (uint32_t s = 0; s < slots; ++s) {
      out->emplace(pattern.SlotName(s), *binding[s]);
    }
  }
  return true;
}

}  // namespace

std::optional<Substitution> FindHomomorphism(const ConjunctiveQuery& from,
                                             const ConjunctiveQuery& to,
                                             HomStats* stats) {
  Substitution sub;
  std::optional<Pattern> pattern;
  if (!Search(from, pattern, to.head, to.body, to.body.size(), stats, &sub)) {
    return std::nullopt;
  }
  return sub;
}

bool Contains(const ConjunctiveQuery& q_super, const ConjunctiveQuery& q_sub,
              HomStats* stats) {
  std::optional<Pattern> pattern;
  return Search(q_super, pattern, q_sub.head, q_sub.body, q_sub.body.size(),
                stats, nullptr);
}

bool Equivalent(const ConjunctiveQuery& a, const ConjunctiveQuery& b,
                HomStats* stats) {
  return Contains(a, b, stats) && Contains(b, a, stats);
}

ConjunctiveQuery Minimize(ConjunctiveQuery query, HomStats* stats) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::optional<Pattern> pattern;  // compiled by the first search
    for (size_t i = 0; i < query.body.size(); ++i) {
      // The removed atom must map onto another atom with the same
      // predicate; when its predicate occurs only once in the body, no
      // such image exists and the search is skipped (the atom is kept).
      size_t same_predicate = 0;
      for (const Atom& atom : query.body) {
        if (atom.predicate == query.body[i].predicate) ++same_predicate;
      }
      if (same_predicate <= 1) continue;
      // Removing an atom only generalizes; the removal is sound when the
      // smaller query still contains the original (hom query -> query
      // minus atom i, head onto itself).
      if (Search(query, pattern, query.head, query.body, i, stats, nullptr)) {
        query.body.erase(query.body.begin() + static_cast<long>(i));
        changed = true;
        break;
      }
    }
  }
  return query;
}

}  // namespace semap::logic
