#include "logic/memo.h"

#include <functional>
#include <string>

#include "logic/containment.h"

namespace semap::logic {

namespace {

uint64_t PredicateBit(const std::string& predicate) {
  return 1ULL << (std::hash<std::string>{}(predicate) & 63u);
}

// Per-predicate value summed into an order-independent body hash: equal
// predicate multisets always produce equal sums, so differing sums prove
// differing multisets (the direction the pruning relies on).
uint64_t PredicateHash(const std::string& predicate) {
  return std::hash<std::string>{}(predicate) | 1ULL;
}

}  // namespace

CqRef EquivCache::Canonical(CqRef q) {
  auto it = canonical_.find(q);
  if (it != canonical_.end()) return it->second;
  CqRef canon = interner_->Intern(CanonicalCq(*q));
  canonical_.emplace(q, canon);
  return canon;
}

const EquivCache::Signature& EquivCache::SignatureOf(CqRef q) {
  auto it = signatures_.find(q);
  if (it != signatures_.end()) return it->second;
  Signature sig;
  sig.body_size = static_cast<uint32_t>(q->body.size());
  sig.head_size = static_cast<uint32_t>(q->head.size());
  for (const Atom& atom : q->body) {
    sig.predicate_mask |= PredicateBit(atom.predicate);
    sig.multiset_hash += PredicateHash(atom.predicate);
  }
  return signatures_.emplace(q, sig).first->second;
}

bool EquivCache::ContainsImpl(CqRef super, CqRef sub) {
  if (super == sub) {
    ++stats_.memo_hits;
    return true;
  }
  if (use_signatures) {
    const Signature& s_super = SignatureOf(super);
    const Signature& s_sub = SignatureOf(sub);
    // A homomorphism super -> sub maps every body atom of super onto a
    // same-predicate atom of sub and preserves head arity; a bloom bit set
    // in super but clear in sub proves a predicate sub lacks.
    if (s_super.head_size != s_sub.head_size ||
        (s_super.predicate_mask & ~s_sub.predicate_mask) != 0) {
      ++stats_.signature_skips;
      return false;
    }
  }
  if (use_memo) {
    auto it = contains_.find({super, sub});
    if (it != contains_.end()) {
      ++stats_.memo_hits;
      return it->second;
    }
  }
  ++stats_.hom_searches;
  HomStats hom;
  bool verdict = logic::Contains(*super, *sub, &hom);
  stats_.hom_step_capped += hom.step_capped;
  if (use_memo) contains_.emplace(std::make_pair(super, sub), verdict);
  return verdict;
}

bool EquivCache::EquivalentRefs(CqRef a, CqRef b, bool minimized) {
  if (a == b) {
    ++stats_.memo_hits;
    return true;
  }
  if (use_signatures && minimized) {
    // Equivalent cores are isomorphic, so they agree on body size and the
    // body predicate multiset; any mismatch proves inequivalence. A
    // redundant atom would break the isomorphism claim, hence the
    // minimized-only gate.
    const Signature& sa = SignatureOf(a);
    const Signature& sb = SignatureOf(b);
    if (sa.body_size != sb.body_size || sa.head_size != sb.head_size ||
        sa.predicate_mask != sb.predicate_mask ||
        sa.multiset_hash != sb.multiset_hash) {
      ++stats_.signature_skips;
      return false;
    }
  }
  return ContainsImpl(a, b) && ContainsImpl(b, a);
}

bool EquivCache::ContainsRefs(CqRef q_super, CqRef q_sub) {
  return ContainsImpl(q_super, q_sub);
}

}  // namespace semap::logic
