#include "rewriting/session.h"

namespace semap::rew {

RewriteSession::RewriteSession(const std::vector<sem::InverseRule>& rules,
                               Tuning tuning, logic::TermFactory* factory)
    : tuning_(tuning),
      owned_interner_(factory == nullptr ? new logic::Interner() : nullptr),
      interner_(factory == nullptr ? owned_interner_.get() : factory),
      equiv_(interner_) {
  equiv_.use_memo = tuning_.use_memo;
  equiv_.use_signatures = tuning_.use_signatures;
  rules_.reserve(rules.size());
  for (const sem::InverseRule& rule : rules) {
    Rule entry;
    entry.rule = &rule;
    entry.head = interner_->Intern(rule.head);
    entry.table_atom = interner_->Intern(rule.table_atom);
    entry.table_pred_id = PredId(rule.table_atom.predicate);
    rules_.push_back(entry);
  }
  // Index after the vector is final: Rule pointers must not move.
  for (const Rule& entry : rules_) {
    by_head_[{entry.rule->head.predicate, entry.rule->head.terms.size()}]
        .push_back(&entry);
  }
}

const std::vector<const RewriteSession::Rule*>& RewriteSession::Candidates(
    std::string_view predicate, size_t arity) const {
  static const std::vector<const Rule*> kEmpty;
  auto it = by_head_.find(std::make_pair(predicate, arity));
  return it == by_head_.end() ? kEmpty : it->second;
}

int RewriteSession::PredId(std::string_view predicate) {
  auto it = pred_ids_.find(predicate);
  if (it != pred_ids_.end()) return it->second;
  int id = static_cast<int>(pred_ids_.size());
  pred_ids_.emplace(std::string(predicate), id);
  return id;
}

bool RewriteSession::LookupViability(logic::AtomRef goal, const Rule* rule,
                                     bool* viable) const {
  auto it = viability_.find({goal, rule});
  if (it == viability_.end()) return false;
  *viable = it->second;
  return true;
}

void RewriteSession::StoreViability(logic::AtomRef goal, const Rule* rule,
                                    bool viable) {
  viability_.emplace(std::make_pair(goal, rule), viable);
}

logic::CqRef RewriteSession::LookupNormalized(
    const std::vector<int64_t>& key) const {
  auto it = normalized_.find(key);
  return it == normalized_.end() ? nullptr : it->second;
}

void RewriteSession::StoreNormalized(const std::vector<int64_t>& key,
                                     logic::CqRef norm) {
  normalized_.emplace(key, norm);
}

}  // namespace semap::rew
