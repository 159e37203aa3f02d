#include "semantics/compiled_side.h"

#include <iterator>
#include <mutex>
#include <optional>

namespace semap::sem {

/// One build of a side's compiled form. Copies of an AnnotatedSchema share
/// the slot; AddSemantics gives the mutated schema a fresh one.
struct AnnotatedSchema::CompiledSlot {
  std::once_flag once;
  std::optional<CompiledSide> value;
};

namespace {

Result<std::vector<InverseRule>> SideRules(const AnnotatedSchema& side) {
  std::vector<InverseRule> out;
  for (const auto& [table, stree] : side.semantics()) {
    const rel::Table* table_def = side.schema().FindTable(table);
    if (table_def == nullptr) continue;
    SEMAP_ASSIGN_OR_RETURN(std::vector<InverseRule> rules,
                           InverseRulesForTable(side.graph(), *table_def,
                                                stree));
    out.insert(out.end(), std::make_move_iterator(rules.begin()),
               std::make_move_iterator(rules.end()));
  }
  return out;
}

CompiledSide Compile(const AnnotatedSchema& side) {
  std::vector<TableFd> egds = DeriveSchemaFds(side);
  const size_t stree_fd_count = egds.size();
  for (const rel::Table& table : side.schema().tables()) {
    if (table.primary_key().empty()) continue;
    egds.push_back(TableFd{table.name(), table.primary_key(), table.columns()});
  }
  return CompiledSide{SideRules(side), std::move(egds), stree_fd_count,
                      DeriveCrossTableFds(side)};
}

}  // namespace

std::shared_ptr<AnnotatedSchema::CompiledSlot>
AnnotatedSchema::NewCompiledSlot() {
  return std::make_shared<CompiledSlot>();
}

const CompiledSide& AnnotatedSchema::compiled() const {
  CompiledSlot& slot = *compiled_;
  std::call_once(slot.once, [&] { slot.value.emplace(Compile(*this)); });
  return *slot.value;
}

}  // namespace semap::sem
