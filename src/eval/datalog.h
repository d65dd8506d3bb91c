#ifndef AQV_EVAL_DATALOG_H_
#define AQV_EVAL_DATALOG_H_

#include "eval/database.h"
#include "eval/evaluator.h"
#include "eval/value.h"
#include "rewriting/inverse_rules.h"
#include "util/status.h"

namespace aqv {

/// \brief Applies an inverse-rules program to view extents, reconstructing
/// base-relation facts. Unknown values materialize as Skolem Values interned
/// in `*skolems` (shared across rules so equal Skolem terms join).
///
/// One pass in rule order, each rule over its extent in row order: a
/// derived relation holds its distinct rows in the order first derived,
/// and Skolem terms are interned in the order their rows reach them. Each
/// derived predicate's rows are kept row-major in one buffer and
/// deduplicated through a table of row ids (util/id_table.h), so neither
/// a row nor a Skolem lookup allocates a vector of its own.
///
/// The result contains only the derived base relations; feed it to
/// EvaluateQuery and drop Skolem-carrying rows for certain answers (see
/// certain.h).
[[nodiscard]] Result<Database> ApplyInverseRules(const InverseRuleSet& rules,
                                   const Database& view_extents,
                                   SkolemTable* skolems,
                                   const EvalOptions& options = {});

}  // namespace aqv

#endif  // AQV_EVAL_DATALOG_H_
