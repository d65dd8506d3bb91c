#ifndef AQV_REWRITING_INVERSE_RULES_H_
#define AQV_REWRITING_INVERSE_RULES_H_

#include <string>
#include <vector>

#include "cq/atom.h"
#include "cq/catalog.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// A Skolem function introduced by inverting one view: it names the unknown
/// value of one existential view variable as a function of the view tuple.
struct SkolemFunction {
  /// The view this function belongs to.
  PredId view_pred = -1;
  /// The existential variable it stands for (name from the view definition).
  std::string var_name;
  /// Number of parameters (= number of distinct view head variables).
  int arity = 0;
};

/// One argument of an inverse-rule head: either a plain term over the view
/// head's variables or a Skolem application f_i(params).
struct InverseArg {
  Term term;           ///< valid when skolem_fn < 0
  int skolem_fn = -1;  ///< index into InverseRuleSet::functions when >= 0

  bool is_skolem() const { return skolem_fn >= 0; }
};

/// \brief One inverse rule  p(ā) :- v(X̄)  derived from a body atom p of
/// view v. Variables are the view definition's variable space.
struct InverseRule {
  /// The rule body: the view's original head atom (repeated variables and
  /// constants intact — they act as match filters on the extent).
  Atom view_atom;
  /// The derived base predicate.
  PredId head_pred = -1;
  /// Head arguments; existential variables appear as Skolem applications.
  std::vector<InverseArg> head_args;
  /// The variables (of the view definition) feeding every Skolem in this
  /// rule, in a fixed order shared across the view's rules.
  std::vector<VarId> skolem_params;
  /// Variable names for rendering.
  std::vector<std::string> var_names;

  std::string ToString(const Catalog& catalog) const;
};

/// \brief The inverse-rules rewriting of a view set (Duschka-Genesereth):
/// a datalog program over view extents that reconstructs a canonical
/// database of base facts, with Skolem terms standing for unknown values.
///
/// Evaluating the query over the reconstructed facts and discarding
/// Skolem-carrying answers yields exactly the certain answers — the same
/// maximally-contained semantics MiniCon's union computes, traded
/// differently: rule construction is linear-time here, with the cost pushed
/// to evaluation.
struct InverseRuleSet {
  std::vector<InverseRule> rules;
  std::vector<SkolemFunction> functions;

  std::string ToString(const Catalog& catalog) const;
};

/// Builds the inverse rules for every view in `views`.
[[nodiscard]] Result<InverseRuleSet> BuildInverseRules(const ViewSet& views);

}  // namespace aqv

#endif  // AQV_REWRITING_INVERSE_RULES_H_
