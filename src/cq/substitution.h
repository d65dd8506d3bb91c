#ifndef AQV_CQ_SUBSTITUTION_H_
#define AQV_CQ_SUBSTITUTION_H_

#include <optional>
#include <vector>

#include "cq/atom.h"
#include "cq/query.h"
#include "cq/term.h"

namespace aqv {

/// \brief A partial mapping from variables (of a fixed source query) to
/// terms (of a target query), the workhorse of homomorphism search and
/// unification.
///
/// Stored as a flat vector indexed by VarId so bind/lookup are O(1); the
/// trail-based Checkpoint/Rollback pair supports cheap backtracking.
class Substitution {
 public:
  /// Reserves the trail up front: a search binds each variable at most
  /// once between rollbacks, so the trail never outgrows the variables.
  explicit Substitution(int num_source_vars) : bindings_(num_source_vars) {
    trail_.reserve(num_source_vars);
  }

  int num_source_vars() const { return static_cast<int>(bindings_.size()); }

  bool IsBound(VarId v) const { return bindings_[v].has_value(); }
  Term Get(VarId v) const { return *bindings_[v]; }

  /// Binds `v` to `t` and records it on the trail. Precondition: unbound.
  void Bind(VarId v, Term t) {
    bindings_[v] = t;
    trail_.push_back(v);
  }

  /// Attempts to bind or confirm `v == t`. Returns false on clash.
  bool BindOrCheck(VarId v, Term t) {
    if (IsBound(v)) return Get(v) == t;
    Bind(v, t);
    return true;
  }

  /// Applies the substitution to a term. Unbound variables map to
  /// themselves (useful only when source and target var spaces coincide).
  Term Apply(Term t) const {
    if (t.is_var() && IsBound(t.var())) return Get(t.var());
    return t;
  }

  /// Applies the substitution to every argument of `a`.
  Atom ApplyToAtom(const Atom& a) const;

  /// Trail position for later rollback.
  size_t Checkpoint() const { return trail_.size(); }

  /// Unbinds everything recorded after `checkpoint`.
  void Rollback(size_t checkpoint) {
    while (trail_.size() > checkpoint) {
      bindings_[trail_.back()].reset();
      trail_.pop_back();
    }
  }

 private:
  std::vector<std::optional<Term>> bindings_;
  std::vector<VarId> trail_;
};

/// \brief Variable-space importer used when splicing one query's atoms into
/// another (expansion, candidate construction, hardness reductions).
///
/// Lazily adds a target variable per source variable; constants pass through.
class VarImporter {
 public:
  /// `tag` prefixes imported variable names to keep ToString readable.
  VarImporter(const Query& source, Query* target, std::string tag);

  /// The target term for source term `t`.
  Term Map(Term t);

  /// Pre-binds source variable `v` to an existing target term (used to
  /// identify view head variables with rewriting arguments before import).
  void Preset(VarId v, Term target_term);

  /// True if source variable `v` already has a target term.
  bool HasMapping(VarId v) const { return map_[v].has_value(); }

  /// Imports an atom, mapping every argument.
  Atom ImportAtom(const Atom& a);

  /// Imports a comparison literal.
  Comparison ImportComparison(const Comparison& c);

 private:
  const Query& source_;
  Query* target_;
  std::string tag_;
  std::vector<std::optional<Term>> map_;
};

/// Returns `q` with its variables renamed to fresh names `<prefix><i>`;
/// structure otherwise identical. Used to standardize queries apart.
Query RenameVariables(const Query& q, std::string_view prefix);

}  // namespace aqv

#endif  // AQV_CQ_SUBSTITUTION_H_
