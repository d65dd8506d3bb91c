/// \file
/// Umbrella header of the `cq` module: conjunctive queries (CQs), the value
/// type every other module manipulates. A Query is a head atom plus a bag of
/// body atoms over a shared Catalog, optionally extended with built-in
/// comparisons (<, <=, =, !=). Invariants: every query refers to exactly one
/// Catalog for predicate names/arities; variables are dense local ids
/// 0..num_vars()-1; Validate() enforces safety (every head variable occurs
/// in an ordinary body atom). The module has no dependencies beyond `util`
/// — containment, rewriting, and evaluation all build on top of it.

#ifndef AQV_CQ_QUERY_H_
#define AQV_CQ_QUERY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cq/atom.h"
#include "cq/catalog.h"
#include "cq/comparison.h"
#include "cq/term.h"
#include "util/status.h"

namespace aqv {

/// \brief A conjunctive query (CQ), optionally with built-in comparisons:
///
///   h(X̄) :- p1(t̄1), ..., pn(t̄n), c1, ..., cm.
///
/// Variables are dense local ids 0..num_vars()-1 with printable names.
/// The head is a single atom whose predicate is intensional in the Catalog.
/// Queries are value types; copying is cheap enough for the search
/// algorithms, which duplicate candidate queries freely.
class Query {
 public:
  Query() : catalog_(nullptr) {}
  explicit Query(const Catalog* catalog) : catalog_(catalog) {}

  // --- construction -------------------------------------------------------

  /// Adds a variable with the given printable name; returns its id.
  VarId AddVariable(std::string name);

  /// Adds `count` fresh variables named `<prefix>0..`; returns first id.
  VarId AddVariables(int count, std::string_view prefix);

  void set_head(Atom head) { head_ = std::move(head); }
  void AddBodyAtom(Atom atom) { body_.push_back(std::move(atom)); }
  void AddComparison(Comparison c) { comparisons_.push_back(c); }

  /// Removes the body atom at `index` (order of the rest preserved).
  void RemoveBodyAtom(int index);

  // --- accessors -----------------------------------------------------------

  const Catalog* catalog() const { return catalog_; }
  const Atom& head() const { return head_; }
  const std::vector<Atom>& body() const { return body_; }
  const std::vector<Comparison>& comparisons() const { return comparisons_; }
  bool has_comparisons() const { return !comparisons_.empty(); }
  int num_vars() const { return static_cast<int>(var_names_.size()); }
  const std::vector<std::string>& var_names() const { return var_names_; }
  const std::string& var_name(VarId v) const { return var_names_[v]; }

  // --- derived structure ---------------------------------------------------

  /// Distinct head variables in order of first appearance in the head.
  std::vector<VarId> HeadVars() const;

  /// distinguished[v] == true iff variable v occurs in the head.
  std::vector<bool> DistinguishedMask() const;

  /// in_body[v] == true iff variable v occurs in some relational body atom.
  std::vector<bool> BodyVarMask() const;

  /// Body atom indices (into body()) in which variable v occurs.
  std::vector<std::vector<int>> VarOccurrences() const;

  /// Safety check: every head variable and every comparison variable must
  /// occur in a relational body atom; all atom arities must match the
  /// catalog; comparison constants must be numeric.
  [[nodiscard]] Status Validate() const;

  // --- rendering -----------------------------------------------------------

  /// Renders the rule, e.g. "q(X) :- r(X, Y), Y < 3.".
  std::string ToString() const;

  friend bool operator==(const Query& a, const Query& b) {
    return a.head_ == b.head_ && a.body_ == b.body_ &&
           a.comparisons_ == b.comparisons_ &&
           a.var_names_.size() == b.var_names_.size();
  }

 private:
  const Catalog* catalog_;
  Atom head_;
  std::vector<Atom> body_;
  std::vector<Comparison> comparisons_;
  std::vector<std::string> var_names_;
};

// --- catalog-independent encodings ----------------------------------------
//
// The identity layer shared server-lifetime caches key on: flat word
// sequences in which every predicate and constant appears as its
// process-global id (cq/global_symbols.h) instead of its catalog-local
// dense id. Two queries parsed into *different* catalogs from the same
// surface text produce identical encodings, so a cache keyed on them is
// shared across the short-lived per-connection catalogs of the frontend
// server — and entry confirmation is plain vector equality, with no
// catalog pointer (and hence no catalog-lifetime contract) involved.
// Equal canonical encodings imply the queries are isomorphic under the
// meaning-preserving symbol bijection, so every containment decision, and
// every rewriting over equally-encoded view sets, transfers exactly.

/// Verbatim (order- and renaming-sensitive) catalog-independent encoding:
/// head, body atoms in input order, comparisons in input order, variable
/// ids as-is, symbols as global ids. The analogue of operator== across
/// catalogs: equal raw encodings imply globally-identical structure.
std::vector<uint64_t> GlobalRawEncoding(const Query& q);

/// Canonical catalog-independent encoding — the one identity of a query
/// up to variable renaming, body order and duplicate atoms. Variables are
/// coloured by colour refinement (head position and comparison
/// participation seed the colours), body atoms are sorted by (global
/// predicate id, argument colours), exact duplicates are dropped, and
/// variables are renumbered densely by first appearance (head, sorted
/// body, sorted comparisons); the result is emitted as a flat word
/// sequence. Equal encodings imply isomorphic queries (up to duplicate
/// atoms) with identical predicate meanings and constants. The converse is
/// best-effort: colour ties keep input order, so automorphism-rich queries
/// that refinement cannot discriminate may encode differently — a missed
/// match, never a wrong one.
std::vector<uint64_t> GlobalCanonicalEncoding(const Query& q);

/// FNV-1a over an encoding's words (the cache-key hash for either
/// encoding flavor).
uint64_t HashWords(const std::vector<uint64_t>& words);

/// \brief A union of conjunctive queries with a common head predicate.
///
/// The output representation for maximally-contained rewritings (Bucket,
/// MiniCon) and for interleaving-based expansions.
struct UnionQuery {
  std::vector<Query> disjuncts;

  bool empty() const { return disjuncts.empty(); }
  int size() const { return static_cast<int>(disjuncts.size()); }
  std::string ToString() const;
};

}  // namespace aqv

#endif  // AQV_CQ_QUERY_H_
