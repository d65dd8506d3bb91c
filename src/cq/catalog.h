#ifndef AQV_CQ_CATALOG_H_
#define AQV_CQ_CATALOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cq/global_symbols.h"
#include "cq/term.h"
#include "util/interner.h"
#include "util/status.h"

namespace aqv {

/// Whether a predicate names stored data (extensional) or is defined by a
/// rule head — a query or view name (intensional).
enum class PredKind : uint8_t {
  kExtensional = 0,
  kIntensional = 1,
};

/// Metadata for one predicate symbol. `global` is the process-wide id of
/// the (name, arity) meaning (cq/global_symbols.h): equal across catalogs,
/// the identity the catalog-independent encodings (cq/query.h) key on.
struct PredInfo {
  std::string name;
  int arity = 0;
  PredKind kind = PredKind::kExtensional;
  GlobalId global = -1;
};

/// Metadata for one constant symbol. `numeric` is set when the constant was
/// written as an integer literal; comparison predicates require numeric or
/// symbolic consistency (see comparison_containment). `global` is the
/// process-wide id of the source text (cq/global_symbols.h).
struct ConstInfo {
  std::string name;
  std::optional<int64_t> numeric;
  GlobalId global = -1;
};

/// \brief Symbol tables shared by every query, view, and database instance
/// of one rewriting problem.
///
/// The Catalog owns predicate symbols (name, arity, kind) and constant
/// symbols. Queries store only dense ids into it. Not thread-safe: one
/// Catalog per problem instance.
class Catalog {
 public:
  /// Registers `name` with `arity`, or returns the existing id.
  /// Fails with kInvalidArgument if `name` exists with a different arity.
  [[nodiscard]] Result<PredId> GetOrAddPredicate(std::string_view name, int arity,
                                   PredKind kind = PredKind::kExtensional);

  /// Returns the id of `name`, or kNotFound.
  [[nodiscard]] Result<PredId> FindPredicate(std::string_view name) const;

  /// Marks an existing predicate intensional (used when a parsed rule head
  /// re-uses a previously body-only symbol).
  void SetPredKind(PredId id, PredKind kind) { preds_[id].kind = kind; }

  const PredInfo& pred(PredId id) const { return preds_[id]; }
  int32_t num_predicates() const { return static_cast<int32_t>(preds_.size()); }

  /// Process-global id of predicate `id`'s meaning (name, arity).
  GlobalId pred_global(PredId id) const { return preds_[id].global; }
  /// Process-global id of constant `id`'s meaning (source text).
  GlobalId const_global(ConstId id) const { return consts_[id].global; }

  /// Interns a symbolic or numeric constant by its source text. Text that
  /// parses entirely as a (possibly negative) decimal integer becomes a
  /// numeric constant.
  ConstId InternConstant(std::string_view text);

  /// Interns the canonical text of an integer value.
  ConstId InternNumericConstant(int64_t value);

  /// Interns a fresh constant unused by any query so far (for freezing
  /// queries into canonical databases). Prefix appears in its name.
  ConstId FreshConstant(std::string_view prefix);

  const ConstInfo& constant(ConstId id) const { return consts_[id]; }
  int32_t num_constants() const { return static_cast<int32_t>(consts_.size()); }

 private:
  Interner pred_names_;
  std::vector<PredInfo> preds_;
  Interner const_names_;
  std::vector<ConstInfo> consts_;
  int64_t fresh_counter_ = 0;
};

}  // namespace aqv

#endif  // AQV_CQ_CATALOG_H_
