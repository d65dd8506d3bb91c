/// \file
/// Process-global symbol interning: the name-level identity layer under
/// the catalog-independent encodings. Every Catalog remains the per-problem
/// symbol table (dense local ids indexing flat vectors), but at intern time
/// each predicate and constant is *also* registered here, yielding a
/// GlobalId that is a pure function of the symbol's meaning — (name, arity)
/// for predicates, source text for constants — shared by every catalog in
/// the process. Two queries parsed into different catalogs from the same
/// surface text therefore agree on every global id, which is what lets
/// their GlobalCanonicalEncoding (cq/query.h) — the key of the
/// containment oracle (containment/oracle.h) — match across catalogs: one
/// oracle may outlive, and serve, many short-lived catalogs.
///
/// Thread safety: catalogs are single-threaded, but distinct catalogs
/// intern concurrently (one per live server connection), so the global
/// table is mutex-guarded. Ids are assigned in first-intern order and are
/// stable for the life of the process; they are never rendered to users,
/// so the process-history dependence of their numeric values is invisible
/// (they only ever feed hashes and equality).

#ifndef AQV_CQ_GLOBAL_SYMBOLS_H_
#define AQV_CQ_GLOBAL_SYMBOLS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace aqv {

/// Process-wide id of a predicate meaning (name, arity) or a constant
/// meaning (source text). Distinct from the per-catalog dense PredId /
/// ConstId, which keep indexing flat vectors.
using GlobalId = int64_t;

/// \brief The process-global symbol table. One instance per process
/// (Instance()); all members are safe to call from any thread.
class GlobalSymbols {
 public:
  static GlobalSymbols& Instance();

  GlobalSymbols(const GlobalSymbols&) = delete;
  GlobalSymbols& operator=(const GlobalSymbols&) = delete;

  /// Global id of the predicate meaning (name, arity). The arity is part
  /// of the key: two catalogs may bind one name to different arities, and
  /// those must never alias in a shared cache.
  GlobalId PredKey(std::string_view name, int arity);

  /// Global id of the constant meaning `text` (the exact source spelling;
  /// Catalog::InternConstant derives numeric values from the same text, so
  /// equal ids imply equal values).
  GlobalId ConstKey(std::string_view text);

  /// Symbols registered so far (diagnostics).
  size_t size() const;

 private:
  GlobalSymbols() = default;

  mutable std::mutex mu_;
  std::unordered_map<std::string, GlobalId> ids_;
};

}  // namespace aqv

#endif  // AQV_CQ_GLOBAL_SYMBOLS_H_
