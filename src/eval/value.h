#ifndef AQV_EVAL_VALUE_H_
#define AQV_EVAL_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cq/catalog.h"
#include "cq/term.h"
#include "util/id_table.h"

namespace aqv {

/// \brief Runtime value of the evaluation engine: a tagged int64.
///
///   - plain numeric data values occupy the middle of the range;
///   - symbolic constants map to kSymbolicBase + ConstId;
///   - Skolem terms (inverse-rules engine) map to kSkolemBase - index,
///     i.e. the extreme negative range.
///
/// Comparisons (<, <=) are defined on plain numerics only; the evaluator
/// treats them as false otherwise. Equality is raw value equality.
using Value = int64_t;

inline constexpr Value kSymbolicBase = Value{1} << 60;
inline constexpr Value kSkolemBase = -(Value{1} << 60);

inline Value SymbolicValue(ConstId id) { return kSymbolicBase + id; }
inline bool IsSymbolic(Value v) { return v >= kSymbolicBase; }
inline bool IsSkolem(Value v) { return v <= kSkolemBase; }
inline bool IsPlainNumeric(Value v) { return !IsSymbolic(v) && !IsSkolem(v); }

/// The runtime value of a constant: its numeric value if numeric, else its
/// tagged symbolic id.
Value ValueOfConstant(const Catalog& catalog, ConstId id);

/// \brief Interning table for ground Skolem terms f_i(v1..vk) produced by
/// the inverse-rules engine. Each distinct application gets one Value in the
/// Skolem range, numbered in first-interned order, so downstream joins
/// treat unknown-but-equal values correctly.
///
/// Storage is flat: every entry's arguments sit back to back in one arena,
/// and an IdTable of entry ids indexes them, so interning allocates no
/// key per lookup.
class SkolemTable {
 public:
  struct Entry {
    int fn = -1;
    std::vector<Value> args;
  };

  /// Returns the Value for f_fn(args[0..n)), interning on first sight.
  Value Intern(int fn, const Value* args, size_t n);
  Value Intern(int fn, const std::vector<Value>& args) {
    return Intern(fn, args.data(), args.size());
  }

  /// Decodes a Skolem value into a copy of its entry. Precondition:
  /// IsSkolem(v) and v was interned here.
  Entry entry(Value v) const;

  size_t size() const { return fns_.size(); }

 private:
  /// Entry ids keyed by (fn, args).
  IdTable index_;
  /// Per entry: its function, and where its arguments start in `args_`
  /// (`starts_` has one more element, the arena's end).
  std::vector<int> fns_;
  std::vector<size_t> starts_ = {0};
  std::vector<Value> args_;
};

/// Renders a value: numerics as digits, symbolics by constant name, Skolems
/// as "f<i>(args...)" when `skolems` is provided (else "sk<idx>").
std::string ValueToString(const Catalog& catalog, Value v,
                          const SkolemTable* skolems = nullptr);

}  // namespace aqv

#endif  // AQV_EVAL_VALUE_H_
