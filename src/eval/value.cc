#include "eval/value.h"

#include <algorithm>

#include "util/hash.h"

namespace aqv {

Value ValueOfConstant(const Catalog& catalog, ConstId id) {
  const ConstInfo& info = catalog.constant(id);
  if (info.numeric.has_value()) return *info.numeric;
  return SymbolicValue(id);
}

namespace {

uint64_t SkolemHash(int fn, const Value* args, size_t n) {
  Fnv1a h;
  h.Mix(static_cast<uint64_t>(fn));
  for (size_t i = 0; i < n; ++i) h.Mix(static_cast<uint64_t>(args[i]));
  return h.hash();
}

}  // namespace

Value SkolemTable::Intern(int fn, const Value* args, size_t n) {
  uint32_t found = index_.Find(SkolemHash(fn, args, n), [&](uint32_t id) {
    return fns_[id] == fn && starts_[id + 1] - starts_[id] == n &&
           std::equal(args, args + n, args_.begin() + starts_[id]);
  });
  if (found == IdTable::kNone) {
    found = static_cast<uint32_t>(fns_.size());
    fns_.push_back(fn);
    args_.insert(args_.end(), args, args + n);
    starts_.push_back(args_.size());
    index_.Insert(found, [this](uint32_t id) {
      return SkolemHash(fns_[id], args_.data() + starts_[id],
                        starts_[id + 1] - starts_[id]);
    });
  }
  return kSkolemBase - static_cast<Value>(found);
}

SkolemTable::Entry SkolemTable::entry(Value v) const {
  size_t id = static_cast<size_t>(kSkolemBase - v);
  return Entry{fns_[id], std::vector<Value>(args_.begin() + starts_[id],
                                            args_.begin() + starts_[id + 1])};
}

std::string ValueToString(const Catalog& catalog, Value v,
                          const SkolemTable* skolems) {
  if (IsSymbolic(v)) {
    ConstId id = static_cast<ConstId>(v - kSymbolicBase);
    if (id >= 0 && id < catalog.num_constants()) {
      return catalog.constant(id).name;
    }
    return "?sym" + std::to_string(id);
  }
  if (IsSkolem(v)) {
    size_t idx = static_cast<size_t>(kSkolemBase - v);
    if (skolems != nullptr && idx < skolems->size()) {
      SkolemTable::Entry e = skolems->entry(v);
      std::string out = "f" + std::to_string(e.fn) + "(";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ",";
        out += ValueToString(catalog, e.args[i], skolems);
      }
      return out + ")";
    }
    return "sk" + std::to_string(idx);
  }
  return std::to_string(v);
}

}  // namespace aqv
