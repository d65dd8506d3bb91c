#include "cq/query.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>

#include "util/hash.h"

namespace aqv {

VarId Query::AddVariable(std::string name) {
  var_names_.push_back(std::move(name));
  return static_cast<VarId>(var_names_.size()) - 1;
}

VarId Query::AddVariables(int count, std::string_view prefix) {
  VarId first = static_cast<VarId>(var_names_.size());
  for (int i = 0; i < count; ++i) {
    var_names_.push_back(std::string(prefix) + std::to_string(i));
  }
  return first;
}

void Query::RemoveBodyAtom(int index) {
  body_.erase(body_.begin() + index);
}

std::vector<VarId> Query::HeadVars() const {
  std::vector<VarId> out;
  std::vector<bool> seen(var_names_.size(), false);
  for (Term t : head_.args) {
    if (t.is_var() && !seen[t.var()]) {
      seen[t.var()] = true;
      out.push_back(t.var());
    }
  }
  return out;
}

std::vector<bool> Query::DistinguishedMask() const {
  std::vector<bool> mask(var_names_.size(), false);
  for (Term t : head_.args) {
    if (t.is_var()) mask[t.var()] = true;
  }
  return mask;
}

std::vector<bool> Query::BodyVarMask() const {
  std::vector<bool> mask(var_names_.size(), false);
  for (const Atom& a : body_) {
    for (Term t : a.args) {
      if (t.is_var()) mask[t.var()] = true;
    }
  }
  return mask;
}

std::vector<std::vector<int>> Query::VarOccurrences() const {
  std::vector<std::vector<int>> occ(var_names_.size());
  for (int i = 0; i < static_cast<int>(body_.size()); ++i) {
    for (Term t : body_[i].args) {
      if (t.is_var()) {
        auto& v = occ[t.var()];
        if (v.empty() || v.back() != i) v.push_back(i);
      }
    }
  }
  return occ;
}

Status Query::Validate() const {
  if (catalog_ == nullptr) return Status::InvalidArgument("query has no catalog");
  if (head_.pred < 0) return Status::InvalidArgument("query has no head");
  auto check_atom = [&](const Atom& a) -> Status {
    if (a.pred < 0 || a.pred >= catalog_->num_predicates()) {
      return Status::InvalidArgument("atom references unknown predicate id");
    }
    if (a.arity() != catalog_->pred(a.pred).arity) {
      return Status::InvalidArgument(
          "atom arity mismatch for predicate '" + catalog_->pred(a.pred).name +
          "': got " + std::to_string(a.arity()) + ", declared " +
          std::to_string(catalog_->pred(a.pred).arity));
    }
    for (Term t : a.args) {
      if (t.is_var() && (t.var() < 0 || t.var() >= num_vars())) {
        return Status::InvalidArgument("atom references out-of-range variable");
      }
    }
    return Status::OK();
  };
  AQV_RETURN_NOT_OK(check_atom(head_));
  for (const Atom& a : body_) AQV_RETURN_NOT_OK(check_atom(a));

  std::vector<bool> in_body = BodyVarMask();
  for (Term t : head_.args) {
    if (t.is_var() && !in_body[t.var()]) {
      return Status::InvalidArgument("unsafe head variable '" +
                                     var_names_[t.var()] + "'");
    }
  }
  for (const Comparison& c : comparisons_) {
    for (Term t : {c.lhs, c.rhs}) {
      if (t.is_var()) {
        if (t.var() < 0 || t.var() >= num_vars() || !in_body[t.var()]) {
          return Status::InvalidArgument(
              "comparison uses variable not bound in the body");
        }
      } else if (!catalog_->constant(t.constant()).numeric.has_value()) {
        return Status::InvalidArgument(
            "comparison uses non-numeric constant '" +
            catalog_->constant(t.constant()).name + "'");
      }
    }
  }
  return Status::OK();
}

std::string Query::ToString() const {
  std::string out = head_.ToString(*catalog_, var_names_);
  out += " :- ";
  bool first = true;
  for (const Atom& a : body_) {
    if (!first) out += ", ";
    first = false;
    out += a.ToString(*catalog_, var_names_);
  }
  for (const Comparison& c : comparisons_) {
    if (!first) out += ", ";
    first = false;
    out += c.ToString(*catalog_, var_names_);
  }
  out += '.';
  return out;
}

namespace {

constexpr uint64_t kConstTag = 0x517cc1b727220a95ULL;
constexpr uint64_t kVarTag = 0x2545f4914f6cdd1dULL;

// Symbol-key policies for the colour-refinement machinery and encoders.
// LocalKeys feeds catalog-local dense ids (CanonicalForm / Fingerprint —
// identities confined to one catalog); GlobalKeys feeds
// process-global interned ids (the catalog-independent encodings shared
// caches key on). Null-catalog queries fall back to local ids so the
// default-constructed Query stays safe to hash.
struct LocalKeys {
  uint64_t pred(const Query&, PredId p) const {
    return static_cast<uint64_t>(p);
  }
  uint64_t cst(const Query&, ConstId c) const {
    return static_cast<uint64_t>(c);
  }
};
struct GlobalKeys {
  uint64_t pred(const Query& q, PredId p) const {
    if (q.catalog() == nullptr || p < 0) return static_cast<uint64_t>(p);
    return static_cast<uint64_t>(q.catalog()->pred_global(p));
  }
  uint64_t cst(const Query& q, ConstId c) const {
    if (q.catalog() == nullptr || c < 0) return static_cast<uint64_t>(c);
    return static_cast<uint64_t>(q.catalog()->const_global(c));
  }
};

// One round of colour refinement: each variable's colour becomes a hash of
// its old colour together with the multiset of (pred, position, old colours
// of co-occurring terms) contexts it appears in.
template <typename Keys>
void RefineColors(const Query& q, const Keys& keys,
                  std::vector<uint64_t>* colors) {
  auto term_color = [&](Term t) -> uint64_t {
    if (t.is_const()) return kConstTag ^ keys.cst(q, t.constant());
    return (*colors)[t.var()];
  };
  std::vector<std::vector<uint64_t>> contexts(colors->size());
  for (const Atom& a : q.body()) {
    for (int i = 0; i < a.arity(); ++i) {
      if (!a.args[i].is_var()) continue;
      Fnv1a h;
      h.Mix(keys.pred(q, a.pred));
      h.Mix(static_cast<uint64_t>(i));
      for (int j = 0; j < a.arity(); ++j) h.Mix(term_color(a.args[j]));
      contexts[a.args[i].var()].push_back(h.hash());
    }
  }
  for (size_t v = 0; v < colors->size(); ++v) {
    std::sort(contexts[v].begin(), contexts[v].end());
    Fnv1a h((*colors)[v] * 0x9e3779b97f4a7c15ULL);
    for (uint64_t c : contexts[v]) h.Mix(c);
    (*colors)[v] = h.hash();
  }
}

// Colour-refinement variable colours shared by CanonicalForm, Fingerprint,
// and the catalog-independent encodings. Initial colours:
// distinguished variables keyed by head position so that head-permutations
// are distinguished; existential variables uniform; comparison
// participation feeds colours too.
template <typename Keys>
std::vector<uint64_t> ComputeVarColors(const Query& q, const Keys& keys) {
  std::vector<uint64_t> colors(q.num_vars(), kVarTag);
  for (size_t i = 0; i < q.head().args.size(); ++i) {
    if (q.head().args[i].is_var()) {
      colors[q.head().args[i].var()] ^= (i + 1) * 0xff51afd7ed558ccdULL;
    }
  }
  for (const Comparison& c : q.comparisons()) {
    auto mixin = [&](Term t, uint64_t tag) {
      if (t.is_var()) colors[t.var()] ^= tag;
    };
    mixin(c.lhs, 0xc4ceb9fe1a85ec53ULL * (static_cast<uint64_t>(c.op) + 1));
    mixin(c.rhs, 0xb492b66fbe98f273ULL * (static_cast<uint64_t>(c.op) + 1));
  }
  for (int round = 0; round < 3; ++round) RefineColors(q, keys, &colors);
  return colors;
}

}  // namespace

Query Query::CanonicalForm() const {
  std::vector<uint64_t> colors = ComputeVarColors(*this, LocalKeys{});
  auto term_key = [&](Term t) -> std::pair<uint64_t, uint64_t> {
    if (t.is_const()) return {1, static_cast<uint64_t>(t.constant())};
    return {0, colors[t.var()]};
  };

  // Body order: sort indices by (pred, arg keys); exact duplicates collapse
  // later (set semantics). Ties between distinct atoms
  // the colours cannot separate keep input order — deterministic, merely
  // not canonical across every isomorphism.
  std::vector<int> order(body_.size());
  for (size_t i = 0; i < body_.size(); ++i) order[i] = static_cast<int>(i);
  auto atom_key = [&](int i) {
    std::vector<std::pair<uint64_t, uint64_t>> k;
    k.reserve(body_[i].args.size() + 1);
    k.push_back({0, static_cast<uint64_t>(body_[i].pred)});
    for (Term t : body_[i].args) k.push_back(term_key(t));
    return k;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return atom_key(a) < atom_key(b); });

  std::vector<int> cmp_order(comparisons_.size());
  for (size_t i = 0; i < comparisons_.size(); ++i) {
    cmp_order[i] = static_cast<int>(i);
  }
  auto cmp_key = [&](int i) {
    const Comparison& c = comparisons_[i];
    return std::tuple(static_cast<int>(c.op), term_key(c.lhs),
                      term_key(c.rhs));
  };
  std::stable_sort(cmp_order.begin(), cmp_order.end(),
                   [&](int a, int b) { return cmp_key(a) < cmp_key(b); });

  // Renumber variables by first appearance: head, sorted body, sorted
  // comparisons. Variables occurring nowhere are dropped.
  Query out(catalog_);
  std::vector<VarId> remap(var_names_.size(), -1);
  auto renumber = [&](Term t) -> Term {
    if (t.is_const()) return t;
    if (remap[t.var()] < 0) {
      remap[t.var()] = out.AddVariable("C" + std::to_string(out.num_vars()));
    }
    return Term::Var(remap[t.var()]);
  };
  Atom head = head_;
  for (Term& t : head.args) t = renumber(t);
  out.set_head(std::move(head));
  for (int i : order) {
    Atom a = body_[i];
    for (Term& t : a.args) t = renumber(t);
    bool dup = false;
    for (const Atom& prev : out.body()) {
      if (prev == a) dup = true;
    }
    if (!dup) out.AddBodyAtom(std::move(a));
  }
  for (int i : cmp_order) {
    Comparison c = comparisons_[i];
    c.lhs = renumber(c.lhs);
    c.rhs = renumber(c.rhs);
    out.AddComparison(c);
  }
  return out;
}

uint64_t StructuralHash(const Query& q) {
  Fnv1a h;
  auto mix_term = [&](Term t) {
    if (t.is_const()) {
      h.Mix(0x517cc1b727220a95ULL);
      h.Mix(static_cast<uint64_t>(t.constant()));
    } else {
      h.Mix(0x2545f4914f6cdd1dULL);
      h.Mix(static_cast<uint64_t>(t.var()));
    }
  };
  h.Mix(static_cast<uint64_t>(q.head().pred));
  for (Term t : q.head().args) mix_term(t);
  h.Mix(q.body().size());
  for (const Atom& a : q.body()) {
    h.Mix(static_cast<uint64_t>(a.pred));
    for (Term t : a.args) mix_term(t);
  }
  h.Mix(q.comparisons().size());
  for (const Comparison& c : q.comparisons()) {
    h.Mix(static_cast<uint64_t>(c.op));
    mix_term(c.lhs);
    mix_term(c.rhs);
  }
  return h.hash();
}

uint64_t Query::Fingerprint() const { return StructuralHash(CanonicalForm()); }

namespace {

// Flavor words keep raw and canonical encodings from ever comparing equal,
// so one cache may hold both kinds of key without ambiguity.
constexpr uint64_t kRawFlavor = 0xa0761d6478bd642fULL;
constexpr uint64_t kCanonFlavor = 0xe7037ed1a0b428dbULL;

}  // namespace

std::vector<uint64_t> GlobalRawEncoding(const Query& q) {
  GlobalKeys keys;
  std::vector<uint64_t> out;
  out.reserve(8 + 2 * q.head().args.size() + 4 * q.body().size() +
              5 * q.comparisons().size());
  auto emit_term = [&](Term t) {
    if (t.is_const()) {
      out.push_back(kConstTag);
      out.push_back(keys.cst(q, t.constant()));
    } else {
      out.push_back(kVarTag);
      out.push_back(static_cast<uint64_t>(t.var()));
    }
  };
  out.push_back(kRawFlavor);
  out.push_back(keys.pred(q, q.head().pred));
  out.push_back(q.head().args.size());
  for (Term t : q.head().args) emit_term(t);
  out.push_back(q.body().size());
  for (const Atom& a : q.body()) {
    out.push_back(keys.pred(q, a.pred));
    out.push_back(a.args.size());
    for (Term t : a.args) emit_term(t);
  }
  out.push_back(q.comparisons().size());
  for (const Comparison& c : q.comparisons()) {
    out.push_back(static_cast<uint64_t>(c.op));
    emit_term(c.lhs);
    emit_term(c.rhs);
  }
  // Mirrors operator=='s variable-count term so raw-equal implies
  // structurally interchangeable even for queries with trailing unused vars.
  out.push_back(static_cast<uint64_t>(q.num_vars()));
  return out;
}

std::vector<uint64_t> GlobalCanonicalEncoding(const Query& q) {
  GlobalKeys keys;
  std::vector<uint64_t> colors = ComputeVarColors(q, keys);
  auto term_key = [&](Term t) -> std::pair<uint64_t, uint64_t> {
    if (t.is_const()) return {1, keys.cst(q, t.constant())};
    return {0, colors[t.var()]};
  };

  // Sort body and comparisons exactly as CanonicalForm does, but by
  // global-id keys, so the order agrees across catalogs. Colour ties keep
  // input order — deterministic within a process, merely not canonical
  // across every isomorphism (the usual best-effort contract).
  const std::vector<Atom>& body = q.body();
  std::vector<int> order(body.size());
  for (size_t i = 0; i < body.size(); ++i) order[i] = static_cast<int>(i);
  auto atom_key = [&](int i) {
    std::vector<std::pair<uint64_t, uint64_t>> k;
    k.reserve(body[i].args.size() + 1);
    k.push_back({0, keys.pred(q, body[i].pred)});
    for (Term t : body[i].args) k.push_back(term_key(t));
    return k;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return atom_key(a) < atom_key(b); });

  const std::vector<Comparison>& cmps = q.comparisons();
  std::vector<int> cmp_order(cmps.size());
  for (size_t i = 0; i < cmps.size(); ++i) cmp_order[i] = static_cast<int>(i);
  auto cmp_key = [&](int i) {
    return std::tuple(static_cast<int>(cmps[i].op), term_key(cmps[i].lhs),
                      term_key(cmps[i].rhs));
  };
  std::stable_sort(cmp_order.begin(), cmp_order.end(),
                   [&](int a, int b) { return cmp_key(a) < cmp_key(b); });

  // Renumber variables by first appearance (head, sorted body, sorted
  // comparisons); drop exact duplicate atoms post-renumbering.
  std::vector<int32_t> remap(q.num_vars(), -1);
  int32_t next_var = 0;
  auto renumber = [&](Term t) -> Term {
    if (t.is_const()) return t;
    if (remap[t.var()] < 0) remap[t.var()] = next_var++;
    return Term::Var(remap[t.var()]);
  };
  Atom head = q.head();
  for (Term& t : head.args) t = renumber(t);
  std::vector<Atom> out_body;
  out_body.reserve(body.size());
  for (int i : order) {
    Atom a = body[i];
    for (Term& t : a.args) t = renumber(t);
    bool dup = false;
    for (const Atom& prev : out_body) {
      if (prev == a) dup = true;
    }
    if (!dup) out_body.push_back(std::move(a));
  }

  std::vector<uint64_t> out;
  out.reserve(8 + 2 * head.args.size() + 4 * out_body.size() +
              5 * cmps.size());
  auto emit_term = [&](Term t) {
    if (t.is_const()) {
      out.push_back(kConstTag);
      out.push_back(keys.cst(q, t.constant()));
    } else {
      out.push_back(kVarTag);
      out.push_back(static_cast<uint64_t>(t.var()));
    }
  };
  out.push_back(kCanonFlavor);
  out.push_back(keys.pred(q, head.pred));
  out.push_back(head.args.size());
  for (Term t : head.args) emit_term(t);
  out.push_back(out_body.size());
  for (const Atom& a : out_body) {
    out.push_back(keys.pred(q, a.pred));
    out.push_back(a.args.size());
    for (Term t : a.args) emit_term(t);
  }
  out.push_back(cmps.size());
  for (int i : cmp_order) {
    out.push_back(static_cast<uint64_t>(cmps[i].op));
    Comparison c = cmps[i];
    emit_term(renumber(c.lhs));
    emit_term(renumber(c.rhs));
  }
  return out;
}

uint64_t HashWords(const std::vector<uint64_t>& words) {
  Fnv1a h;
  for (uint64_t w : words) h.Mix(w);
  return h.hash();
}

uint64_t GlobalFingerprint(const Query& q) {
  return HashWords(GlobalCanonicalEncoding(q));
}

std::string UnionQuery::ToString() const {
  std::string out;
  for (const Query& q : disjuncts) {
    out += q.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace aqv
