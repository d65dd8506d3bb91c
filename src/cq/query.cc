#include "cq/query.h"

#include <algorithm>
#include <cstdint>
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

// Flavor words keep raw and canonical encodings from ever comparing equal,
// so one cache may hold both kinds of key without ambiguity.
constexpr uint64_t kRawFlavor = 0xa0761d6478bd642fULL;
constexpr uint64_t kCanonFlavor = 0xe7037ed1a0b428dbULL;

// Symbols enter colours and encodings as their process-global ids, so
// every key agrees across catalogs. A null-catalog query keeps its local
// ids, so the default-constructed Query stays safe to encode.
uint64_t PredKey(const Query& q, PredId p) {
  if (q.catalog() == nullptr || p < 0) return static_cast<uint64_t>(p);
  return static_cast<uint64_t>(q.catalog()->pred_global(p));
}

uint64_t ConstKey(const Query& q, ConstId c) {
  if (q.catalog() == nullptr || c < 0) return static_cast<uint64_t>(c);
  return static_cast<uint64_t>(q.catalog()->const_global(c));
}

// One round of colour refinement: each variable's colour becomes a hash of
// its old colour together with the multiset of (pred, position, old colours
// of co-occurring terms) contexts it appears in.
void RefineColors(const Query& q, std::vector<uint64_t>* colors) {
  auto term_color = [&](Term t) -> uint64_t {
    if (t.is_const()) return kConstTag ^ ConstKey(q, t.constant());
    return (*colors)[t.var()];
  };
  std::vector<std::vector<uint64_t>> contexts(colors->size());
  for (const Atom& a : q.body()) {
    for (int i = 0; i < a.arity(); ++i) {
      if (!a.args[i].is_var()) continue;
      Fnv1a h;
      h.Mix(PredKey(q, a.pred));
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

// Colour-refinement variable colours of the canonical encoding. Initial
// colours: distinguished variables keyed by head position so that
// head-permutations are distinguished; existential variables uniform;
// comparison participation feeds colours too.
std::vector<uint64_t> ComputeVarColors(const Query& q) {
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
  for (int round = 0; round < 3; ++round) RefineColors(q, &colors);
  return colors;
}

// The word emitter of both encodings: flavor, head, body atoms and
// comparisons in the order given, variable ids as given, symbols as
// global ids.
std::vector<uint64_t> EmitWords(const Query& q, uint64_t flavor,
                                const Atom& head, const std::vector<Atom>& body,
                                const std::vector<Comparison>& cmps) {
  std::vector<uint64_t> out;
  out.reserve(8 + 2 * head.args.size() + 4 * body.size() + 5 * cmps.size());
  auto emit_term = [&](Term t) {
    if (t.is_const()) {
      out.push_back(kConstTag);
      out.push_back(ConstKey(q, t.constant()));
    } else {
      out.push_back(kVarTag);
      out.push_back(static_cast<uint64_t>(t.var()));
    }
  };
  out.push_back(flavor);
  out.push_back(PredKey(q, head.pred));
  out.push_back(head.args.size());
  for (Term t : head.args) emit_term(t);
  out.push_back(body.size());
  for (const Atom& a : body) {
    out.push_back(PredKey(q, a.pred));
    out.push_back(a.args.size());
    for (Term t : a.args) emit_term(t);
  }
  out.push_back(cmps.size());
  for (const Comparison& c : cmps) {
    out.push_back(static_cast<uint64_t>(c.op));
    emit_term(c.lhs);
    emit_term(c.rhs);
  }
  return out;
}

}  // namespace

std::vector<uint64_t> GlobalRawEncoding(const Query& q) {
  std::vector<uint64_t> out =
      EmitWords(q, kRawFlavor, q.head(), q.body(), q.comparisons());
  // Mirrors operator=='s variable-count term so raw-equal implies
  // structurally interchangeable even for queries with trailing unused vars.
  out.push_back(static_cast<uint64_t>(q.num_vars()));
  return out;
}

std::vector<uint64_t> GlobalCanonicalEncoding(const Query& q) {
  std::vector<uint64_t> colors = ComputeVarColors(q);
  auto term_key = [&](Term t) -> std::pair<uint64_t, uint64_t> {
    if (t.is_const()) return {1, ConstKey(q, t.constant())};
    return {0, colors[t.var()]};
  };

  // Sort body and comparisons by global-id keys, so the order agrees
  // across catalogs. Colour ties keep input order — deterministic within a
  // process, merely not canonical across every isomorphism (the usual
  // best-effort contract).
  const std::vector<Atom>& body = q.body();
  std::vector<int> order(body.size());
  for (size_t i = 0; i < body.size(); ++i) order[i] = static_cast<int>(i);
  auto atom_key = [&](int i) {
    std::vector<std::pair<uint64_t, uint64_t>> k;
    k.reserve(body[i].args.size() + 1);
    k.push_back({0, PredKey(q, body[i].pred)});
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
  std::vector<Comparison> out_cmps;
  out_cmps.reserve(cmps.size());
  for (int i : cmp_order) {
    Comparison c = cmps[i];
    c.lhs = renumber(c.lhs);
    c.rhs = renumber(c.rhs);
    out_cmps.push_back(c);
  }
  return EmitWords(q, kCanonFlavor, head, out_body, out_cmps);
}

uint64_t HashWords(const std::vector<uint64_t>& words) {
  Fnv1a h;
  for (uint64_t w : words) h.Mix(w);
  return h.hash();
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
