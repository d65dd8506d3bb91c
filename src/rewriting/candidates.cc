#include "rewriting/candidates.h"

#include <algorithm>
#include <map>
#include <set>

#include "containment/comparison_containment.h"
#include "containment/homomorphism.h"
#include "containment/minimize.h"
#include "rewriting/pipeline.h"
#include "rewriting/two_space_unifier.h"
#include "util/hash.h"

namespace aqv {

std::string ViewAtomCandidate::ToString(const Query& q) const {
  std::string out =
      view != nullptr ? view->name() : q.catalog()->pred(atom.pred).name;
  out += '(';
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ", ";
    Term t = atom.args[i];
    if (t.is_const()) {
      out += q.catalog()->constant(t.constant()).name;
    } else if (t.var() < q.num_vars()) {
      out += q.var_name(t.var());
    } else {
      out += "_f" + std::to_string(t.var() - q.num_vars());
    }
  }
  out += ")[covers";
  for (int c : covered) out += " " + std::to_string(c);
  out += ']';
  return out;
}

namespace {

std::vector<std::pair<VarId, Term>> SortedEqualities(
    const std::vector<std::pair<VarId, Term>>& eqs) {
  std::vector<std::pair<VarId, Term>> sorted = eqs;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return sorted;
}

}  // namespace

uint64_t ViewAtomCandidate::Fingerprint() const {
  Fnv1a h;
  h.Mix(static_cast<uint64_t>(atom.pred));
  for (Term t : atom.args) h.Mix(t.Pack());
  h.Mix(0x9e3779b97f4a7c15ULL);
  for (auto [v, t] : SortedEqualities(induced_equalities)) {
    h.Mix(static_cast<uint64_t>(v));
    h.Mix(t.Pack());
  }
  h.Mix(0x517cc1b727220a95ULL);
  for (int c : covered) h.Mix(static_cast<uint64_t>(c));
  return h.hash();
}

bool operator==(const ViewAtomCandidate& a, const ViewAtomCandidate& b) {
  return a.atom == b.atom && a.covered == b.covered &&
         SortedEqualities(a.induced_equalities) ==
             SortedEqualities(b.induced_equalities);
}

Result<std::vector<ViewAtomCandidate>> CanonicalViewTuples(
    const Query& q, const ViewSet& views, const CandidateOptions& options) {
  if (q.body().size() > 64) {
    return Status::Unimplemented(
        "query has " + std::to_string(q.body().size()) +
        " body atoms; candidate covered-set bitmasks are 64-bit");
  }
  std::vector<ViewAtomCandidate> out;
  CandidateDeduper seen;
  HomSearchOptions hopts;
  hopts.node_budget = options.node_budget;
  hopts.map_head = false;

  for (const View& view : views.views()) {
    const Query& def = view.definition;
    bool over_budget = false;
    uint64_t homs_visited = 0;
    auto cb = [&](const Substitution& rho) {
      if (options.max_homs_per_view != 0 &&
          ++homs_visited > options.max_homs_per_view) {
        return false;  // silent per-view cap; see CandidateOptions
      }
      ViewAtomCandidate cand;
      cand.view = &view;
      // Head args under rho; safety guarantees all head vars are bound.
      Atom head = def.head();
      for (Term& t : head.args) t = rho.Apply(t);
      cand.atom = std::move(head);
      // Covered set: which Q atoms the view body lands on.
      std::set<int> covered;
      for (const Atom& b : def.body()) {
        Atom image = rho.ApplyToAtom(b);
        for (int i = 0; i < static_cast<int>(q.body().size()); ++i) {
          if (q.body()[i] == image) covered.insert(i);
        }
      }
      cand.covered.assign(covered.begin(), covered.end());
      for (int i : cand.covered) cand.covered_mask |= uint64_t{1} << i;
      if (seen.insert(cand).second) {
        out.push_back(std::move(cand));
      }
      if (out.size() >= options.max_candidates) {
        over_budget = true;
        return false;
      }
      return true;
    };
    AQV_ASSIGN_OR_RETURN(int64_t n, ForEachHomomorphism(def, q, hopts, cb));
    (void)n;
    if (over_budget) {
      return Status::ResourceExhausted(
          "candidate pool exceeded max_candidates=" +
          std::to_string(options.max_candidates));
    }
  }
  return out;
}

std::optional<Query> BuildRewriting(
    const Query& q, const std::vector<const ViewAtomCandidate*>& picks,
    bool include_comparisons) {
  Query r(q.catalog());
  for (int v = 0; v < q.num_vars(); ++v) r.AddVariable(q.var_name(v));
  r.set_head(q.head());

  int fresh_base = q.num_vars();
  for (const ViewAtomCandidate* pick : picks) {
    Atom a = pick->atom;
    // Remap candidate-local fresh vars into this rewriting's var space.
    for (Term& t : a.args) {
      if (t.is_var() && t.var() >= q.num_vars()) {
        int local = t.var() - q.num_vars();
        while (r.num_vars() < fresh_base + local + 1) {
          r.AddVariable("F" + std::to_string(r.num_vars()));
        }
        t = Term::Var(fresh_base + local);
      }
    }
    r.AddBodyAtom(std::move(a));
    for (auto [v, t] : pick->induced_equalities) {
      r.AddComparison(Comparison(CmpOp::kEq, Term::Var(v), t));
    }
    fresh_base += pick->num_fresh;
  }
  if (include_comparisons) {
    for (const Comparison& c : q.comparisons()) r.AddComparison(c);
  }

  bool unsat = false;
  Query normalized = NormalizeEqualities(r, &unsat);
  if (unsat) return std::nullopt;

  // Residual comparisons over variables the rewriting cannot see are
  // dropped: the covering view enforces them internally, and the caller's
  // containment/equivalence check remains the arbiter of correctness.
  std::vector<bool> in_body_pre(normalized.num_vars(), false);
  for (const Atom& a : normalized.body()) {
    for (Term t : a.args) {
      if (t.is_var()) in_body_pre[t.var()] = true;
    }
  }
  Query filtered(normalized.catalog());
  for (int v = 0; v < normalized.num_vars(); ++v) {
    filtered.AddVariable(normalized.var_name(v));
  }
  filtered.set_head(normalized.head());
  for (const Atom& a : normalized.body()) filtered.AddBodyAtom(a);
  for (const Comparison& c : normalized.comparisons()) {
    bool visible = true;
    for (Term t : {c.lhs, c.rhs}) {
      if (t.is_var() && !in_body_pre[t.var()]) visible = false;
    }
    if (visible) filtered.AddComparison(c);
  }
  Query compact = CompactVariables(filtered);

  // Safety: every head variable must appear in the body.
  std::vector<bool> in_body(compact.num_vars(), false);
  for (const Atom& a : compact.body()) {
    for (Term t : a.args) {
      if (t.is_var()) in_body[t.var()] = true;
    }
  }
  for (Term t : compact.head().args) {
    if (t.is_var() && !in_body[t.var()]) return std::nullopt;
  }
  return compact;
}

std::optional<ViewAtomCandidate> MakeCandidateFromUnifier(
    const Query& q, const View& view, const TwoSpaceUnifier& unifier,
    std::vector<int> covered, bool require_distinguished_exposed) {
  const Query& def = view.definition;

  // A class is "exposed" if it carries a constant or a view head variable.
  std::vector<bool> head_var(def.num_vars(), false);
  for (Term t : def.head().args) {
    if (t.is_var()) head_var[t.var()] = true;
  }

  // Legality: the unification may never constrain the view's *internal*
  // structure. A class holding an existential view variable together with
  // any other view variable (or a pinned constant) would demand an equality
  // inside the view body that no rewriting can enforce — such candidates
  // are unsound for the check-free MiniCon combination and useless for
  // Bucket. (Several *distinguished* view variables in one class are fine:
  // repeating the argument in the view atom enforces that equality.)
  {
    std::set<int> checked_classes;
    for (int node = 0; node < unifier.num_nodes(); ++node) {
      int rep = unifier.Find(node);
      if (!checked_classes.insert(rep).second) continue;
      int view_vars = 0;
      int existential_view_vars = 0;
      for (int m : unifier.ClassMembers(rep)) {
        if (m >= q.num_vars()) {
          ++view_vars;
          if (!head_var[m - q.num_vars()]) ++existential_view_vars;
        }
      }
      if (existential_view_vars > 0 &&
          (view_vars > 1 || unifier.PinnedConst(rep).has_value())) {
        return std::nullopt;
      }
    }
  }
  auto exposed = [&](int node) {
    if (unifier.PinnedConst(node).has_value()) return true;
    for (int m : unifier.ClassMembers(node)) {
      if (m >= q.num_vars() && head_var[m - q.num_vars()]) return true;
    }
    return false;
  };

  if (require_distinguished_exposed) {
    std::vector<bool> distinguished = q.DistinguishedMask();
    for (int gi : covered) {
      for (Term t : q.body()[gi].args) {
        if (t.is_var() && distinguished[t.var()] &&
            !exposed(unifier.NodeOfQVar(t.var()))) {
          return std::nullopt;
        }
      }
    }
  }

  ViewAtomCandidate cand;
  cand.view = &view;
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
  cand.covered = std::move(covered);
  for (int i : cand.covered) cand.covered_mask |= uint64_t{1} << i;

  // Head args per class: pinned constant > smallest query var > fresh.
  std::map<int, Term> class_term;
  auto term_for_class = [&](int node) -> Term {
    int rep = unifier.Find(node);
    auto it = class_term.find(rep);
    if (it != class_term.end()) return it->second;
    Term result = Term::Var(-1);
    std::optional<Term> pinned = unifier.PinnedConst(rep);
    if (pinned.has_value()) {
      result = *pinned;
    } else {
      std::vector<VarId> qvars = unifier.QVarsInClass(rep);
      if (!qvars.empty()) {
        result = Term::Var(qvars.front());
      } else {
        result = Term::Var(q.num_vars() + cand.num_fresh);
        ++cand.num_fresh;
      }
    }
    class_term.emplace(rep, result);
    return result;
  };

  Atom atom(def.head().pred, {});
  for (Term t : def.head().args) {
    if (t.is_const()) {
      atom.args.push_back(t);
    } else {
      atom.args.push_back(term_for_class(unifier.NodeOfVVar(t.var())));
    }
  }
  cand.atom = std::move(atom);

  // Induced equalities from classes identifying query variables.
  std::set<int> done;
  for (VarId v = 0; v < q.num_vars(); ++v) {
    int rep = unifier.Find(unifier.NodeOfQVar(v));
    if (!done.insert(rep).second) continue;
    std::vector<VarId> qvars = unifier.QVarsInClass(rep);
    std::optional<Term> pinned = unifier.PinnedConst(rep);
    if (pinned.has_value()) {
      for (VarId x : qvars) cand.induced_equalities.push_back({x, *pinned});
    } else if (qvars.size() >= 2) {
      for (size_t i = 1; i < qvars.size(); ++i) {
        cand.induced_equalities.push_back({qvars[i], Term::Var(qvars[0])});
      }
    }
  }
  return cand;
}

}  // namespace aqv
