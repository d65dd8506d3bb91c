#include "rewriting/bucket.h"

#include <algorithm>

#include "containment/homomorphism.h"
#include "cq/substitution.h"
#include "rewriting/pipeline.h"
#include "rewriting/two_space_unifier.h"
#include "views/expansion.h"

namespace aqv {

namespace {

/// Enrichments (probe homomorphisms into q) tried per combination that
/// fails its direct check.
constexpr size_t kMaxEnrichmentsPerCombination = 16;

/// Fills bucket `gi` with one entry per (view, view-subgoal) unification.
void FillBucket(const Query& q, int gi, const ViewSet& views,
                std::vector<ViewAtomCandidate>* bucket) {
  const Atom& g = q.body()[gi];
  CandidateDeduper seen;
  for (const View& view : views.views()) {
    const Query& def = view.definition;
    for (const Atom& vg : def.body()) {
      if (vg.pred != g.pred || vg.arity() != g.arity()) continue;
      TwoSpaceUnifier u(q.num_vars(), def.num_vars());
      if (!u.UnifyAtoms(g, vg)) continue;
      std::optional<ViewAtomCandidate> cand = MakeCandidateFromUnifier(
          q, view, u, {gi}, /*require_distinguished_exposed=*/true);
      if (!cand.has_value()) continue;
      if (seen.insert(*cand).second) {
        bucket->push_back(std::move(*cand));
      }
    }
  }
}

/// A bucket entry unfolded over its view definition: the view body with
/// each view head variable bound to the entry's argument at its first head
/// position. Ids below q.num_vars() are q's variables; q.num_vars() + k is
/// entry-local variable k (the entry's fresh variables, then the view's
/// existentials).
struct Unfolding {
  std::vector<Atom> atoms;
  int num_local = 0;
  /// False when the unfolding alone has no homomorphism into q with q's
  /// head fixed. The enrichment probe restricted to one pick's atoms is
  /// that pick's unfolding, so a probe holding this entry cannot map.
  bool maps_into_q = true;
};

/// The enrichment probe of a combination: q's head over the picks'
/// unfoldings, q's variables keeping their ids and each pick's locals
/// following in pick order. Homomorphisms from it into q identify fresh
/// variables with q terms (the "added join predicates" of classic Bucket).
Query BuildProbe(const Query& q,
                 const std::vector<const Unfolding*>& unfoldings) {
  Query probe(q.catalog());
  for (int v = 0; v < q.num_vars(); ++v) probe.AddVariable(q.var_name(v));
  probe.set_head(q.head());
  for (const Unfolding* u : unfoldings) {
    int offset = probe.num_vars() - q.num_vars();
    probe.AddVariables(u->num_local, "P");
    for (Atom a : u->atoms) {
      for (Term& t : a.args) {
        if (t.is_var() && t.var() >= q.num_vars()) {
          t = Term::Var(t.var() + offset);
        }
      }
      probe.AddBodyAtom(std::move(a));
    }
  }
  return probe;
}

/// Applies a probe homomorphism to the picks, yielding enriched candidates
/// whose fresh variables are replaced by q-space terms.
std::vector<ViewAtomCandidate> EnrichPicks(
    const Query& q, const std::vector<const ViewAtomCandidate*>& picks,
    const std::vector<const Unfolding*>& unfoldings, const Substitution& g) {
  std::vector<ViewAtomCandidate> out;
  int offset = 0;
  for (size_t i = 0; i < picks.size(); ++i) {
    ViewAtomCandidate e = *picks[i];
    for (Term& t : e.atom.args) {
      if (!t.is_var()) continue;
      VarId v = t.var() >= q.num_vars() ? t.var() + offset : t.var();
      if (g.IsBound(v)) t = g.Get(v);
    }
    offset += unfoldings[i]->num_local;
    e.num_fresh = 0;  // all candidate-local vars are now q terms
    out.push_back(std::move(e));
  }
  return out;
}

Result<Unfolding> Unfold(const Query& q, const ViewAtomCandidate& entry,
                         const BucketOptions& options) {
  const Query& def = entry.view->definition;
  std::vector<std::optional<Term>> bound(def.num_vars());
  for (int j = 0; j < def.head().arity(); ++j) {
    Term h = def.head().args[j];
    if (h.is_var() && !bound[h.var()].has_value()) {
      bound[h.var()] = entry.atom.args[j];
    } else if ((h.is_var() ? *bound[h.var()] : h) != entry.atom.args[j]) {
      // MakeCandidateFromUnifier builds the entry's atom from this head.
      return Status::Internal("bucket entry " + entry.ToString(q) +
                              " disagrees with the head of its view");
    }
  }
  Unfolding u;
  u.num_local = entry.num_fresh;
  for (const Atom& b : def.body()) {
    Atom a = b;
    for (Term& t : a.args) {
      if (t.is_const()) continue;
      std::optional<Term>& slot = bound[t.var()];
      if (!slot.has_value()) slot = Term::Var(q.num_vars() + u.num_local++);
      t = *slot;
    }
    u.atoms.push_back(std::move(a));
  }
  HomSearchOptions hopts;
  hopts.node_budget = options.containment.node_budget;
  Result<bool> maps = FindHomomorphism(BuildProbe(q, {&u}), q, hopts);
  // An exhausted budget decides nothing: the probe then runs and reports.
  u.maps_into_q = !maps.ok() || *maps;
  return u;
}

/// How a combination fares under BuildAndVerify's checks.
enum class Verdict { kUnbuildable, kFailed, kPassed };

/// Decides comparison-free combinations as BuildAndVerify would, without
/// building, naming, normalizing or expanding a rewriting. The picks'
/// induced equalities are unioned over q's variables, and the expansion is
/// written into reused atom buffers from the unfoldings under those
/// classes, its variables numbered by first appearance as ExpandRewriting
/// numbers them. The containment mapping is searched on those spans
/// directly, so an attached ContainmentOracle does not see these checks.
class UnfoldedCheck {
 public:
  UnfoldedCheck(const Query& q, const BucketOptions& options) : q_(q) {
    hopts_.node_budget = options.containment.node_budget;
  }

  Result<Verdict> Decide(const std::vector<const ViewAtomCandidate*>& picks,
                         const std::vector<const Unfolding*>& unfoldings) {
    const int nq = q_.num_vars();
    parent_.resize(nq);
    for (int v = 0; v < nq; ++v) parent_[v] = v;
    pinned_.assign(nq, std::nullopt);
    for (const ViewAtomCandidate* pick : picks) {
      for (auto [v, t] : pick->induced_equalities) {
        if (!Unite(v, t)) return Verdict::kUnbuildable;  // constant clash
      }
    }
    int slots = nq;
    for (const Unfolding* u : unfoldings) slots += u->num_local;
    ids_.assign(slots, -1);
    int num_vars = 0;
    // Assigns in place, so each buffer atom keeps its args' capacity.
    auto write = [&](const Atom& from, int offset, Atom* to) {
      to->pred = from.pred;
      to->args.assign(from.args.begin(), from.args.end());
      for (Term& t : to->args) {
        if (t.is_const()) continue;
        int slot = t.var() < nq ? Find(t.var()) : t.var() + offset;
        if (slot < nq && pinned_[slot].has_value()) {
          t = *pinned_[slot];
          continue;
        }
        if (ids_[slot] < 0) ids_[slot] = num_vars++;
        t = Term::Var(ids_[slot]);
      }
    };
    write(q_.head(), 0, &head_);
    int body_size = 0;
    int offset = 0;
    for (const Unfolding* u : unfoldings) {
      for (const Atom& a : u->atoms) {
        if (body_size == static_cast<int>(body_.size())) body_.emplace_back();
        write(a, offset, &body_[body_size++]);
      }
      offset += u->num_local;
    }
    // q's variables reach an unfolding only through its entry's atom (view
    // heads are safe), so this is BuildRewriting's unsafe-head test, the
    // one check of Query::Validate the assembly does not ensure.
    in_body_.assign(num_vars, false);
    for (int i = 0; i < body_size; ++i) {
      for (Term t : body_[i].args) {
        if (t.is_var()) in_body_[t.var()] = true;
      }
    }
    for (Term t : head_.args) {
      if (t.is_var() && !in_body_[t.var()]) return Verdict::kUnbuildable;
    }

    // IsContainedIn's comparison-free decision.
    const AtomSpan query = AtomSpan::Of(q_);
    const AtomSpan expansion{&head_, body_.data(), body_size, num_vars};
    AQV_ASSIGN_OR_RETURN(bool contained,
                         FindHomomorphism(query, expansion, hopts_));
    return contained ? Verdict::kPassed : Verdict::kFailed;
  }

 private:
  int Find(int v) const {
    while (parent_[v] != v) v = parent_[v];
    return v;
  }

  /// Adds the equality v = t; false when a class meets two constants.
  bool Unite(VarId v, Term t) {
    int a = Find(v);
    if (t.is_var()) {
      int b = Find(t.var());
      if (a == b) return true;
      parent_[b] = a;
      if (!pinned_[b].has_value()) return true;
      t = *pinned_[b];
    }
    if (pinned_[a].has_value()) return *pinned_[a] == t;
    pinned_[a] = t;
    return true;
  }

  const Query& q_;
  HomSearchOptions hopts_;
  std::vector<int> parent_;  // union-find over q's variables
  std::vector<std::optional<Term>> pinned_;
  std::vector<int> ids_;  // candidate-space slot -> expansion variable
  // The expansion: head_ and the first body_size atoms of body_.
  Atom head_;
  std::vector<Atom> body_;
  std::vector<bool> in_body_;  // expansion variable -> occurs in the body
};

}  // namespace

Result<BucketResult> BucketRewrite(const Query& q, const ViewSet& views,
                                   const BucketOptions& options) {
  AQV_RETURN_NOT_OK(q.Validate());
  if (q.body().size() > 64) {
    return Status::Unimplemented(
        "bucket algorithm limited to 64 subgoals (covered-set bitmasks); "
        "query has " + std::to_string(q.body().size()));
  }
  BucketResult result;
  int n = static_cast<int>(q.body().size());
  result.buckets.resize(n);
  for (int i = 0; i < n; ++i) {
    FillBucket(q, i, views, &result.buckets[i]);
    if (result.buckets[i].empty()) {
      // A subgoal no view can cover: no complete rewriting exists.
      return result;
    }
  }

  // Unfold every entry once. Comparison containment runs the
  // linearization test on the normalized, named rewriting, so a query or
  // view with comparisons keeps BuildAndVerify per combination.
  bool with_comparisons = q.has_comparisons();
  std::vector<std::vector<Unfolding>> unfolded(n);
  for (int i = 0; i < n; ++i) {
    for (const ViewAtomCandidate& entry : result.buckets[i]) {
      AQV_ASSIGN_OR_RETURN(Unfolding u, Unfold(q, entry, options));
      with_comparisons |= entry.view->definition.has_comparisons();
      unfolded[i].push_back(std::move(u));
    }
  }

  // The product of the bucket sizes is what the loop below enumerates:
  // past the cap, fail now rather than after `max_combinations` of them.
  uint64_t product = 1;
  for (const std::vector<ViewAtomCandidate>& bucket : result.buckets) {
    if (product > options.max_combinations / bucket.size()) {
      return Status::ResourceExhausted(
          "bucket combinations exceeded max_combinations=" +
          std::to_string(options.max_combinations));
    }
    product *= bucket.size();
  }

  // Cartesian product over buckets.
  std::vector<int> choice(n, 0);
  std::vector<const ViewAtomCandidate*> picks(n);
  std::vector<const Unfolding*> unfoldings(n);
  UnfoldedCheck unfolded_check(q, options);
  QueryDeduper seen_rewritings;
  auto keep = [&](Query rewriting) {
    if (seen_rewritings.Insert(rewriting)) {
      result.rewritings.disjuncts.push_back(std::move(rewriting));
    }
  };
  auto try_candidate =
      [&](const std::vector<const ViewAtomCandidate*>& cand_picks)
      -> Result<bool> {
    AQV_ASSIGN_OR_RETURN(
        ExpansionCheck check,
        BuildAndVerify(q, views, cand_picks,
                       /*include_comparisons=*/q.has_comparisons(),
                       VerifyLevel::kContained, options.containment));
    if (!check.rewriting.has_value()) return false;
    ++result.candidates_checked;
    if (!check.passed) return false;
    keep(std::move(*check.rewriting));
    return true;
  };
  for (;;) {
    ++result.combinations_enumerated;
    for (int i = 0; i < n; ++i) {
      picks[i] = &result.buckets[i][choice[i]];
      unfoldings[i] = &unfolded[i][choice[i]];
    }
    bool direct_hit = false;
    if (with_comparisons) {
      AQV_ASSIGN_OR_RETURN(direct_hit, try_candidate(picks));
    } else {
      AQV_ASSIGN_OR_RETURN(Verdict verdict,
                           unfolded_check.Decide(picks, unfoldings));
      if (verdict != Verdict::kUnbuildable) ++result.candidates_checked;
      direct_hit = verdict == Verdict::kPassed;
      if (direct_hit) {
        // Only a passing combination is named: for the deduper and output.
        std::optional<Query> rewriting =
            BuildRewriting(q, picks, /*include_comparisons=*/false);
        if (!rewriting.has_value()) {
          return Status::Internal("a bucket combination passed on its "
                                  "unfoldings but BuildRewriting failed");
        }
        keep(std::move(*rewriting));
      }
    }
    if (!direct_hit &&
        std::all_of(unfoldings.begin(), unfoldings.end(),
                    [](const Unfolding* u) { return u->maps_into_q; })) {
      // Classic Bucket's containment check may add join predicates: probe
      // homomorphisms into q identify fresh variables with q terms.
      Query probe = BuildProbe(q, unfoldings);
      HomSearchOptions hopts;
      hopts.node_budget = options.containment.node_budget;
      std::vector<Substitution> enrichments;
      auto cb = [&](const Substitution& g) {
        enrichments.push_back(g);
        return enrichments.size() < kMaxEnrichmentsPerCombination;
      };
      AQV_ASSIGN_OR_RETURN(int64_t homs,
                           ForEachHomomorphism(probe, q, hopts, cb));
      (void)homs;
      for (const Substitution& g : enrichments) {
        std::vector<ViewAtomCandidate> enriched =
            EnrichPicks(q, picks, unfoldings, g);
        std::vector<const ViewAtomCandidate*> eps;
        for (const ViewAtomCandidate& e : enriched) eps.push_back(&e);
        AQV_ASSIGN_OR_RETURN(bool hit, try_candidate(eps));
        (void)hit;
      }
    }
    // Advance the product counter.
    int pos = n - 1;
    while (pos >= 0) {
      if (++choice[pos] < static_cast<int>(result.buckets[pos].size())) break;
      choice[pos] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  return result;
}

}  // namespace aqv
