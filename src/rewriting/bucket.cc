#include "rewriting/bucket.h"

#include <algorithm>

#include "containment/homomorphism.h"
#include "cq/substitution.h"
#include "rewriting/pipeline.h"
#include "rewriting/two_space_unifier.h"
#include "views/expansion.h"

namespace aqv {

namespace {

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

/// Builds the "probe" expansion of a combination directly over q's variable
/// space (q vars keep their ids; candidate fresh vars and imported view
/// existentials extend it). Homomorphisms from the probe into q yield the
/// variable identifications ("added join predicates" in the classic Bucket
/// description) that can make a failing candidate contained.
Query BuildProbe(const Query& q, const ViewSet& views,
                 const std::vector<const ViewAtomCandidate*>& picks) {
  Query probe(q.catalog());
  for (int v = 0; v < q.num_vars(); ++v) probe.AddVariable(q.var_name(v));
  probe.set_head(q.head());

  // Pass 1: reserve every pick's fresh slots contiguously, before any view
  // body imports extend the variable space further.
  int total_fresh = 0;
  for (const ViewAtomCandidate* pick : picks) total_fresh += pick->num_fresh;
  for (int i = 0; i < total_fresh; ++i) {
    probe.AddVariable("PF" + std::to_string(i));
  }
  std::vector<Atom> remapped;
  int fresh_base = q.num_vars();
  for (const ViewAtomCandidate* pick : picks) {
    Atom a = pick->atom;
    for (Term& t : a.args) {
      if (t.is_var() && t.var() >= q.num_vars()) {
        t = Term::Var(fresh_base + (t.var() - q.num_vars()));
      }
    }
    remapped.push_back(std::move(a));
    fresh_base += pick->num_fresh;
  }

  // Pass 2: unfold each view atom into the probe.
  for (size_t i = 0; i < picks.size(); ++i) {
    const Atom& a = remapped[i];
    const Query& def = views.FindByPred(a.pred)->definition;
    VarImporter imp(def, &probe, "pe" + std::to_string(i) + "_");
    for (int j = 0; j < a.arity(); ++j) {
      Term h = def.head().args[j];
      if (h.is_var() && !imp.HasMapping(h.var())) {
        imp.Preset(h.var(), a.args[j]);
      }
    }
    for (const Atom& b : def.body()) probe.AddBodyAtom(imp.ImportAtom(b));
  }
  return probe;
}

/// Applies a probe homomorphism to the picks, yielding enriched candidates
/// whose fresh variables are replaced by q-space terms.
std::vector<ViewAtomCandidate> EnrichPicks(
    const Query& q, const std::vector<const ViewAtomCandidate*>& picks,
    const Substitution& g) {
  std::vector<ViewAtomCandidate> out;
  int fresh_base = q.num_vars();
  for (const ViewAtomCandidate* pick : picks) {
    ViewAtomCandidate e = *pick;
    for (Term& t : e.atom.args) {
      if (!t.is_var()) continue;
      VarId v = t.var();
      if (v >= q.num_vars()) v = fresh_base + (v - q.num_vars());
      if (v < g.num_source_vars() && g.IsBound(v)) t = g.Get(v);
    }
    fresh_base += e.num_fresh;
    e.num_fresh = 0;  // all candidate-local vars are now q terms
    out.push_back(std::move(e));
  }
  return out;
}

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

  // Cartesian product over buckets.
  std::vector<int> choice(n, 0);
  QueryDeduper seen_rewritings;
  for (;;) {
    if (++result.combinations_enumerated > options.max_combinations) {
      return Status::ResourceExhausted(
          "bucket combinations exceeded max_combinations=" +
          std::to_string(options.max_combinations));
    }
    // Deduplicate picks by candidate identity (one entry may serve several
    // subgoals).
    std::vector<const ViewAtomCandidate*> picks;
    CandidateDeduper pick_seen;
    for (int i = 0; i < n; ++i) {
      const ViewAtomCandidate* c = &result.buckets[i][choice[i]];
      if (pick_seen.insert(*c).second) picks.push_back(c);
    }
    auto try_candidate =
        [&](const std::vector<const ViewAtomCandidate*>& cand_picks)
        -> Result<bool> {
      AQV_ASSIGN_OR_RETURN(
          ExpansionCheck check,
          BuildAndVerify(q, views, cand_picks,
                         /*include_comparisons=*/q.has_comparisons(),
                         options.require_equivalent ? VerifyLevel::kEquivalent
                                                    : VerifyLevel::kContained,
                         options.containment));
      if (!check.rewriting.has_value()) return false;
      ++result.candidates_checked;
      if (!check.passed) return false;
      if (seen_rewritings.Insert(*check.rewriting)) {
        result.rewritings.disjuncts.push_back(std::move(*check.rewriting));
      }
      return true;
    };

    AQV_ASSIGN_OR_RETURN(bool direct_hit, try_candidate(picks));
    if (!direct_hit && options.max_enrichments_per_combination > 0) {
      // Classic Bucket's containment check may add join predicates: probe
      // homomorphisms into q identify fresh variables with q terms.
      Query probe = BuildProbe(q, views, picks);
      HomSearchOptions hopts;
      hopts.node_budget = options.containment.node_budget;
      std::vector<Substitution> enrichments;
      auto cb = [&](const Substitution& g) {
        enrichments.push_back(g);
        return enrichments.size() < options.max_enrichments_per_combination;
      };
      AQV_ASSIGN_OR_RETURN(int64_t homs,
                           ForEachHomomorphism(probe, q, hopts, cb));
      (void)homs;
      for (const Substitution& g : enrichments) {
        std::vector<ViewAtomCandidate> enriched = EnrichPicks(q, picks, g);
        std::vector<const ViewAtomCandidate*> eps;
        CandidateDeduper ekeys;
        for (const ViewAtomCandidate& e : enriched) {
          if (ekeys.insert(e).second) eps.push_back(&e);
        }
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

  if (options.prune_subsumed) {
    AQV_ASSIGN_OR_RETURN(
        result.rewritings,
        RemoveSubsumedDisjuncts(result.rewritings, views, options.containment));
  }
  return result;
}

}  // namespace aqv
