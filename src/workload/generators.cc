#include "workload/generators.h"

#include <algorithm>
#include <set>

#include "containment/minimize.h"

namespace aqv {

namespace {

/// Registers the chain predicates r1..rn (or the single shared predicate).
Result<std::vector<PredId>> ChainPreds(Catalog* catalog,
                                       const ChainQuerySpec& spec) {
  std::vector<PredId> preds;
  int distinct = spec.distinct_predicates ? spec.length : 1;
  for (int i = 0; i < distinct; ++i) {
    AQV_ASSIGN_OR_RETURN(
        PredId p,
        catalog->GetOrAddPredicate(spec.pred_prefix + std::to_string(i + 1),
                                   2));
    preds.push_back(p);
  }
  for (int i = distinct; i < spec.length; ++i) preds.push_back(preds[0]);
  return preds;
}

/// Chooses the head variables of a generated view according to `policy`,
/// always keeping at least one variable (safety of the head is then
/// guaranteed because every chain/star variable occurs in the body).
std::vector<VarId> PickDistinguished(Rng* rng, DistinguishedPolicy policy,
                                     double keep_prob,
                                     const std::vector<VarId>& ends,
                                     const std::vector<VarId>& all) {
  switch (policy) {
    case DistinguishedPolicy::kEnds:
      return ends;
    case DistinguishedPolicy::kAll:
      return all;
    case DistinguishedPolicy::kRandom: {
      std::vector<VarId> out;
      for (VarId v : all) {
        if (rng->NextBool(keep_prob)) out.push_back(v);
      }
      if (out.empty()) out.push_back(ends.front());
      return out;
    }
  }
  return all;
}

Result<Query> FinishView(Catalog* catalog, Query* body_holder,
                         const std::string& view_name,
                         const std::vector<VarId>& head_vars) {
  std::vector<Term> args;
  args.reserve(head_vars.size());
  for (VarId v : head_vars) args.push_back(Term::Var(v));
  AQV_ASSIGN_OR_RETURN(
      PredId pred,
      catalog->GetOrAddPredicate(view_name, static_cast<int>(args.size()),
                                 PredKind::kIntensional));
  body_holder->set_head(Atom(pred, std::move(args)));
  AQV_RETURN_NOT_OK(body_holder->Validate());
  return *body_holder;
}

}  // namespace

Result<Query> MakeChainQuery(Catalog* catalog, const ChainQuerySpec& spec) {
  if (spec.length < 1) {
    return Status::InvalidArgument("chain length must be >= 1");
  }
  AQV_ASSIGN_OR_RETURN(std::vector<PredId> preds, ChainPreds(catalog, spec));
  Query q(catalog);
  std::vector<VarId> vars;
  for (int i = 0; i <= spec.length; ++i) {
    vars.push_back(q.AddVariable("X" + std::to_string(i)));
  }
  for (int i = 0; i < spec.length; ++i) {
    q.AddBodyAtom(
        Atom(preds[i], {Term::Var(vars[i]), Term::Var(vars[i + 1])}));
  }
  AQV_ASSIGN_OR_RETURN(
      PredId head,
      catalog->GetOrAddPredicate(spec.head_name, 2, PredKind::kIntensional));
  q.set_head(Atom(head, {Term::Var(vars.front()), Term::Var(vars.back())}));
  AQV_RETURN_NOT_OK(q.Validate());
  return q;
}

Result<ViewSet> MakeChainViews(Catalog* catalog, Rng* rng,
                               const ChainViewSpec& spec) {
  AQV_ASSIGN_OR_RETURN(std::vector<PredId> preds,
                       ChainPreds(catalog, spec.chain));
  ViewSet out;
  for (int vi = 0; vi < spec.num_views; ++vi) {
    int max_len = std::min(spec.max_length, spec.chain.length);
    int len = static_cast<int>(
        rng->NextInRange(std::min(spec.min_length, max_len), max_len));
    int start = static_cast<int>(rng->NextInRange(0, spec.chain.length - len));
    Query body(catalog);
    std::vector<VarId> vars;
    for (int i = 0; i <= len; ++i) {
      vars.push_back(body.AddVariable("Y" + std::to_string(start + i)));
    }
    for (int i = 0; i < len; ++i) {
      body.AddBodyAtom(Atom(preds[start + i],
                            {Term::Var(vars[i]), Term::Var(vars[i + 1])}));
    }
    std::vector<VarId> head_vars =
        PickDistinguished(rng, spec.policy, spec.random_keep_prob,
                          {vars.front(), vars.back()}, vars);
    AQV_ASSIGN_OR_RETURN(
        Query view,
        FinishView(catalog, &body,
                   spec.view_prefix + std::to_string(vi), head_vars));
    AQV_RETURN_NOT_OK(out.Add(std::move(view)));
  }
  return out;
}

Result<Query> MakeStarQuery(Catalog* catalog, const StarQuerySpec& spec) {
  if (spec.rays < 1) return Status::InvalidArgument("star needs >= 1 ray");
  Query q(catalog);
  VarId center = q.AddVariable("X0");
  std::vector<VarId> leaves;
  std::vector<Term> head_args;
  if (spec.distinguish_center) head_args.push_back(Term::Var(center));
  for (int i = 0; i < spec.rays; ++i) {
    VarId leaf = q.AddVariable("X" + std::to_string(i + 1));
    leaves.push_back(leaf);
    head_args.push_back(Term::Var(leaf));
    std::string pname = spec.distinct_predicates
                            ? spec.pred_prefix + std::to_string(i + 1)
                            : spec.pred_prefix;
    AQV_ASSIGN_OR_RETURN(PredId p, catalog->GetOrAddPredicate(pname, 2));
    q.AddBodyAtom(Atom(p, {Term::Var(center), Term::Var(leaf)}));
  }
  AQV_ASSIGN_OR_RETURN(
      PredId head,
      catalog->GetOrAddPredicate(spec.head_name,
                                 static_cast<int>(head_args.size()),
                                 PredKind::kIntensional));
  q.set_head(Atom(head, std::move(head_args)));
  AQV_RETURN_NOT_OK(q.Validate());
  return q;
}

Result<ViewSet> MakeStarViews(Catalog* catalog, Rng* rng,
                              const StarViewSpec& spec) {
  ViewSet out;
  for (int vi = 0; vi < spec.num_views; ++vi) {
    int max_rays = std::min(spec.max_rays, spec.star.rays);
    int k = static_cast<int>(
        rng->NextInRange(std::min(spec.min_rays, max_rays), max_rays));
    std::vector<int> rays(spec.star.rays);
    for (int i = 0; i < spec.star.rays; ++i) rays[i] = i;
    rng->Shuffle(&rays);
    rays.resize(k);
    std::sort(rays.begin(), rays.end());

    Query body(catalog);
    VarId center = body.AddVariable("Y0");
    std::vector<VarId> all{center};
    std::vector<VarId> leaves;
    for (int ray : rays) {
      VarId leaf = body.AddVariable("Y" + std::to_string(ray + 1));
      all.push_back(leaf);
      leaves.push_back(leaf);
      std::string pname = spec.star.distinct_predicates
                              ? spec.star.pred_prefix + std::to_string(ray + 1)
                              : spec.star.pred_prefix;
      AQV_ASSIGN_OR_RETURN(PredId p, catalog->GetOrAddPredicate(pname, 2));
      body.AddBodyAtom(Atom(p, {Term::Var(center), Term::Var(leaf)}));
    }
    std::vector<VarId> head_vars =
        PickDistinguished(rng, spec.policy, spec.random_keep_prob,
                          {leaves.empty() ? center : leaves.front(), center},
                          all);
    AQV_ASSIGN_OR_RETURN(
        Query view,
        FinishView(catalog, &body,
                   spec.view_prefix + std::to_string(vi), head_vars));
    AQV_RETURN_NOT_OK(out.Add(std::move(view)));
  }
  return out;
}

namespace {

Result<Query> MakeRandomRule(Catalog* catalog, Rng* rng,
                             const RandomQuerySpec& spec,
                             const std::string& head_name) {
  Query q(catalog);
  for (int i = 0; i < spec.num_vars; ++i) {
    q.AddVariable("X" + std::to_string(i));
  }
  std::set<VarId> used_vars;
  for (int g = 0; g < spec.num_subgoals; ++g) {
    int pi = static_cast<int>(rng->NextBounded(spec.num_predicates));
    AQV_ASSIGN_OR_RETURN(
        PredId p,
        catalog->GetOrAddPredicate(spec.pred_prefix + std::to_string(pi),
                                   spec.pred_arity));
    std::vector<Term> args;
    for (int a = 0; a < spec.pred_arity; ++a) {
      if (rng->NextBool(spec.constant_prob)) {
        args.push_back(Term::Const(catalog->InternNumericConstant(
            static_cast<int64_t>(rng->NextBounded(spec.constant_pool)))));
      } else {
        VarId v = static_cast<VarId>(rng->NextBounded(spec.num_vars));
        used_vars.insert(v);
        args.push_back(Term::Var(v));
      }
    }
    q.AddBodyAtom(Atom(p, std::move(args)));
  }
  // Head: random subset of used variables (safe by construction).
  std::vector<VarId> pool(used_vars.begin(), used_vars.end());
  if (pool.empty()) {
    // All-constant body: make the head boolean.
    AQV_ASSIGN_OR_RETURN(
        PredId head,
        catalog->GetOrAddPredicate(head_name, 0, PredKind::kIntensional));
    q.set_head(Atom(head, {}));
    AQV_RETURN_NOT_OK(q.Validate());
    return q;
  }
  rng->Shuffle(&pool);
  int k = std::min<int>(spec.head_arity, pool.size());
  std::vector<Term> head_args;
  for (int i = 0; i < k; ++i) head_args.push_back(Term::Var(pool[i]));
  AQV_ASSIGN_OR_RETURN(
      PredId head,
      catalog->GetOrAddPredicate(head_name, k, PredKind::kIntensional));
  q.set_head(Atom(head, std::move(head_args)));
  Query compact = CompactVariables(q);
  AQV_RETURN_NOT_OK(compact.Validate());
  return compact;
}

}  // namespace

Result<Query> MakeRandomQuery(Catalog* catalog, Rng* rng,
                              const RandomQuerySpec& spec) {
  return MakeRandomRule(catalog, rng, spec, spec.head_name);
}

Result<ViewSet> MakeRandomViews(Catalog* catalog, Rng* rng,
                                const RandomQuerySpec& base, int num_views,
                                std::string_view view_prefix) {
  ViewSet out;
  for (int i = 0; i < num_views; ++i) {
    RandomQuerySpec spec = base;
    spec.head_name = std::string(view_prefix) + std::to_string(i);
    AQV_ASSIGN_OR_RETURN(Query v, MakeRandomRule(catalog, rng, spec,
                                                 spec.head_name));
    AQV_RETURN_NOT_OK(out.Add(std::move(v)));
  }
  return out;
}

}  // namespace aqv
