#include "answering/answering.h"

#include <utility>

#include "containment/containment.h"
#include "eval/materialize.h"
#include "rewriting/inverse_rules.h"
#include "views/expansion.h"

namespace aqv {

const std::vector<std::string>& AnswerRouteNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "direct", "complete", "inverse-rules", "cost"};
  return *names;
}

std::string_view AnswerRouteName(AnswerRoute route) {
  switch (route) {
    case AnswerRoute::kDirect:
      return "direct";
    case AnswerRoute::kCompleteRewriting:
      return "complete";
    case AnswerRoute::kInverseRules:
      return "inverse-rules";
    case AnswerRoute::kCostBased:
      return "cost";
  }
  return "unknown";
}

Result<AnswerRoute> AnswerRouteByName(std::string_view name) {
  if (name == "direct") return AnswerRoute::kDirect;
  if (name == "complete") return AnswerRoute::kCompleteRewriting;
  if (name == "inverse-rules") return AnswerRoute::kInverseRules;
  if (name == "cost") return AnswerRoute::kCostBased;
  return Status::NotFound("no answering route named '" + std::string(name) +
                          "'");
}

Status ValidateAnswerRequest(const AnswerRequest& request) {
  if (request.query.empty()) {
    return Status::InvalidArgument("AnswerRequest.query is empty");
  }
  const Atom& head = request.query.disjuncts[0].head();
  for (const Query& d : request.query.disjuncts) {
    if (d.head().pred != head.pred || d.head().arity() != head.arity()) {
      return Status::InvalidArgument(
          "AnswerRequest.query disjuncts disagree on the head predicate");
    }
  }
  if (request.route == AnswerRoute::kDirect) {
    if (request.base == nullptr) {
      return Status::InvalidArgument(
          "the direct route requires a base database");
    }
    return Status::OK();
  }
  if (request.route == AnswerRoute::kCostBased && request.query.size() != 1) {
    return Status::InvalidArgument(
        "the cost route expects a single-CQ query; use the complete "
        "route with the \"ucq\" engine for unions");
  }
  if (request.views == nullptr) {
    return Status::InvalidArgument("AnswerRequest.views is null");
  }
  if (request.base == nullptr && request.extents == nullptr) {
    return Status::InvalidArgument(
        "view-based routes need a base database or pre-materialized "
        "extents");
  }
  return Status::OK();
}

namespace {

/// True when no body atom of `q` is a view predicate (the plan touches the
/// base database only — the direct plan's shape).
bool UsesNoViews(const Query& q, const ViewSet& views) {
  for (const Atom& a : q.body()) {
    if (views.FindByPred(a.pred) != nullptr) return false;
  }
  return true;
}

/// A database holding only the relations `u` reads, view extents
/// shadowing base relations — what a partial rewriting (view and base
/// atoms mixed) evaluates over.
Database MergeReferenced(const UnionQuery& u, const Database& extents,
                         const Database& base) {
  Database merged(base.catalog());
  for (const Query& d : u.disjuncts) {
    for (const Atom& a : d.body()) {
      if (merged.Find(a.pred) != nullptr) continue;
      const Relation* src = extents.Find(a.pred);
      if (src == nullptr) src = base.Find(a.pred);
      if (src != nullptr) *merged.GetOrCreate(a.pred) = *src;
    }
  }
  return merged;
}

/// The index of the first disjunct of `rewritings` whose expansion
/// contains the query, or -1 when no check shows one. A check that runs
/// out of budget, or meets a case the containment test does not decide,
/// shows nothing; any other error propagates.
Result<int> FirstEquivalentDisjunct(const AnswerRequest& request,
                                    const UnionQuery& rewritings) {
  ContainmentOptions options = request.options.containment;
  options.oracle = request.options.oracle;
  for (size_t i = 0; i < rewritings.disjuncts.size(); ++i) {
    AQV_ASSIGN_OR_RETURN(
        ExpansionResult expansion,
        ExpandRewriting(rewritings.disjuncts[i], *request.views));
    if (!expansion.satisfiable) continue;
    Result<bool> contains =
        UnionIsContainedIn(request.query, expansion.query, options);
    if (!contains.ok()) {
      StatusCode code = contains.status().code();
      if (code == StatusCode::kResourceExhausted ||
          code == StatusCode::kUnimplemented) {
        continue;
      }
      return contains.status();
    }
    if (*contains) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

Result<AnswerResponse> AnswerQuery(const AnswerRequest& request) {
  AQV_RETURN_NOT_OK(ValidateAnswerRequest(request));
  AnswerResponse out;
  out.route = request.route;
  const Query& q0 = request.query.disjuncts[0];

  if (request.route == AnswerRoute::kDirect) {
    AQV_ASSIGN_OR_RETURN(
        out.result, EvaluateUnion(request.query, *request.base, request.eval,
                                  &out.stats.eval));
    out.executed = request.query;
    out.exact = true;
    return out;
  }

  // The extent cache: evaluate the views at most once per request, and not
  // at all when the caller supplies extents.
  Database materialized;
  const Database* extents = request.extents;
  if (extents == nullptr) {
    AQV_ASSIGN_OR_RETURN(
        materialized, MaterializeViews(*request.views, *request.base,
                                       request.eval, &out.stats.materialize));
    extents = &materialized;
  }

  switch (request.route) {
    case AnswerRoute::kCompleteRewriting: {
      out.engine = request.engine;
      RewriteRequest rewrite;
      rewrite.query = request.query;
      rewrite.views = request.views;
      rewrite.options = request.options;
      AQV_ASSIGN_OR_RETURN(RewriteResponse resp,
                           RunEngine(request.engine, rewrite));
      out.stats.rewrite = resp.stats;
      out.executed = std::move(resp.rewritings);
      out.exact = resp.equivalent_exists;
      out.complete = true;
      for (const Query& d : out.executed.disjuncts) {
        if (!UsesOnlyViews(d, *request.views)) out.complete = false;
      }
      if (!out.complete && request.base == nullptr) {
        return Status::InvalidArgument(
            "engine '" + request.engine +
            "' produced a partial rewriting (base atoms), which needs the "
            "base database; this request supplied only view extents");
      }
      // Over exact extents a disjunct whose expansion contains q returns
      // all of q(D) by itself, and every other disjunct is contained in q
      // (see AnswerRequest::extents): evaluate that one alone.
      AQV_ASSIGN_OR_RETURN(int equivalent,
                           FirstEquivalentDisjunct(request, out.executed));
      UnionQuery alone;
      const UnionQuery* evaluated = &out.executed;
      if (equivalent >= 0) {
        alone.disjuncts.push_back(out.executed.disjuncts[equivalent]);
        evaluated = &alone;
      }
      if (out.complete) {
        AQV_ASSIGN_OR_RETURN(
            out.result, EvaluateRewritingUnion(q0, *evaluated, *extents,
                                               request.eval,
                                               &out.stats.eval));
      } else {
        // Partial rewritings (allow_base_atoms) read base relations too.
        Database merged = MergeReferenced(*evaluated, *extents, *request.base);
        AQV_ASSIGN_OR_RETURN(
            out.result, EvaluateRewritingUnion(q0, *evaluated, merged,
                                               request.eval,
                                               &out.stats.eval));
      }
      return out;
    }

    case AnswerRoute::kInverseRules: {
      AQV_ASSIGN_OR_RETURN(InverseRuleSet rules,
                           BuildInverseRules(*request.views));
      AQV_ASSIGN_OR_RETURN(
          out.result,
          CertainAnswersViaInverseRules(request.query, rules, *extents,
                                        request.eval, &out.stats.eval));
      out.complete = true;
      return out;
    }

    case AnswerRoute::kCostBased: {
      PlannerOptions popts;
      popts.engine = request.options;
      if (request.base == nullptr) popts.include_direct_plan = false;
      ExtentStats base_stats;
      if (request.base != nullptr) {
        base_stats = ExtentStats::FromDatabase(*request.base);
      }
      AQV_ASSIGN_OR_RETURN(
          PlannerResult plans,
          ChooseBestPlan(q0, *request.views,
                         ExtentStats::FromDatabase(*extents), base_stats,
                         popts));
      out.stats.rewrite = plans.stats;
      // Without a base database only complete plans are executable.
      int chosen = plans.best;
      if (request.base == nullptr) {
        chosen = -1;
        for (int i = 0; i < static_cast<int>(plans.plans.size()); ++i) {
          if (!plans.plans[i].complete) continue;
          if (chosen < 0 || plans.plans[i].estimated_cost <
                                plans.plans[chosen].estimated_cost) {
            chosen = i;
          }
        }
      }
      if (chosen < 0) {
        return Status::InvalidArgument(
            "no executable plan: the query has no equivalent complete "
            "rewriting over these views" +
            std::string(request.base == nullptr
                            ? " and no base database was supplied"
                            : ""));
      }
      plans.best = chosen;
      const PlanChoice& plan = plans.plans[chosen];
      // Complete plans read extents; the direct plan reads the base;
      // partial plans (view and base atoms mixed) need both merged.
      Result<Relation> answer = Status::Internal("unset");
      if (plan.complete) {
        answer = EvaluateQuery(plan.rewriting, *extents, request.eval,
                               &out.stats.eval);
      } else if (UsesNoViews(plan.rewriting, *request.views)) {
        answer = EvaluateQuery(plan.rewriting, *request.base, request.eval,
                               &out.stats.eval);
      } else {
        UnionQuery plan_union;
        plan_union.disjuncts.push_back(plan.rewriting);
        Database merged =
            MergeReferenced(plan_union, *extents, *request.base);
        answer = EvaluateQuery(plan.rewriting, merged, request.eval,
                               &out.stats.eval);
      }
      AQV_ASSIGN_OR_RETURN(out.result, std::move(answer));
      out.engine = plan.engine;
      out.complete = plan.complete;
      out.exact = true;
      out.executed.disjuncts.push_back(plan.rewriting);
      out.plans = std::move(plans);
      return out;
    }

    case AnswerRoute::kDirect:
      break;  // handled above
  }
  return Status::Internal("unhandled AnswerRoute");
}

}  // namespace aqv
