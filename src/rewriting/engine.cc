#include "rewriting/engine.h"

#include <utility>

#include "rewriting/ucq_rewriting.h"

namespace aqv {

namespace {

/// The effective containment options of a request: the shared budgets with
/// the oracle wired in.
ContainmentOptions EffectiveContainment(const EngineOptions& options) {
  ContainmentOptions c = options.containment;
  c.oracle = options.oracle;
  return c;
}

/// Snapshot-delta bracket around one engine run.
class OracleScope {
 public:
  explicit OracleScope(ContainmentOracle* oracle) : oracle_(oracle) {
    if (oracle_ != nullptr) before_ = oracle_->stats();
  }
  OracleStats Delta() const {
    return oracle_ == nullptr ? OracleStats{} : oracle_->stats() - before_;
  }

 private:
  ContainmentOracle* oracle_;
  OracleStats before_;
};

Status RequireRewritableViews(const ViewSet* views) {
  if (views == nullptr) {
    return Status::InvalidArgument("RewriteRequest.views is null");
  }
  if (views->HasUnionSources()) {
    return Status::Unimplemented(
        "view set contains union sources (multiple rules per head "
        "predicate); rewriting engines expand view atoms by a single "
        "definition and would be unsound here");
  }
  return Status::OK();
}

Status RequireSingleton(const RewriteRequest& request, std::string_view name) {
  AQV_RETURN_NOT_OK(RequireRewritableViews(request.views));
  if (request.query.size() != 1) {
    return Status::InvalidArgument(
        std::string(name) + " engine expects a single-CQ request (got " +
        std::to_string(request.query.size()) +
        " disjuncts); use the \"ucq\" engine for unions");
  }
  return Status::OK();
}

class LmssEngine : public RewritingEngine {
 public:
  std::string_view name() const override { return "lmss"; }

  Result<RewriteResponse> Rewrite(const RewriteRequest& request)
      const override {
    AQV_RETURN_NOT_OK(RequireSingleton(request, name()));
    LmssOptions opts = request.options.lmss;
    opts.containment = EffectiveContainment(request.options);
    OracleScope scope(request.options.oracle);
    AQV_ASSIGN_OR_RETURN(
        LmssResult r, FindEquivalentRewritings(request.query.disjuncts[0],
                                               *request.views, opts));
    RewriteResponse out;
    out.engine = name();
    out.equivalent_exists = r.exists;
    out.rewritings.disjuncts = std::move(r.rewritings);
    out.minimized.disjuncts.push_back(std::move(r.minimized_query));
    out.stats.num_candidates = r.num_candidates;
    out.stats.combinations = r.subsets_tested;
    out.stats.checks = r.candidates_checked;
    out.stats.oracle = scope.Delta();
    return out;
  }
};

class BucketEngine : public RewritingEngine {
 public:
  std::string_view name() const override { return "bucket"; }

  Result<RewriteResponse> Rewrite(const RewriteRequest& request)
      const override {
    AQV_RETURN_NOT_OK(RequireSingleton(request, name()));
    BucketOptions opts = request.options.bucket;
    opts.containment = EffectiveContainment(request.options);
    OracleScope scope(request.options.oracle);
    AQV_ASSIGN_OR_RETURN(
        BucketResult r,
        BucketRewrite(request.query.disjuncts[0], *request.views, opts));
    RewriteResponse out;
    out.engine = name();
    out.rewritings = std::move(r.rewritings);
    for (const auto& bucket : r.buckets) {
      out.stats.num_candidates += bucket.size();
    }
    out.stats.combinations = r.combinations_enumerated;
    out.stats.checks = r.candidates_checked;
    out.stats.oracle = scope.Delta();
    return out;
  }
};

class MiniConEngine : public RewritingEngine {
 public:
  std::string_view name() const override { return "minicon"; }

  Result<RewriteResponse> Rewrite(const RewriteRequest& request)
      const override {
    AQV_RETURN_NOT_OK(RequireSingleton(request, name()));
    MiniConOptions opts = request.options.minicon;
    opts.containment = EffectiveContainment(request.options);
    OracleScope scope(request.options.oracle);
    AQV_ASSIGN_OR_RETURN(
        MiniConResult r,
        MiniConRewrite(request.query.disjuncts[0], *request.views, opts));
    RewriteResponse out;
    out.engine = name();
    out.rewritings = std::move(r.rewritings);
    out.stats.num_candidates = r.mcds.size();
    out.stats.combinations = r.combinations_enumerated;
    out.stats.checks = r.candidates_checked;
    out.stats.oracle = scope.Delta();
    return out;
  }
};

class UcqEngine : public RewritingEngine {
 public:
  std::string_view name() const override { return "ucq"; }

  Result<RewriteResponse> Rewrite(const RewriteRequest& request)
      const override {
    AQV_RETURN_NOT_OK(RequireRewritableViews(request.views));
    LmssOptions opts = request.options.lmss;
    opts.containment = EffectiveContainment(request.options);
    OracleScope scope(request.options.oracle);
    AQV_ASSIGN_OR_RETURN(
        UcqRewritingResult r,
        FindEquivalentUnionRewriting(request.query, *request.views, opts));
    RewriteResponse out;
    out.engine = name();
    out.equivalent_exists = r.exists;
    out.rewritings = std::move(r.rewritings);
    out.minimized = std::move(r.minimized);
    out.stats.num_candidates = r.num_candidates;
    out.stats.combinations = r.subsets_tested;
    out.stats.checks = r.candidates_checked;
    out.stats.oracle = scope.Delta();
    return out;
  }
};

}  // namespace

const std::vector<std::string>& EngineNames() {
  static const std::vector<std::string>* names =
      new std::vector<std::string>{"lmss", "bucket", "minicon", "ucq"};
  return *names;
}

Result<std::unique_ptr<RewritingEngine>> MakeEngine(std::string_view name) {
  std::unique_ptr<RewritingEngine> engine;
  if (name == "lmss") {
    engine = std::make_unique<LmssEngine>();
  } else if (name == "bucket") {
    engine = std::make_unique<BucketEngine>();
  } else if (name == "minicon") {
    engine = std::make_unique<MiniConEngine>();
  } else if (name == "ucq") {
    engine = std::make_unique<UcqEngine>();
  } else {
    return Status::NotFound("no rewriting engine named '" +
                            std::string(name) + "'");
  }
  return engine;
}

Result<RewriteResponse> RunEngine(std::string_view name,
                                  const RewriteRequest& request) {
  AQV_ASSIGN_OR_RETURN(std::unique_ptr<RewritingEngine> engine,
                       MakeEngine(name));
  return engine->Rewrite(request);
}

}  // namespace aqv
