"""Inference tests: MPF-backed engines against the brute-force oracle."""

import numpy as np
import pytest

from repro.bayes import (
    BruteForceInference,
    MPFInference,
    chain_network,
    figure2_network,
    naive_bayes_network,
    normalize,
    random_network,
    sprinkler_network,
)
from repro.errors import QueryError, QueryTimeout
from repro.obs import MetricsRegistry
from repro.plans.guard import QueryGuard
from repro.query import MPFQuery
from repro.semiring import SUM_PRODUCT


class TestPaperExample:
    def test_section4_query(self):
        """select C, SUM(p) from joint where A=0 group by C computes
        Pr(C | A = 0) — the inference MPF query of Section 4."""
        bn = figure2_network()
        mpf = MPFInference(bn)
        got = mpf.query("C", evidence={"A": 0})
        # Pr(C | A=0) is just the A=0 row of C's CPT.
        assert got.value_at({"C": 0}) == pytest.approx(0.9)
        assert got.value_at({"C": 1}) == pytest.approx(0.1)

    def test_unnormalized_measure(self):
        bn = figure2_network()
        mpf = MPFInference(bn)
        raw = mpf.query("C", evidence={"A": 0}, normalized=False)
        # Unnormalized: Pr(C, A=0) sums to Pr(A=0) = 0.6.
        assert raw.measure.sum() == pytest.approx(0.6)

    def test_section4_sql_runs_on_the_network_database(self):
        """The CPTs are the view ``joint``, so the paper's query text
        runs as written and gives the same unnormalized posterior."""
        mpf = MPFInference(figure2_network())
        report = mpf.database.execute(
            "select C, sum(p) from joint where A=0 group by C"
        )
        raw = mpf.query("C", evidence={"A": 0}, normalized=False)
        assert report.result.equals(raw, SUM_PRODUCT)


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "maker",
        [figure2_network, sprinkler_network,
         lambda: chain_network(length=5),
         lambda: naive_bayes_network(n_features=4)],
        ids=["figure2", "sprinkler", "chain", "naive-bayes"],
    )
    def test_marginals(self, maker):
        bn = maker()
        mpf = MPFInference(bn)
        oracle = BruteForceInference(bn)
        for v in bn.variable_names:
            assert mpf.query(v).equals(oracle.query(v), SUM_PRODUCT)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_networks_with_evidence(self, seed):
        bn = random_network(n_variables=6, seed=seed)
        mpf = MPFInference(bn)
        oracle = BruteForceInference(bn)
        rng = np.random.default_rng(seed)
        names = bn.variable_names
        ev_var = names[int(rng.integers(len(names)))]
        q_var = next(n for n in names if n != ev_var)
        evidence = {ev_var: 0}
        got = mpf.query(q_var, evidence=evidence)
        expected = oracle.query(q_var, evidence=evidence)
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_joint_query_over_two_variables(self):
        bn = sprinkler_network()
        mpf = MPFInference(bn)
        oracle = BruteForceInference(bn)
        got = mpf.query(["sprinkler", "rain"], evidence={"wet_grass": 1})
        expected = oracle.query(["sprinkler", "rain"], evidence={"wet_grass": 1})
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_alternative_optimizers_agree(self):
        """Every planner the network's database offers gives the same
        posterior as VE+, which :meth:`MPFInference.query` uses."""
        bn = chain_network(length=6)
        oracle = BruteForceInference(bn).query("X2")
        mpf = MPFInference(bn)
        query = MPFQuery(mpf.view, ("X2",))
        for strategy, heuristic in (
            ("cs+nonlinear", "degree"),
            ("ve", "width"),
            ("ve+", "degree"),
        ):
            report = mpf.database.run_query(
                query, strategy=strategy, heuristic=heuristic
            )
            assert normalize(report.result).equals(oracle, SUM_PRODUCT)

    def test_map_query(self):
        bn = sprinkler_network()
        mpf = MPFInference(bn)
        oracle = BruteForceInference(bn)
        got = mpf.map_query(["rain"], evidence={"wet_grass": 1})
        expected = oracle.map_query(["rain"], evidence={"wet_grass": 1})
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)


class TestFrontDoor:
    """A posterior is one ``run_query`` over the CPT view, so it counts
    where every query counts."""

    def _counts(self, registry):
        snapshot = registry.snapshot()
        return (
            snapshot.get("queries.total", status="ok"),
            snapshot.get("queries.total", status="error"),
            snapshot.get("optimizer.plans_considered"),
        )

    @pytest.mark.parametrize("operation", ["query", "map_query"])
    def test_each_operation_is_one_counted_query(self, operation):
        registry = MetricsRegistry()
        mpf = MPFInference(sprinkler_network(), metrics=registry)
        ok, error, considered = self._counts(registry)
        getattr(mpf, operation)("rain", evidence={"wet_grass": 1})
        after = self._counts(registry)
        assert after[:2] == (ok + 1, error)
        assert after[2] > considered

    def test_timeout_counts_as_an_error(self):
        registry = MetricsRegistry()
        mpf = MPFInference(figure2_network(), metrics=registry)
        with pytest.raises(QueryTimeout):
            mpf.query("C", guard=QueryGuard(cost_budget=0.0))
        assert self._counts(registry)[:2] == (0, 1)


class TestCachedInference:
    def test_cache_answers_all_marginals(self):
        bn = chain_network(length=7)
        mpf = MPFInference(bn)
        oracle = BruteForceInference(bn)
        cache = mpf.build_cache()
        for v in bn.variable_names:
            got = mpf.query_cached(cache, v)
            assert got.equals(oracle.query(v), SUM_PRODUCT,
                              ignore_zero_rows=True)

    def test_cache_with_evidence(self):
        bn = chain_network(length=6)
        mpf = MPFInference(bn)
        oracle = BruteForceInference(bn)
        cache = mpf.build_cache()
        got = mpf.query_cached(cache, "X1", evidence={"X5": 2})
        expected = oracle.query("X1", evidence={"X5": 2})
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_cache_on_loopy_network(self):
        """figure2's moral graph has a 4-cycle + chord; VE-cache must
        triangulate correctly."""
        bn = figure2_network()
        mpf = MPFInference(bn)
        oracle = BruteForceInference(bn)
        cache = mpf.build_cache()
        for v in "ABCD":
            got = mpf.query_cached(cache, v)
            assert got.equals(oracle.query(v), SUM_PRODUCT,
                              ignore_zero_rows=True)


class TestNormalization:
    def test_zero_mass_evidence_raises(self):
        bn = sprinkler_network()
        mpf = MPFInference(bn)
        # sprinkler=on & cloudy=yes has tiny but nonzero mass; build an
        # impossible combination instead: wet_grass wet with sprinkler
        # off and rain no has probability 0.
        with pytest.raises(QueryError):
            mpf.query(
                "cloudy",
                evidence={"sprinkler": 0, "rain": 0, "wet_grass": 1},
            )

    def test_posterior_sums_to_one(self):
        bn = sprinkler_network()
        got = MPFInference(bn).query("rain", evidence={"wet_grass": 1})
        assert got.measure.sum() == pytest.approx(1.0)


class TestAsiaNetwork:
    """The Lauritzen-Spiegelhalter chest clinic: loopy moral graph,
    deterministic OR node, published reference posteriors."""

    @pytest.fixture(scope="class")
    def asia(self):
        from repro.bayes import asia_network

        return asia_network()

    def test_prior_marginals(self, asia):
        mpf = MPFInference(asia)
        # Pr(tub=yes) = 0.99*0.01 + 0.01*0.05 = 0.0104
        tub = mpf.query("tub")
        assert float(tub.value_at({"tub": 1})) == pytest.approx(0.0104)
        # Pr(lung=yes) = 0.5*0.01 + 0.5*0.1 = 0.055
        lung = mpf.query("lung")
        assert float(lung.value_at({"lung": 1})) == pytest.approx(0.055)

    def test_matches_brute_force_everywhere(self, asia):
        mpf = MPFInference(asia)
        oracle = BruteForceInference(asia)
        for v in asia.variable_names:
            assert mpf.query(v).equals(oracle.query(v), SUM_PRODUCT)

    def test_diagnostic_evidence(self, asia):
        """Positive x-ray and dyspnoea raise Pr(lung cancer)."""
        mpf = MPFInference(asia)
        prior = float(mpf.query("lung").value_at({"lung": 1}))
        posterior = float(
            mpf.query("lung", evidence={"xray": 1, "dysp": 1})
            .value_at({"lung": 1})
        )
        assert posterior > 5 * prior
        oracle = BruteForceInference(asia)
        expected = oracle.query("lung", evidence={"xray": 1, "dysp": 1})
        got = mpf.query("lung", evidence={"xray": 1, "dysp": 1})
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_deterministic_node_zeros(self, asia):
        """either = tub OR lung exactly: impossible combinations carry
        zero mass in the joint."""
        joint = asia.joint()
        from repro.algebra import restrict

        impossible = restrict(
            joint, {"tub": 1, "lung": 0, "either": 0}
        )
        assert float(impossible.measure.sum()) == 0.0

    def test_cache_on_asia(self, asia):
        mpf = MPFInference(asia)
        oracle = BruteForceInference(asia)
        cache = mpf.build_cache(heuristic="width")
        for v in ("tub", "lung", "bronc", "dysp"):
            got = mpf.query_cached(cache, v)
            assert got.equals(oracle.query(v), SUM_PRODUCT,
                              ignore_zero_rows=True)

    def test_cache_with_evidence_on_asia(self, asia):
        mpf = MPFInference(asia)
        oracle = BruteForceInference(asia)
        cache = mpf.build_cache(heuristic="width")
        got = mpf.query_cached(cache, "bronc", evidence={"dysp": 1})
        expected = oracle.query("bronc", evidence={"dysp": 1})
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)


class TestLogSpaceInference:
    def test_matches_linear_space(self):
        bn = sprinkler_network()
        linear = MPFInference(bn)
        logspace = MPFInference(bn, log_space=True)
        for v in bn.variable_names:
            assert logspace.query(v).equals(linear.query(v), SUM_PRODUCT)

    def test_evidence_in_log_space(self):
        bn = sprinkler_network()
        logspace = MPFInference(bn, log_space=True)
        oracle = BruteForceInference(bn)
        got = logspace.query("rain", evidence={"wet_grass": 1})
        expected = oracle.query("rain", evidence={"wet_grass": 1})
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_map_query_in_log_space(self):
        bn = sprinkler_network()
        logspace = MPFInference(bn, log_space=True)
        oracle = BruteForceInference(bn)
        got = logspace.map_query(["rain"], evidence={"wet_grass": 1})
        expected = oracle.map_query(["rain"], evidence={"wet_grass": 1})
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_deep_chain_stays_finite(self):
        """A 40-node chain of smallish probabilities: linear-space
        unnormalized mass underflows toward 0, log space is exact."""
        bn = chain_network(length=40, domain_size=2, seed=2)
        logspace = MPFInference(bn, log_space=True)
        posterior = logspace.query("X20")
        assert np.isfinite(posterior.measure).all()
        assert posterior.measure.sum() == pytest.approx(1.0)

    def test_cached_inference_in_log_space(self):
        bn = chain_network(length=6)
        logspace = MPFInference(bn, log_space=True)
        oracle = BruteForceInference(bn)
        cache = logspace.build_cache()
        got = logspace.query_cached(cache, "X2")
        assert got.equals(oracle.query("X2"), SUM_PRODUCT,
                          ignore_zero_rows=True)
