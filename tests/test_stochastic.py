"""Monte Carlo machinery: sampling determinism, correlation, aggregation."""

import numpy as np
import pytest

from qpflow import cases, linalg, solvers, stochastic


def two_injections(p_std=0.05, q_std=0.01):
    return (
        stochastic.UncertainInjection(bus=3, p_mean=-0.45, p_std=p_std, q_mean=-0.15, q_std=q_std),
        stochastic.UncertainInjection(bus=4, p_mean=-0.40, p_std=p_std, q_mean=-0.05, q_std=q_std),
    )


CORR = stochastic.CorrelationSpec(pairs=((3, 4, 0.75),))


class TestSampling:
    def test_zero_std_degenerates_to_mean(self):
        batch = stochastic.sample_injections(two_injections(0.0, 0.0), CORR, n=7, seed=1)
        assert np.allclose(batch.p, [[-0.45, -0.40]] * 7)
        assert np.allclose(batch.q, [[-0.15, -0.05]] * 7)

    def test_empirical_correlation(self):
        batch = stochastic.sample_injections(two_injections(), CORR, n=5000, seed=2)
        rho = stochastic.pearson(batch.p[:, 0], batch.p[:, 1])
        assert abs(rho - 0.75) <= 0.03

    def test_correlation_across_seeds(self):
        for seed in range(10):
            batch = stochastic.sample_injections(two_injections(), CORR, n=5000, seed=seed)
            rho = stochastic.pearson(batch.p[:, 0], batch.p[:, 1])
            assert abs(rho - 0.75) <= 0.03

    def test_same_seed_identical(self):
        a = stochastic.sample_injections(two_injections(), CORR, n=64, seed=9)
        b = stochastic.sample_injections(two_injections(), CORR, n=64, seed=9)
        assert np.array_equal(a.p, b.p)
        assert np.array_equal(a.q, b.q)

    def test_sample_depends_only_on_seed_and_index(self):
        small = stochastic.sample_injections(two_injections(), CORR, n=10, seed=4)
        large = stochastic.sample_injections(two_injections(), CORR, n=200, seed=4)
        assert np.array_equal(small.p, large.p[:10])

    def test_moments_roughly_match(self):
        batch = stochastic.sample_injections(two_injections(p_std=0.05), CORR, n=5000, seed=5)
        assert batch.p[:, 0].mean() == pytest.approx(-0.45, abs=0.005)
        assert batch.p[:, 0].std(ddof=1) == pytest.approx(0.05, rel=0.1)

    def test_rejects_non_pd_correlation(self):
        bad = stochastic.CorrelationSpec(pairs=((3, 4, 0.999), (4, 5, 0.999), (3, 5, -0.999)))
        spec = two_injections() + (
            stochastic.UncertainInjection(bus=5, p_mean=-0.6, p_std=0.05),
        )
        # the message names the matrix and the bus of the failing pivot
        with pytest.raises(
            linalg.NotPositiveDefiniteError,
            match=r"^correlation matrix is not positive definite: pivot 2 is .* \(bus 5\)$",
        ):
            stochastic.sample_injections(spec, bad, n=3, seed=0)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            (((3, 3, 0.25),), r"^correlations\[0\]: pairs bus 3 with itself$"),
            (
                ((3, 4, 0.5), (4, 3, -0.5)),
                r"^correlations\[1\]: pair \(4, 3\) repeats correlations\[0\]$",
            ),
        ],
        ids=["self-pair", "repeated-pair"],
    )
    def test_rejects_pairs_that_would_overwrite_an_entry(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            stochastic.CorrelationSpec(pairs=pairs)

    def test_rejects_out_of_range_rho(self):
        with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
            stochastic.CorrelationSpec(pairs=((3, 4, 1.5),))

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="at least 1"):
            stochastic.sample_injections(two_injections(), CORR, n=0, seed=0)


class TestPearson:
    def test_identical_series(self):
        xs = np.array([0.3, 1.7, 2.2, 5.0])
        assert stochastic.pearson(xs, xs) == pytest.approx(1.0)

    def test_negated_series(self):
        xs = np.array([0.3, 1.7, 2.2, 5.0])
        assert stochastic.pearson(xs, -xs) == pytest.approx(-1.0)

    def test_hand_value(self):
        # means 2 and 14/3; sum dx dy = 6; r = 18 / sqrt(336)
        r = stochastic.pearson(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 8.0]))
        assert r == pytest.approx(0.9819805060619657, abs=1e-12)

    def test_rejects_zero_variance(self):
        with pytest.raises(ValueError, match="zero variance"):
            stochastic.pearson(np.array([1.0, 1.0]), np.array([1.0, 2.0]))

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="two observations"):
            stochastic.pearson(np.array([1.0]), np.array([2.0]))


class TestMonteCarlo:
    def test_degenerate_study_equals_deterministic(self):
        case = cases.five_bus()
        result = stochastic.run_monte_carlo(
            case, two_injections(0.0, 0.0), CORR, n=1, seed=0
        )
        det = solvers.solve_fast_decoupled(case)
        assert result.n_converged == 1
        assert np.abs(result.voltages[0] - det.v).max() < 1e-12

    def test_five_bus_statistics(self):
        doc = cases.load_document("five_bus")
        result = stochastic.run_monte_carlo(
            doc.case, doc.injections, doc.correlations, n=400, seed=11
        )
        assert result.n_converged == 400
        assert result.voltage_correlation[(3, 4)] > 0.0
        det = solvers.solve_fast_decoupled(doc.case)
        for bus in (3, 4):
            i = det.bus_ids.index(bus)
            se = result.voltage_std[bus] / np.sqrt(result.n_converged)
            assert abs(result.voltage_mean[bus] - det.v[i]) <= 3.0 * se

    def test_qpf_batch_matches_classical(self):
        doc = cases.load_document("five_bus")
        fd = stochastic.run_monte_carlo(doc.case, doc.injections, doc.correlations, n=25, seed=3)
        qpf = stochastic.run_monte_carlo(
            doc.case, doc.injections, doc.correlations, n=25, seed=3,
            solver=solvers.SolverConfig(method="qpf"),
        )
        assert np.abs(fd.voltages - qpf.voltages).max() <= 1e-3

    def test_seed_determinism_end_to_end(self):
        doc = cases.load_document("five_bus")
        a = stochastic.run_monte_carlo(doc.case, doc.injections, doc.correlations, n=50, seed=21)
        b = stochastic.run_monte_carlo(doc.case, doc.injections, doc.correlations, n=50, seed=21)
        assert np.array_equal(a.voltages, b.voltages)
        assert np.array_equal(a.converged, b.converged)
        assert a.voltage_correlation == b.voltage_correlation

    @pytest.mark.parametrize("method", ["fd", "qpf"])
    def test_one_cholesky_per_study(self, monkeypatch, method):
        doc = cases.load_document("five_bus")
        calls = []
        original = linalg.cholesky
        monkeypatch.setattr(
            linalg, "cholesky", lambda c, name: calls.append(c) or original(c, name)
        )
        stochastic.run_monte_carlo(
            doc.case, doc.injections, doc.correlations, n=20, seed=3,
            solver=solvers.SolverConfig(method=method),
        )
        assert len(calls) == 1

    def test_histogram_counts_cover_converged_samples(self):
        doc = cases.load_document("five_bus")
        result = stochastic.run_monte_carlo(doc.case, doc.injections, doc.correlations, n=120, seed=6)
        for counts, _ in result.histograms.values():
            assert counts.sum() == result.n_converged

    def test_non_converged_samples_counted(self):
        # huge spread pushes some samples past the solvability boundary
        doc = cases.load_document("five_bus")
        wild = tuple(
            stochastic.UncertainInjection(inj.bus, inj.p_mean * 4.0, 2.0, inj.q_mean, 0.3)
            for inj in doc.injections
        )
        result = stochastic.run_monte_carlo(doc.case, wild, doc.correlations, n=40, seed=13)
        assert result.converged.shape == (40,)
        assert result.n_converged < 40
        assert len(result.converged) == result.n_samples

    def test_rejects_non_pq_bus(self):
        case = cases.five_bus()
        bad = (stochastic.UncertainInjection(bus=2, p_mean=0.1, p_std=0.01),)
        with pytest.raises(ValueError, match="not a PQ bus"):
            stochastic.run_monte_carlo(case, bad, stochastic.CorrelationSpec(), n=2, seed=0)
