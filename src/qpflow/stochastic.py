"""Correlated Monte Carlo power-flow study.

Gaussian injection samples are produced by Box-Muller over a Philox
counter-based generator keyed on (seed, sample index), so sample i is a
pure function of the seed and its index: batches can be generated in any
order, split, or parallelized and still agree bit for bit. Correlation is
imposed by Cholesky coloring of the standard draws. P and Q at a bus share
one underlying draw (scaled by their own standard deviations); listing a
bus twice with separate specs decouples them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, network, solvers
from .network import NetworkCase

DEFAULT_BINS = 50


@dataclass(frozen=True)
class UncertainInjection:
    """Gaussian net injection at a PQ bus, per-unit mean and std."""

    bus: int
    p_mean: float
    p_std: float
    q_mean: float = 0.0
    q_std: float = 0.0

    def __post_init__(self):
        for name in ("p_mean", "p_std", "q_mean", "q_std"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"bus {self.bus}: field {name!r} is not finite")
        if self.p_std < 0.0 or self.q_std < 0.0:
            raise ValueError(f"bus {self.bus}: standard deviations must be non-negative")


@dataclass(frozen=True)
class CorrelationSpec:
    """Pairwise Pearson coefficients, each between two distinct buses and listed once."""

    pairs: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        first: dict[frozenset, int] = {}
        for k, (i, j, rho) in enumerate(self.pairs):
            where = f"correlations[{k}]"
            if not -1.0 <= rho <= 1.0:
                raise ValueError(f"{where}: correlation {rho} for pair ({i}, {j}) outside [-1, 1]")
            if i == j:
                raise ValueError(f"{where}: pairs bus {i} with itself")
            key = frozenset((i, j))
            if key in first:
                raise ValueError(f"{where}: pair ({i}, {j}) repeats correlations[{first[key]}]")
            first[key] = k

    def matrix(self, buses: tuple[int, ...]) -> np.ndarray:
        """Correlation matrix over the given bus order; sample_injections' Cholesky checks it."""
        index = {b: k for k, b in enumerate(buses)}
        corr = np.eye(len(buses))
        for i, j, rho in self.pairs:
            if i not in index or j not in index:
                raise ValueError(f"correlation pair ({i}, {j}) names an unknown injection bus")
            corr[index[i], index[j]] = rho
            corr[index[j], index[i]] = rho
        return corr


@dataclass(frozen=True)
class InjectionBatch:
    """Sampled net injections: arrays of shape (n_samples, n_injections)."""

    buses: tuple[int, ...]
    p: np.ndarray
    q: np.ndarray


@dataclass(frozen=True)
class MonteCarloResult:
    n_samples: int
    bus_ids: tuple[int, ...]
    uncertain_buses: tuple[int, ...]
    voltages: np.ndarray  # (n_samples, n_bus)
    converged: np.ndarray  # (n_samples,) bool
    injections: InjectionBatch
    voltage_mean: dict[int, float]
    voltage_std: dict[int, float]
    voltage_correlation: dict[tuple[int, int], float]
    injection_correlation: dict[tuple[int, int], float]
    histograms: dict[int, tuple[np.ndarray, np.ndarray]] = field(repr=False, default_factory=dict)

    @property
    def n_converged(self) -> int:
        return int(self.converged.sum())


def _standard_normals(seed: int, index: int, count: int) -> np.ndarray:
    """Box-Muller normals from a Philox stream keyed on (seed, index)."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    pairs = (count + 1) // 2
    u1 = gen.random(pairs)
    u2 = gen.random(pairs)
    u1 = np.maximum(u1, np.finfo(float).tiny)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)])
    return z[:count]


def sample_injections(
    spec: list[UncertainInjection] | tuple[UncertainInjection, ...],
    corr: CorrelationSpec,
    n: int,
    seed: int,
) -> InjectionBatch:
    """Draw n correlated injection samples, deterministically from the seed."""
    if n < 1:
        raise ValueError("sample count must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    spec = tuple(spec)
    if not spec:
        raise ValueError("no uncertain injections given")
    buses = tuple(inj.bus for inj in spec)
    if len(set(buses)) != len(buses):
        raise ValueError("each bus may appear once in the injection spec")
    try:
        coloring = linalg.cholesky(corr.matrix(buses), "correlation matrix")
    except linalg.NotPositiveDefiniteError as exc:
        raise linalg.NotPositiveDefiniteError(f"{exc} (bus {buses[exc.pivot]})", exc.pivot) from None

    k = len(spec)
    p = np.empty((n, k))
    q = np.empty((n, k))
    p_mean = np.array([inj.p_mean for inj in spec])
    p_std = np.array([inj.p_std for inj in spec])
    q_mean = np.array([inj.q_mean for inj in spec])
    q_std = np.array([inj.q_std for inj in spec])
    for i in range(n):
        w = coloring @ _standard_normals(seed, i, k)
        p[i] = p_mean + p_std * w
        q[i] = q_mean + q_std * w
    return InjectionBatch(buses=buses, p=p, q=q)


def pearson(xs: np.ndarray, ys: np.ndarray) -> float:
    """Sample Pearson correlation coefficient of two equal-length series."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("series must be one-dimensional and of equal length")
    if xs.size < 2:
        raise ValueError("need at least two observations")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = np.sqrt((dx @ dx))
    sy = np.sqrt((dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("series has zero variance")
    return float(np.clip((dx @ dy) / (sx * sy), -1.0, 1.0))


def run_monte_carlo(
    case: NetworkCase,
    spec: list[UncertainInjection] | tuple[UncertainInjection, ...],
    corr: CorrelationSpec,
    n: int,
    seed: int,
    solver: solvers.SolverConfig | None = None,
    bins: int = DEFAULT_BINS,
) -> MonteCarloResult:
    """Sample injections, solve each case, aggregate voltage statistics.

    Non-converged samples are flagged and excluded from the summary
    statistics but never dropped from the record. Aggregation happens
    after all samples are in, so processing order cannot matter.
    """
    solver = solver or solvers.SolverConfig()
    spec = tuple(spec)
    for inj in spec:
        bus = case.buses[case.bus_index(inj.bus)]
        if bus.kind != network.PQ:
            raise ValueError(f"uncertain injection bus {inj.bus} is not a PQ bus")

    batch = sample_injections(spec, corr, n, seed)

    n_bus = case.n_bus
    voltages = np.empty((n, n_bus))
    converged = np.zeros(n, dtype=bool)
    for i in range(n):
        sampled = case
        for k, inj in enumerate(spec):
            sampled = sampled.with_scheduled_injection(inj.bus, batch.p[i, k], batch.q[i, k])
        report = solvers.solve(sampled, solver)
        voltages[i] = report.v
        converged[i] = report.converged

    ok = converged
    bus_ids = tuple(b.id for b in case.buses)
    col = {b: bus_ids.index(b) for b in batch.buses}
    voltage_mean = {}
    voltage_std = {}
    histograms = {}
    if ok.any():
        for b in batch.buses:
            samples = voltages[ok, col[b]]
            voltage_mean[b] = float(samples.mean())
            voltage_std[b] = float(samples.std(ddof=1)) if samples.size > 1 else 0.0
            histograms[b] = np.histogram(samples, bins=bins)

    voltage_correlation = {}
    injection_correlation = {}
    for a_idx in range(len(batch.buses)):
        for b_idx in range(a_idx + 1, len(batch.buses)):
            a, b = batch.buses[a_idx], batch.buses[b_idx]
            pa, pb = batch.p[:, a_idx], batch.p[:, b_idx]
            if n >= 2 and pa.std() > 0.0 and pb.std() > 0.0:
                injection_correlation[(a, b)] = pearson(pa, pb)
            if ok.sum() >= 2:
                va = voltages[ok, col[a]]
                vb = voltages[ok, col[b]]
                if va.std() > 0.0 and vb.std() > 0.0:
                    voltage_correlation[(a, b)] = pearson(va, vb)

    return MonteCarloResult(
        n_samples=n,
        bus_ids=bus_ids,
        uncertain_buses=batch.buses,
        voltages=voltages,
        converged=converged,
        injections=batch,
        voltage_mean=voltage_mean,
        voltage_std=voltage_std,
        voltage_correlation=voltage_correlation,
        injection_correlation=injection_correlation,
        histograms=histograms,
    )
