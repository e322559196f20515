"""Power-flow solvers: the quantum-assisted decoupled loop and its oracles.

All three methods share the same outer structure: evaluate the mismatch,
solve the update equations, apply the update, re-evaluate, and stop once
both mismatch infinity norms fall below the tolerance. One iteration is
one linear-solve pass, so an already-solved case still reports a single
iteration. The decoupled methods solve

    B'  (V dtheta) = dP / V        then  dtheta = (V dtheta) / V
    B'' (dV)       = dQ / V

with constant matrices; the quantum variant routes both systems through
the HHL solver prepared once on the first iteration, the classical variant
uses the direct solver, and Newton-Raphson rebuilds the full polar
Jacobian every pass. Non-convergence is a report state, never an
exception, since stressed studies run deliberately close to the
solvability boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import hhl, linalg, network
from .network import NetworkCase

QPF = "qpf"
FAST_DECOUPLED = "fd"
NEWTON = "nr"
_METHODS = (QPF, FAST_DECOUPLED, NEWTON)


@dataclass(frozen=True)
class SolverConfig:
    method: str = FAST_DECOUPLED
    tolerance: float = 1e-5
    max_iterations: int = 100
    hhl: hhl.HHLConfig = field(default_factory=hhl.HHLConfig)
    flat_start: bool = True

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {_METHODS}")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    """State after one solve pass, with the mismatch evaluated there."""

    iteration: int
    v: np.ndarray
    theta: np.ndarray
    norm_p: float
    norm_q: float
    hhl_success: tuple[float, ...] = ()


@dataclass(frozen=True)
class ResourceReport:
    """Quantum register sizes and, after a solve, usage counters."""

    n_clock: int
    n_vector: int
    qubits_total: int
    hhl_invocations: int = 0
    prepare_reuse: int = 0


@dataclass(frozen=True)
class BranchFlow:
    from_bus: int
    to_bus: int
    p_from: float
    q_from: float
    p_to: float
    q_to: float

    @property
    def p_loss(self) -> float:
        return self.p_from + self.p_to

    @property
    def q_loss(self) -> float:
        return self.q_from + self.q_to


@dataclass(frozen=True)
class SolveReport:
    method: str
    converged: bool
    iterations: int
    v: np.ndarray
    theta: np.ndarray
    bus_ids: tuple[int, ...]
    slack_bus: int
    flows: tuple[BranchFlow, ...]
    trace: tuple[IterationRecord, ...]
    tolerance: float
    resource: ResourceReport | None = None
    warnings: tuple[str, ...] = ()


def _zero_safe_solve(solve, rhs: np.ndarray):
    """Skip the linear solver entirely on an exactly-zero right-hand side."""
    if rhs.size == 0 or not np.any(rhs):
        return np.zeros_like(rhs), None
    return solve(rhs)


class _DirectBackend:
    """Classical oracle: direct dense solves against the constant matrices."""

    def __init__(self, mats: network.FastDecoupledMatrices):
        self.mats = mats
        self.warnings: tuple[str, ...] = ()

    def solve_p(self, rhs):
        return linalg.solve_direct(self.mats.b_prime, rhs).real, None

    def solve_q(self, rhs):
        return linalg.solve_direct(self.mats.b_double_prime, rhs).real, None


class _HHLBackend:
    """Quantum route: systems prepared once, reused every iteration."""

    def __init__(self, mats: network.FastDecoupledMatrices, config: hhl.HHLConfig):
        self.prepared_p = hhl.prepare_system(mats.b_prime, config)
        self.prepared_q = (
            hhl.prepare_system(mats.b_double_prime, config)
            if mats.b_double_prime.size
            else None
        )
        self.invocations = 0
        self.warnings = tuple(
            w
            for w in (
                self.prepared_p.warning,
                self.prepared_q.warning if self.prepared_q else None,
            )
            if w
        )

    def solve_p(self, rhs):
        self.invocations += 1
        sol = hhl.solve(self.prepared_p, rhs, diagnostics=False)
        return np.real(sol.solution), sol.success_probability

    def solve_q(self, rhs):
        self.invocations += 1
        sol = hhl.solve(self.prepared_q, rhs, diagnostics=False)
        return np.real(sol.solution), sol.success_probability


def _decoupled_loop(case: NetworkCase, config: SolverConfig, quantum: bool) -> SolveReport:
    mats = network.build_b_matrices(case)
    ybus = network.build_ybus(case)
    ns = case.non_slack_indices
    pq = case.pq_indices

    v, theta = case.start_voltages(flat=config.flat_start)
    mis = network.compute_mismatch(case, v, theta, ybus)

    backend = None
    records: list[IterationRecord] = []
    converged = False
    diverged = None
    iterations = 0
    for k in range(1, config.max_iterations + 1):
        iterations = k
        if backend is None:  # first iteration only: hand the matrices over
            backend = _HHLBackend(mats, config.hhl) if quantum else _DirectBackend(mats)

        success: list[float] = []
        rhs_p = network.scaled_rhs(mis.dp, v[ns])
        v_dtheta, prob = _zero_safe_solve(backend.solve_p, rhs_p)
        if prob is not None:
            success.append(prob)
        dtheta = v_dtheta / v[ns]

        dv = np.zeros(pq.size)
        if pq.size:
            rhs_q = network.scaled_rhs(mis.dq, v[pq])
            dv, prob = _zero_safe_solve(backend.solve_q, rhs_q)
            if prob is not None:
                success.append(prob)

        v_next = v.copy()
        v_next[pq] += dv
        if np.any(v_next <= 0.0):
            diverged = f"voltage magnitude collapsed to zero at iteration {k}; stopping"
            break
        theta = theta.copy()
        theta[ns] += dtheta
        v = v_next

        mis = network.compute_mismatch(case, v, theta, ybus)
        records.append(
            IterationRecord(k, v.copy(), theta.copy(), mis.norm_p, mis.norm_q, tuple(success))
        )
        if mis.norm_p < config.tolerance and mis.norm_q < config.tolerance:
            converged = True
            break

    resource = None
    warnings: tuple[str, ...] = backend.warnings if backend else ()
    if diverged:
        warnings = warnings + (diverged,)
    if quantum:
        est = resource_estimate(case, config)
        n_systems = 1 + (1 if mats.b_double_prime.size else 0)
        resource = replace(
            est,
            hhl_invocations=backend.invocations,
            prepare_reuse=(iterations - 1) * n_systems,
        )

    return SolveReport(
        method=QPF if quantum else FAST_DECOUPLED,
        converged=converged,
        iterations=iterations,
        v=v,
        theta=theta,
        bus_ids=tuple(b.id for b in case.buses),
        slack_bus=case.buses[case.slack_index].id,
        flows=branch_flows(case, v, theta),
        trace=tuple(records),
        tolerance=config.tolerance,
        resource=resource,
        warnings=warnings,
    )


def solve_qpf(case: NetworkCase, config: SolverConfig | None = None) -> SolveReport:
    """Decoupled power flow with both update systems solved by HHL."""
    config = config or SolverConfig(method=QPF)
    return _decoupled_loop(case, config, quantum=True)


def solve_fast_decoupled(case: NetworkCase, config: SolverConfig | None = None) -> SolveReport:
    """Classical twin of solve_qpf: same loop, direct linear solves."""
    config = config or SolverConfig(method=FAST_DECOUPLED)
    return _decoupled_loop(case, config, quantum=False)


def solve(case: NetworkCase, config: SolverConfig | None = None) -> SolveReport:
    """Run the method that ``config.method`` names (fast-decoupled by default)."""
    config = config or SolverConfig()
    if config.method == QPF:
        return solve_qpf(case, config)
    if config.method == NEWTON:
        return solve_newton(case, config)
    return solve_fast_decoupled(case, config)


def _polar_jacobian(ybus: np.ndarray, vc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dS/dtheta and dS/d|V| of the complex injection, per bus."""
    ibus = ybus @ vc
    diag_v = np.diag(vc)
    diag_i = np.diag(ibus)
    diag_vn = np.diag(vc / np.abs(vc))
    ds_dtheta = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_vn) + np.conj(diag_i) @ diag_vn
    return ds_dtheta, ds_dvm


def solve_newton(case: NetworkCase, config: SolverConfig | None = None) -> SolveReport:
    """Full Newton-Raphson in polar form, Jacobian rebuilt each pass."""
    config = config or SolverConfig(method=NEWTON)
    ybus = network.build_ybus(case)
    ns = case.non_slack_indices
    pq = case.pq_indices

    v, theta = case.start_voltages(flat=config.flat_start)
    mis = network.compute_mismatch(case, v, theta, ybus)

    records: list[IterationRecord] = []
    warnings: list[str] = []
    converged = False
    iterations = 0
    for k in range(1, config.max_iterations + 1):
        iterations = k
        rhs = np.concatenate([mis.dp, mis.dq])
        if np.any(rhs):
            vc = v * np.exp(1j * theta)
            ds_dtheta, ds_dvm = _polar_jacobian(ybus, vc)
            jac = np.block(
                [
                    [ds_dtheta[np.ix_(ns, ns)].real, ds_dvm[np.ix_(ns, pq)].real],
                    [ds_dtheta[np.ix_(pq, ns)].imag, ds_dvm[np.ix_(pq, pq)].imag],
                ]
            )
            try:
                step = np.linalg.solve(jac, rhs)
            except np.linalg.LinAlgError:
                warnings.append(f"singular Jacobian at iteration {k}")
                break
        else:
            step = np.zeros(ns.size + pq.size)

        v_next = v.copy()
        v_next[pq] += step[ns.size :]
        if np.any(v_next <= 0.0):
            warnings.append(f"voltage magnitude collapsed to zero at iteration {k}; stopping")
            break
        theta = theta.copy()
        theta[ns] += step[: ns.size]
        v = v_next

        mis = network.compute_mismatch(case, v, theta, ybus)
        records.append(IterationRecord(k, v.copy(), theta.copy(), mis.norm_p, mis.norm_q))
        if mis.norm_p < config.tolerance and mis.norm_q < config.tolerance:
            converged = True
            break

    return SolveReport(
        method=NEWTON,
        converged=converged,
        iterations=iterations,
        v=v,
        theta=theta,
        bus_ids=tuple(b.id for b in case.buses),
        slack_bus=case.buses[case.slack_index].id,
        flows=branch_flows(case, v, theta),
        trace=tuple(records),
        tolerance=config.tolerance,
        warnings=tuple(warnings),
    )


def branch_flows(case: NetworkCase, v: np.ndarray, theta: np.ndarray) -> tuple[BranchFlow, ...]:
    """Sending/receiving P, Q per branch from the solved terminal voltages."""
    vc = np.asarray(v) * np.exp(1j * np.asarray(theta))
    out = []
    for br in case.branches:
        i = case.bus_index(br.from_bus)
        j = case.bus_index(br.to_bus)
        ys = br.series_admittance
        ych = 1j * br.b / 2.0
        tap = br.tap
        yff = (ys + ych) / (tap * tap)
        yft = -ys / tap
        ytf = -ys / tap
        ytt = ys + ych
        s_from = vc[i] * np.conj(yff * vc[i] + yft * vc[j])
        s_to = vc[j] * np.conj(ytf * vc[i] + ytt * vc[j])
        out.append(
            BranchFlow(
                from_bus=br.from_bus,
                to_bus=br.to_bus,
                p_from=float(s_from.real),
                q_from=float(s_from.imag),
                p_to=float(s_to.real),
                q_to=float(s_to.imag),
            )
        )
    return tuple(out)


def resource_estimate(case: NetworkCase, config: SolverConfig | None = None) -> ResourceReport:
    """Register sizes the quantum route needs for this case.

    The vector register covers the larger of the two decoupled systems;
    usage counters stay zero here and are filled in by an actual solve
    (two HHL calls per iteration once the systems are prepared).
    """
    config = config or SolverConfig(method=QPF)
    dim = max(case.non_slack_indices.size, case.pq_indices.size, 1)
    n_vector = max(1, math.ceil(math.log2(dim)))
    n_clock = config.hhl.n_clock
    return ResourceReport(
        n_clock=n_clock,
        n_vector=n_vector,
        qubits_total=n_clock + n_vector + 1,
    )
