"""Power-flow solvers: one iteration loop, one update step per method.

All three methods run the same loop: start from the setpoint voltages,
evaluate the mismatch, take the method's update step, apply it,
re-evaluate, and stop once both mismatch infinity norms fall below the
tolerance. One iteration is one step, so an already-solved case still
reports a single iteration. The loop also stops early, with a warning and
the last finite state, when a voltage magnitude collapses to zero, the
mismatch stops being finite, or the step raises np.linalg.LinAlgError
(Newton's singular Jacobian). A method supplies only its step. The
decoupled step, shared by qpf and fd, solves

    B'  (V dtheta) = dP / V        then  dtheta = (V dtheta) / V
    B'' (dV)       = dQ / V

with constant matrices and skips a solve whose right-hand side is exactly
zero. Both methods prepare B' and B'' once, before the first iteration,
with linalg's one rule, so an unusable B' or B'' stops both with the same
error; qpf builds an HHL system for each, and every iteration only solves.
Newton-Raphson's step solves the full polar Jacobian, rebuilt every pass.
Non-convergence is a report state, never an exception, since stressed
studies run deliberately close to the solvability boundary.
"""

from __future__ import annotations

import functools
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

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {_METHODS}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
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


# A runaway state overflows numpy arithmetic in the mismatch or the step; the
# loop's non-finite check is the one report of that, so numpy stays quiet. One
# errstate per solve, since entering it costs about a third of a five-bus mismatch.
@np.errstate(over="ignore", invalid="ignore")
def _iterate(
    case: NetworkCase,
    config: SolverConfig,
    method: str,
    step,
    ybus: np.ndarray,
    prepared: tuple[hhl.PreparedSystem, ...] = (),
) -> SolveReport:
    """The loop every method shares; ``step`` is the method's update.

    ``step(v, theta, mismatch)`` returns dtheta over the non-slack buses,
    dV over the PQ buses and the HHL success probabilities of the pass, and
    may raise ``np.linalg.LinAlgError`` on a singular Jacobian. ``prepared``
    holds the HHL systems a qpf step solves with; their warnings go into
    the report, and a qpf report also carries the register sizes and
    usage counters.
    """
    ns = case.non_slack_indices
    pq = case.pq_indices

    v, theta = case.start_voltages()
    mis = network.compute_mismatch(case, v, theta, ybus)

    records: list[IterationRecord] = []
    warnings = [p.warning for p in prepared if p.warning]
    hhl_calls = 0
    converged = False
    for k in range(1, config.max_iterations + 1):
        try:
            dtheta, dv, success = step(v, theta, mis)
        except np.linalg.LinAlgError:
            warnings.append(f"singular Jacobian at iteration {k}")
            break
        hhl_calls += len(success)

        v_next = v.copy()
        v_next[pq] += dv
        if np.any(v_next <= 0.0):
            warnings.append(f"voltage magnitude collapsed to zero at iteration {k}; stopping")
            break
        theta_next = theta.copy()
        theta_next[ns] += dtheta

        mis_next = network.compute_mismatch(case, v_next, theta_next, ybus)
        if not (math.isfinite(mis_next.norm_p) and math.isfinite(mis_next.norm_q)):
            warnings.append(f"mismatch is not finite at iteration {k}; stopping")
            break
        v, theta, mis = v_next, theta_next, mis_next
        records.append(IterationRecord(k, v.copy(), theta.copy(), mis.norm_p, mis.norm_q, success))
        if mis.norm_p < config.tolerance and mis.norm_q < config.tolerance:
            converged = True
            break

    # k is the last iteration run: max_iterations >= 1, so the loop ran
    resource = None
    if method == QPF:
        resource = replace(
            resource_estimate(case, config),
            hhl_invocations=hhl_calls,
            prepare_reuse=(k - 1) * len(prepared),
        )
    return SolveReport(
        method=method,
        converged=converged,
        iterations=k,
        v=v,
        theta=theta,
        bus_ids=tuple(b.id for b in case.buses),
        slack_bus=case.buses[case.slack_index].id,
        flows=branch_flows(case, v, theta),
        trace=tuple(records),
        tolerance=config.tolerance,
        resource=resource,
        warnings=tuple(warnings),
    )


def _decoupled_step(case: NetworkCase, solve, systems: tuple):
    """The fd and qpf update: B' for V dtheta, then B'' for dV.

    ``solve(system, rhs)`` returns the solution and the success
    probabilities of the HHL calls it made. An exactly zero (or empty)
    right-hand side skips its solve.
    """
    ns = case.non_slack_indices
    pq = case.pq_indices

    def step(v, theta, mis):
        updates = []
        success: tuple[float, ...] = ()
        for system, delta, vk in zip(systems, (mis.dp, mis.dq), (v[ns], v[pq])):
            rhs = network.scaled_rhs(delta, vk)
            if np.any(rhs):
                x, probs = solve(system, rhs)
                success += probs
            else:
                x = np.zeros_like(rhs)
            updates.append(x)
        return updates[0] / v[ns], updates[1], success

    return step


def _direct(system: linalg.DirectSystem, rhs: np.ndarray):
    return linalg.solve_direct(system, rhs).real, ()


def _hhl(prepared: hhl.PreparedSystem, rhs: np.ndarray):
    sol = hhl.solve(prepared, rhs)
    return np.real(sol.solution), (sol.success_probability,)


def _solve_decoupled(case: NetworkCase, config: SolverConfig, method: str, prepare, solve):
    """fd and qpf: prepare B' and B'' once, then iterate the decoupled step.

    ``prepare(matrix, name=...)`` checks a constant matrix before the first
    iteration, and ``solve(system, rhs)`` is the step's linear solve.
    """
    mats = network.build_b_matrices(case)
    # B' is empty with only a slack bus, B'' with no PQ bus; so is the
    # right-hand side, which the step never solves
    systems = tuple(
        prepare(mat, name=name) if mat.size else None
        for mat, name in ((mats.b_prime, "B'"), (mats.b_double_prime, "B''"))
    )
    step = _decoupled_step(case, solve, systems)
    prepared = tuple(s for s in systems if s is not None) if method == QPF else ()
    return _iterate(case, config, method, step, mats.ybus, prepared)


def solve_qpf(case: NetworkCase, config: SolverConfig | None = None) -> SolveReport:
    """Decoupled power flow with both update systems solved by HHL."""
    config = config or SolverConfig(method=QPF)
    prepare = functools.partial(hhl.prepare_system, config=config.hhl)
    return _solve_decoupled(case, config, QPF, prepare, _hhl)


def solve_fast_decoupled(case: NetworkCase, config: SolverConfig | None = None) -> SolveReport:
    """Classical twin of solve_qpf: same loop, direct linear solves."""
    config = config or SolverConfig(method=FAST_DECOUPLED)
    return _solve_decoupled(case, config, FAST_DECOUPLED, linalg.prepare_direct, _direct)


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

    def step(v, theta, mis):
        rhs = np.concatenate([mis.dp, mis.dq])
        dx = np.zeros(ns.size + pq.size)
        if np.any(rhs):
            ds_dtheta, ds_dvm = _polar_jacobian(ybus, v * np.exp(1j * theta))
            jac = np.block(
                [
                    [ds_dtheta[np.ix_(ns, ns)].real, ds_dvm[np.ix_(ns, pq)].real],
                    [ds_dtheta[np.ix_(pq, ns)].imag, ds_dvm[np.ix_(pq, pq)].imag],
                ]
            )
            dx = np.linalg.solve(jac, rhs)
        return dx[: ns.size], dx[ns.size :], ()

    return _iterate(case, config, NEWTON, step, ybus)


def branch_flows(case: NetworkCase, v: np.ndarray, theta: np.ndarray) -> tuple[BranchFlow, ...]:
    """Sending/receiving P, Q per branch from the solved terminal voltages."""
    vc = np.asarray(v) * np.exp(1j * np.asarray(theta))
    out = []
    for br in case.branches:
        i = case.bus_index(br.from_bus)
        j = case.bus_index(br.to_bus)
        yff, yft, ytf, ytt = br.pi_admittances()
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
