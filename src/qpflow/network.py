"""Power-network data model and the fast-decoupled formulation.

All electrical quantities are per-unit on the case's MVA base; angles are
radians throughout (degrees only ever appear at the CLI boundary). The
fast-decoupled matrices follow the XB scheme: B' is built from branch
reactances alone (resistance, charging, shunts and taps ignored) over the
non-slack buses, and B'' is the negated imaginary part of the full bus
admittance matrix reduced to the PQ buses. Both come out symmetric
positive definite for a well-posed case, which the quantum solver requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

SLACK = "slack"
PV = "pv"
PQ = "pq"
_KINDS = (SLACK, PV, PQ)

SYMMETRY_ATOL = 1e-12

_BUS_NUMBERS = ("pd", "qd", "pg", "qg", "vset", "gs", "bs")
_BRANCH_NUMBERS = ("r", "x", "b", "tap")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_finite(record, where: str, names: tuple[str, ...]):
    """Raise a ValueError naming the first of ``names`` that is NaN or infinite."""
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ValueError(f"{where}: field {name!r} is not finite ({value})")


@dataclass(frozen=True)
class Bus:
    """One bus: type, load, generation, setpoint and shunt, all per-unit."""

    id: int
    kind: str
    pd: float = 0.0
    qd: float = 0.0
    pg: float = 0.0
    qg: float = 0.0
    vset: float = 1.0
    gs: float = 0.0
    bs: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"bus {self.id}: unknown kind {self.kind!r}")
        _check_finite(self, f"bus {self.id}", _BUS_NUMBERS)
        if self.vset <= 0.0:
            raise ValueError(f"bus {self.id}: voltage setpoint must be positive")


@dataclass(frozen=True)
class Branch:
    """A series branch with optional charging and an off-nominal tap."""

    from_bus: int
    to_bus: int
    r: float
    x: float
    b: float = 0.0
    tap: float = 1.0

    def __post_init__(self):
        _check_finite(self, f"branch {self.from_bus}-{self.to_bus}", _BRANCH_NUMBERS)
        if self.x == 0.0:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: reactance is zero")
        if self.from_bus == self.to_bus:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: endpoints coincide")
        if self.tap <= 0.0:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: tap must be positive")

    def pi_admittances(self) -> tuple[complex, complex, complex, complex]:
        """(yff, yft, ytf, ytt) of the pi model: terminal currents from voltages.

        Half the charging sits at each end; the tap divides the from side.
        """
        ys = 1.0 / complex(self.r, self.x)
        ych = 1j * self.b / 2.0
        mutual = -ys / self.tap  # no phase shift, so yft = ytf
        return (ys + ych) / (self.tap * self.tap), mutual, mutual, ys + ych


@dataclass(frozen=True)
class NetworkCase:
    """Immutable grid description: buses, branches, base power."""

    name: str
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "branches", tuple(self.branches))
        if self.base_mva <= 0.0:
            raise ValueError("base power must be positive")
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate bus ids: {', '.join(map(str, dupes))}")
        slacks = [b.id for b in self.buses if b.kind == SLACK]
        if len(slacks) != 1:
            if not slacks:
                raise ValueError("case has no slack bus")
            raise ValueError(
                "case has multiple slack buses: " + ", ".join(map(str, slacks))
            )
        known = set(ids)
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in known:
                    raise ValueError(f"branch references unknown bus {end}")
        self._check_connected()

    def _check_connected(self):
        if not self.buses:
            raise ValueError("case has no buses")
        adj: dict[int, set[int]] = {b.id: set() for b in self.buses}
        for br in self.branches:
            adj[br.from_bus].add(br.to_bus)
            adj[br.to_bus].add(br.from_bus)
        seen = {self.buses[0].id}
        stack = [self.buses[0].id]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        missing = sorted(set(adj) - seen)
        if missing:
            raise ValueError(
                "network graph is disconnected; unreachable buses: "
                + ", ".join(map(str, missing))
            )

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    # The index data below is derived once per case and cached on the
    # instance; the case is frozen, so it cannot go stale, and the arrays
    # come back read-only so no caller can corrupt the cache.

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    def bus_index(self, bus_id: int) -> int:
        try:
            return self._positions[bus_id]
        except KeyError:
            raise KeyError(f"no bus with id {bus_id}") from None

    @cached_property
    def slack_index(self) -> int:
        return next(i for i, b in enumerate(self.buses) if b.kind == SLACK)

    @cached_property
    def non_slack_indices(self) -> np.ndarray:
        return _read_only(
            np.array([i for i, b in enumerate(self.buses) if b.kind != SLACK], dtype=int)
        )

    @cached_property
    def pq_indices(self) -> np.ndarray:
        return _read_only(
            np.array([i for i, b in enumerate(self.buses) if b.kind == PQ], dtype=int)
        )

    @cached_property
    def _scheduled(self) -> tuple[np.ndarray, np.ndarray]:
        p = np.array([b.pg - b.pd for b in self.buses])
        q = np.array([b.qg - b.qd for b in self.buses])
        return _read_only(p), _read_only(q)

    def scheduled_injections(self) -> tuple[np.ndarray, np.ndarray]:
        """Net scheduled (P, Q) per bus: generation minus load (read-only)."""
        return self._scheduled

    def start_voltages(self) -> tuple[np.ndarray, np.ndarray]:
        """Initial (V, theta): setpoints at slack/PV, flat 1.0 elsewhere."""
        v = np.ones(self.n_bus)
        for i, b in enumerate(self.buses):
            if b.kind in (SLACK, PV):
                v[i] = b.vset
        return v, np.zeros(self.n_bus)

    def with_scheduled_injection(
        self, bus_id: int, p: float, q: float
    ) -> "NetworkCase":
        """Copy of the case with one bus's net injection overwritten.

        Generation is held; the load is adjusted so pg - pd = p (and the
        reactive analogue), which is how sampled injections enter a study.
        """
        i = self.bus_index(bus_id)
        bus = self.buses[i]
        new_bus = replace(bus, pd=bus.pg - p, qd=bus.qg - q)
        buses = self.buses[:i] + (new_bus,) + self.buses[i + 1 :]
        return replace(self, buses=buses)


@dataclass(frozen=True)
class FastDecoupledMatrices:
    """B' over non-slack buses and B'' over PQ buses, with bus-id maps.

    ``ybus`` is the bus admittance matrix B'' was reduced from, kept so a
    solve needs only one Y-bus build.
    """

    b_prime: np.ndarray
    b_double_prime: np.ndarray
    b_prime_bus_ids: tuple[int, ...]
    b_double_prime_bus_ids: tuple[int, ...]
    ybus: np.ndarray


@dataclass(frozen=True)
class Mismatch:
    """Scheduled minus calculated injections, with their infinity norms."""

    dp: np.ndarray  # over non-slack buses
    dq: np.ndarray  # over PQ buses
    norm_p: float
    norm_q: float


def build_ybus(case: NetworkCase) -> np.ndarray:
    """Nodal admittance matrix with tap handling and half charging per end."""
    n = case.n_bus
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        i = case.bus_index(br.from_bus)
        j = case.bus_index(br.to_bus)
        yff, yft, ytf, ytt = br.pi_admittances()
        y[i, i] += yff
        y[i, j] += yft
        y[j, i] += ytf
        y[j, j] += ytt
    for k, bus in enumerate(case.buses):
        y[k, k] += complex(bus.gs, bus.bs)
    return y


def build_b_matrices(case: NetworkCase) -> FastDecoupledMatrices:
    """XB fast-decoupled matrices, validated symmetric positive definite."""
    n = case.n_bus
    bp_full = np.zeros((n, n))
    for br in case.branches:
        i = case.bus_index(br.from_bus)
        j = case.bus_index(br.to_bus)
        w = 1.0 / br.x
        bp_full[i, i] += w
        bp_full[j, j] += w
        bp_full[i, j] -= w
        bp_full[j, i] -= w

    ns = case.non_slack_indices
    pq = case.pq_indices
    b_prime = bp_full[np.ix_(ns, ns)]
    ybus = build_ybus(case)
    b_double_prime = -ybus.imag[np.ix_(pq, pq)]

    for mat, label in ((b_prime, "B'"), (b_double_prime, "B''")):
        if mat.size == 0:
            continue
        if np.abs(mat - mat.T).max() > SYMMETRY_ATOL * max(1.0, np.abs(mat).max()):
            raise ValueError(f"{label} came out asymmetric; check branch data")
        w = np.linalg.eigvalsh(mat)
        if w[0] <= 0.0:
            raise ValueError(
                f"{label} is not positive definite (smallest eigenvalue {w[0]:.3e}); "
                "inspect the case for islanded PQ buses or pathological shunts"
            )

    return FastDecoupledMatrices(
        b_prime=b_prime,
        b_double_prime=b_double_prime,
        b_prime_bus_ids=tuple(case.buses[i].id for i in ns),
        b_double_prime_bus_ids=tuple(case.buses[i].id for i in pq),
        ybus=ybus,
    )


def compute_mismatch(
    case: NetworkCase,
    v: np.ndarray,
    theta: np.ndarray,
    ybus: np.ndarray | None = None,
) -> Mismatch:
    """Power mismatch at (V, theta): schedule minus network injection.

    dp covers the non-slack buses, dq the PQ buses, both in case bus order.
    """
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if v.shape != (case.n_bus,) or theta.shape != (case.n_bus,):
        raise ValueError("V and theta must cover every bus")
    if np.any(v <= 0.0):
        bad = int(np.flatnonzero(v <= 0.0)[0])
        raise ValueError(f"voltage magnitude at bus {case.buses[bad].id} is not positive")
    if ybus is None:
        ybus = build_ybus(case)
    vc = v * np.exp(1j * theta)
    s_calc = vc * np.conj(ybus @ vc)
    p_sched, q_sched = case.scheduled_injections()
    dp_full = p_sched - s_calc.real
    dq_full = q_sched - s_calc.imag
    ns = case.non_slack_indices
    pq = case.pq_indices
    dp = dp_full[ns]
    dq = dq_full[pq]
    return Mismatch(
        dp=dp,
        dq=dq,
        norm_p=float(np.abs(dp).max(initial=0.0)),
        norm_q=float(np.abs(dq).max(initial=0.0)),
    )


def scaled_rhs(delta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise delta / V, the right-hand-side scaling of the model."""
    delta = np.asarray(delta, dtype=float)
    v = np.asarray(v, dtype=float)
    if delta.shape != v.shape:
        raise ValueError(f"length mismatch: {delta.shape} vs {v.shape}")
    if np.any(v == 0.0):
        raise ValueError("voltage vector has a zero entry")
    return delta / v
