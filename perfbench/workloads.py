"""The three benchmark workloads: inputs from the seed, one operation, checks.

A workload is built once per process (its set-up) and runs operation ``i``
on the ``i``-th generated input. ``check`` takes each operation's result
right after it ran, outside the timed span, and keeps only running tallies,
so the benchmark's own memory does not grow with the number of operations
a run fits in. qpflow only ever sees the generated inputs: jittered case
text, or a sample seed for a Monte Carlo study.

Every call into qpflow looks the function up on its module at call time,
so the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from qpflow import caseio, cases, hhl, solvers, stochastic

# Acceptance-suite tolerances (tests/test_acceptance.py).
FINAL_TOL = 1e-3
CORR_TOL = 0.03
CONVERGED_SHARE = 0.99
EMIT_TOL = 1e-12  # reports carry 15 significant digits

INPUT_POOL = 64  # generated inputs; operation i uses input i % INPUT_POOL
JITTER = 0.10
# Operations compared with a classical reference solve: the first
# REFERENCE_OPS solves, or the studies that hold the first REFERENCE_SAMPLES
# samples. A fixed prefix keeps max_dev_pu a function of the seed alone,
# whatever the host's speed, and keeps the Newton reference (a third of
# mc-fd's timed work) out of the run's wall time. Every run completes at
# least this many operations.
REFERENCE_OPS = 20
REFERENCE_SAMPLES = 1000


@dataclass
class CheckResult:
    failed: int = 0  # failed units (operations or samples)
    max_dev_pu: float = 0.0
    problems: list[str] = field(default_factory=list)


class Chain16:
    """One QPF solve of a jittered ``chain_16`` per operation."""

    name = "qpf-chain16"
    case_name = "chain_16"
    n_clock = 9  # the acceptance suite's clock size for this case
    samples_per_op = 1
    reference_ops = REFERENCE_OPS
    trace_window = 4

    def __init__(self, seed: int):
        base = json.loads(cases.case_path(self.case_name).read_text())
        rng = random.Random(seed)
        self.inputs = [self._jittered(base, rng) for _ in range(INPUT_POOL)]
        self.config = solvers.SolverConfig(method="qpf", hhl=hhl.HHLConfig(n_clock=self.n_clock))
        self.checked = CheckResult()

    @staticmethod
    def _jittered(base: dict, rng: random.Random) -> str:
        """Case text with every PQ load scaled by one factor in [0.9, 1.1]."""
        doc = json.loads(json.dumps(base))
        for bus in doc["buses"]:
            if bus["kind"] == "pq":
                factor = 1.0 + rng.uniform(-JITTER, JITTER)
                for key in ("pd", "qd"):
                    bus[key] = bus.get(key, 0.0) * factor
        return json.dumps(doc)

    def facts(self) -> dict:
        return {
            "case": self.case_name,
            "method": "qpf",
            "n_clock": self.n_clock,
            "load_jitter": f"+/-{JITTER:.0%} per PQ bus",
            "samples_per_op": self.samples_per_op,
            "reference_ops": self.reference_ops,
        }

    def run(self, i: int):
        case = caseio.parse_document(self.inputs[i % INPUT_POOL]).case
        report = solvers.solve_qpf(case, self.config)
        return case, report, caseio.emit_report(report)

    def check(self, i: int, record):
        """Converged, report round-trips, and (first reference_ops) close to Newton."""
        c = self.checked
        if record is None:
            c.failed += 1
            c.problems.append(f"op {i} raised")
            return
        case, report, text = record
        emitted = json.loads(text)
        if not (
            report.converged
            and emitted["converged"]
            and np.abs(np.array(emitted["v"]) - report.v).max() <= EMIT_TOL
        ):
            c.failed += 1
            c.problems.append(f"op {i}: not converged, or the emitted report differs")
            return
        if i < self.reference_ops:
            reference = solvers.solve_newton(case)
            dev = float(max(
                np.abs(report.v - reference.v).max(),
                np.abs(report.theta - reference.theta).max(),
            ))
            c.max_dev_pu = max(c.max_dev_pu, dev)
            if not (reference.converged and dev <= FINAL_TOL):
                c.failed += 1
                c.problems.append(f"op {i}: deviation {dev:.3e} from Newton")

    def result(self, attempted: int) -> CheckResult:
        return self.checked


class MonteCarlo:
    """One ``five_bus`` correlated Monte Carlo study per operation."""

    case_name = "five_bus"
    n_clock = 4  # the CLI default
    reference_method = {"fd": "nr", "qpf": "fd"}
    # Study size. A qpf study is kept short (about a quarter of a second) so
    # that the calibration passes either side of it track the host's speed.
    study_size = {"fd": 50, "qpf": 10}

    def __init__(self, seed: int, method: str):
        self.method = method
        self.name = f"mc-{method}"
        self.samples_per_op = self.study_size[method]
        self.reference_ops = REFERENCE_SAMPLES // self.samples_per_op
        self.trace_window = 40 if method == "fd" else 20
        self.doc = caseio.parse_document(cases.case_path(self.case_name).read_text())
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**32) for _ in range(INPUT_POOL)]
        self.config = solvers.SolverConfig(method=method, hhl=hhl.HHLConfig(n_clock=self.n_clock))
        self.reference_config = solvers.SolverConfig(method=self.reference_method[method])
        self.checked = CheckResult()
        self.converged = 0
        # Running sums n, x, y, xx, yy, xy per correlated injection pair.
        self.corr_sums = np.zeros((len(self.doc.correlations.pairs), 6))

    def facts(self) -> dict:
        return {
            "case": self.case_name,
            "method": self.method,
            "n_clock": self.n_clock if self.method == "qpf" else None,
            "study_size": self.samples_per_op,
            "reference_method": self.reference_method[self.method],
            "reference_ops": self.reference_ops,
        }

    def _study(self, seed: int, config: solvers.SolverConfig):
        doc = self.doc
        return stochastic.run_monte_carlo(
            doc.case, doc.injections, doc.correlations, n=self.samples_per_op, seed=seed,
            solver=config,
        )

    def run(self, i: int):
        seed = self.seeds[i % INPUT_POOL]
        result = self._study(seed, self.config)
        return seed, result, caseio.emit_monte_carlo(result)

    def check(self, i: int, record):
        """Per sample: converged and, in the first reference_ops studies, close
        to the reference study's |V|.

        The reference is Newton for ``fd`` and the classical decoupled
        solver for ``qpf``, each on the same seed and study size. A study
        result carries |V| only, so the deviation covers |V|.
        """
        c, n = self.checked, self.samples_per_op
        if record is None:
            c.failed += n
            c.problems.append(f"op {i} raised")
            return
        seed, result, text = record
        ok = result.converged.copy()
        if i < self.reference_ops:
            reference = self._study(seed, self.reference_config)
            dev = np.abs(result.voltages - reference.voltages).max(axis=1)
            ok &= reference.converged
            if ok.any():
                c.max_dev_pu = max(c.max_dev_pu, float(dev[ok].max()))
            far = ok & (dev > FINAL_TOL)
            if far.any():
                c.problems.append(
                    f"op {i}: {int(far.sum())} samples deviate more than {FINAL_TOL} "
                    f"from the {self.reference_method[self.method]} study"
                )
            ok &= ~far
        emitted = json.loads(text)
        if emitted["samples"] != n or emitted["converged_samples"] != result.n_converged:
            ok[:] = False
            c.problems.append(f"op {i}: emitted summary disagrees with the study")
        c.failed += int(n - ok.sum())
        self.converged += result.n_converged
        buses = result.injections.buses
        for k, (bus_i, bus_j, _) in enumerate(self.doc.correlations.pairs):
            x = result.injections.p[:, buses.index(bus_i)]
            y = result.injections.p[:, buses.index(bus_j)]
            self.corr_sums[k] += (x.size, x.sum(), y.sum(), x @ x, y @ y, x @ y)

    def result(self, attempted: int) -> CheckResult:
        """Pooled checks over every sample of the run, added to the per-op tally."""
        c = self.checked
        pooled = []
        if self.converged < CONVERGED_SHARE * attempted:
            pooled.append(f"only {self.converged}/{attempted} samples converged")
        if self.method == "fd":
            for (bus_i, bus_j, target), (n, sx, sy, sxx, syy, sxy) in zip(
                self.doc.correlations.pairs, self.corr_sums
            ):
                rho = (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
                if abs(rho - target) > CORR_TOL:
                    pooled.append(
                        f"injection correlation {bus_i}-{bus_j} is {rho:.4f}, target {target}"
                    )
        if pooled:
            c.failed = attempted  # a failed check over the pooled samples fails them all
            c.problems.extend(pooled)
        return c


def build(name: str, seed: int):
    if name == "qpf-chain16":
        return Chain16(seed)
    if name in ("mc-fd", "mc-qpf"):
        return MonteCarlo(seed, name.removeprefix("mc-"))
    raise ValueError(f"unknown workload {name!r}")
