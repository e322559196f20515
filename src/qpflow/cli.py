"""Command-line drivers: deterministic solve, Monte Carlo study, resources.

Exit codes: 0 success, 1 solver did not converge, 2 bad input (unknown
flags, unreadable or malformed case files, invalid parameters).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import caseio, solvers, stochastic
from .hhl import HHLConfig

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_INPUT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpflow",
        description="Fast-decoupled AC power flow with a quantum (HHL) linear solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one power-flow solve")
    solve.add_argument("--case", required=True, help="case file (.json native, .m MATPOWER)")
    solve.add_argument("--method", required=True, choices=["qpf", "fd", "nr"])
    solve.add_argument("--tol", type=float, default=1e-5, help="mismatch tolerance (p.u.)")
    solve.add_argument("--clock-qubits", type=int, default=4, help="clock register size (qpf)")
    solve.add_argument("--max-iter", type=int, default=100)
    solve.add_argument("--trace", help="write the CSV iteration trace to this path")
    solve.add_argument("--out", help="write the JSON report to this path instead of stdout")
    solve.add_argument("--degrees", action="store_true", help="emit angles in degrees")

    mc = sub.add_parser("montecarlo", help="correlated Monte Carlo study")
    mc.add_argument("--case", required=True, help="case file with an uncertainty block")
    mc.add_argument("--samples", type=int, required=True)
    mc.add_argument("--seed", type=int, required=True)
    mc.add_argument("--method", choices=["fd", "qpf"], default="fd")
    mc.add_argument("--tol", type=float, default=1e-5)
    mc.add_argument("--clock-qubits", type=int, default=4)
    mc.add_argument("--out", help="write the JSON summary to this path instead of stdout")

    res = sub.add_parser("resources", help="quantum register sizes for a case")
    res.add_argument("--case", required=True)
    res.add_argument("--clock-qubits", type=int, default=4)
    return parser


def _load_document(path: str) -> caseio.CaseDocument:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise caseio.CaseError(f"cannot read case file {path}: {exc.strerror}") from exc
    return caseio.parse_document(text, caseio.format_for_path(path))


def _write(text: str, out: str | None):
    if out:
        Path(out).write_bytes(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    doc = _load_document(args.case)
    config = solvers.SolverConfig(
        method=args.method,
        tolerance=args.tol,
        max_iterations=args.max_iter,
        hhl=HHLConfig(n_clock=args.clock_qubits),
    )
    report = solvers.solve(doc.case, config)
    _write(caseio.emit_report(report, degrees=args.degrees), args.out)
    if args.trace:
        _write(caseio.emit_csv_trace(report, degrees=args.degrees), args.trace)
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _cmd_montecarlo(args) -> int:
    if args.samples < 1:
        raise caseio.CaseError("--samples must be at least 1")
    if args.seed < 0:
        raise caseio.CaseError("--seed must be non-negative")
    doc = _load_document(args.case)
    if not doc.injections:
        raise caseio.CaseError(f"case {args.case} has no uncertainty block")
    config = solvers.SolverConfig(
        method=args.method,
        tolerance=args.tol,
        hhl=HHLConfig(n_clock=args.clock_qubits),
    )
    result = stochastic.run_monte_carlo(
        doc.case,
        doc.injections,
        doc.correlations or stochastic.CorrelationSpec(),
        n=args.samples,
        seed=args.seed,
        solver=config,
    )
    _write(caseio.emit_monte_carlo(result), args.out)
    return EXIT_OK if result.n_converged == result.n_samples else EXIT_NOT_CONVERGED


def _cmd_resources(args) -> int:
    doc = _load_document(args.case)
    config = solvers.SolverConfig(method="qpf", hhl=HHLConfig(n_clock=args.clock_qubits))
    est = solvers.resource_estimate(doc.case, config)
    payload = {"n_clock": est.n_clock, "n_vector": est.n_vector, "qubits_total": est.qubits_total}
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "montecarlo":
            return _cmd_montecarlo(args)
        return _cmd_resources(args)
    except (caseio.CaseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
