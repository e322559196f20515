"""Case-file parsing and machine-readable result emission.

Two input formats are supported: the native JSON schema and a subset of
the MATPOWER text format (baseMVA plus the bus / branch / gen numeric
tables, standard column order). Outputs are deterministic: identical
inputs produce byte-identical text, floats carry 15 significant digits,
lines end with LF.
"""

from __future__ import annotations

import json
import math
import re
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from . import network, solvers, stochastic
from .network import Branch, Bus, NetworkCase

NATIVE_JSON = "native-json"
MATPOWER = "matpower-subset"
SCHEMA = "qpflow-case-1"

# Share of the mean used as the default standard deviation when an
# uncertainty entry does not state one.
DEFAULT_STD_FRACTION = 0.1


class CaseError(ValueError):
    """Malformed case input; carries position info when available."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{message} ({where})"
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class CaseDocument:
    """A parsed case plus its optional uncertainty block."""

    case: NetworkCase
    injections: tuple[stochastic.UncertainInjection, ...] = ()
    correlations: stochastic.CorrelationSpec | None = None


def _as_text(data: bytes | str) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def parse_case(text: bytes | str, fmt: str = NATIVE_JSON) -> NetworkCase:
    """Parse case text in the declared format into a validated NetworkCase."""
    return parse_document(text, fmt).case


def parse_document(text: bytes | str, fmt: str = NATIVE_JSON) -> CaseDocument:
    text = _as_text(text)
    if fmt == NATIVE_JSON:
        return _parse_native(text)
    if fmt == MATPOWER:
        return _parse_matpower(text)
    raise CaseError(f"unknown case format {fmt!r}")


def format_for_path(path: str) -> str:
    return MATPOWER if str(path).endswith(".m") else NATIVE_JSON


def _finite(value, field: str, where: str) -> float:
    """``value`` as a float; a non-number, NaN or an infinity is an input error."""
    try:
        x = float(value)
    except OverflowError:
        raise CaseError(f"{where}: field {field!r} is not finite (out of float range)") from None
    except (TypeError, ValueError) as exc:
        raise CaseError(f"{where}: field {field!r} is not a number ({value!r})") from exc
    if not math.isfinite(x):
        raise CaseError(f"{where}: field {field!r} is not finite ({x})")
    return x


def _integer(value, field: str, where: str) -> int:
    """``value`` as an int; anything but a whole JSON number is an input error."""
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole:
        raise CaseError(f"{where}: field {field!r} is not an integer ({value!r})")
    return int(value)


def _build(make, prefix: str = "", **fields):
    """``make(**fields)``, with the model's ValueError turned into a CaseError.

    ``prefix`` goes in front of the model's message, to name the record.
    """
    try:
        return make(**fields)
    except ValueError as exc:
        raise CaseError(prefix + str(exc)) from exc


# -- native JSON ------------------------------------------------------------


def _parse_native(text: str) -> CaseDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise CaseError("case document must be a JSON object")

    def need(obj, key, where):
        if not isinstance(obj, dict) or key not in obj:
            raise CaseError(f"{where} is missing required field {key!r}")
        return obj[key]

    def object_list(value, key):
        if not isinstance(value, list) or not all(isinstance(r, dict) for r in value):
            raise CaseError(f"{key!r} must be a list of objects")
        return value

    def records(key):
        return object_list(need(doc, key, "case"), key)

    def number(rec, key, default, where):
        """A finite float field; ``default=None`` marks it required."""
        value = need(rec, key, where) if default is None else rec.get(key, default)
        return _finite(value, key, where)

    def integer(rec, key, where):
        return _integer(need(rec, key, where), key, where)

    buses = []
    for k, rec in enumerate(records("buses")):
        where = f"bus {rec.get('id')}"
        buses.append(
            _build(
                Bus,
                id=integer(rec, "id", f"buses[{k}]"),
                kind=str(need(rec, "kind", where)).lower(),
                pd=number(rec, "pd", 0.0, where),
                qd=number(rec, "qd", 0.0, where),
                pg=number(rec, "pg", 0.0, where),
                qg=number(rec, "qg", 0.0, where),
                vset=number(rec, "vset", 1.0, where),
                gs=number(rec, "gs", 0.0, where),
                bs=number(rec, "bs", 0.0, where),
            )
        )
    branches = []
    for k, rec in enumerate(records("branches")):
        where = f"branch {rec.get('from')}-{rec.get('to')}"
        branches.append(
            _build(
                Branch,
                from_bus=integer(rec, "from", f"branches[{k}]"),
                to_bus=integer(rec, "to", f"branches[{k}]"),
                r=number(rec, "r", 0.0, where),
                x=number(rec, "x", None, where),
                b=number(rec, "b", 0.0, where),
                tap=number(rec, "tap", 1.0, where),
            )
        )
    case = _build(
        NetworkCase,
        name=str(doc.get("name", "case")),
        base_mva=number(doc, "base_mva", 100.0, "case"),
        buses=tuple(buses),
        branches=tuple(branches),
    )

    injections: tuple[stochastic.UncertainInjection, ...] = ()
    correlations = None
    if "uncertainty" in doc and doc["uncertainty"]:
        unc = doc["uncertainty"]
        if not isinstance(unc, dict):
            raise CaseError("'uncertainty' must be an object")
        injection_recs = object_list(unc.get("injections", []), "uncertainty.injections")
        correlation_recs = object_list(unc.get("correlations", []), "uncertainty.correlations")
        p_sched, q_sched = case.scheduled_injections()
        recs = []
        for k, rec in enumerate(injection_recs):
            where = f"uncertainty.injections[{k}]"
            bus_id = integer(rec, "bus", where)
            try:
                idx = case.bus_index(bus_id)
            except KeyError:
                raise CaseError(f"{where}: field 'bus' names unknown bus {bus_id}") from None
            if any(inj.bus == bus_id for inj in recs):
                raise CaseError(f"{where}: bus {bus_id} already has an uncertain injection")
            p_mean = number(rec, "p_mean", p_sched[idx], where)
            q_mean = number(rec, "q_mean", q_sched[idx], where)
            recs.append(
                _build(
                    stochastic.UncertainInjection,
                    prefix=f"{where}: ",
                    bus=bus_id,
                    p_mean=p_mean,
                    p_std=number(rec, "p_std", DEFAULT_STD_FRACTION * abs(p_mean), where),
                    q_mean=q_mean,
                    q_std=number(rec, "q_std", DEFAULT_STD_FRACTION * abs(q_mean), where),
                )
            )
        injections = tuple(recs)
        uncertain = {inj.bus for inj in injections}
        pairs = []
        for k, rec in enumerate(correlation_recs):
            where = f"uncertainty.correlations[{k}]"
            pair = (
                integer(rec, "bus_i", where),
                integer(rec, "bus_j", where),
                number(rec, "rho", None, where),
            )
            for key, bus_id in zip(("bus_i", "bus_j"), pair):
                if bus_id not in uncertain:
                    raise CaseError(
                        f"{where}: field {key!r} names bus {bus_id}, "
                        "which has no uncertain injection"
                    )
            pairs.append(pair)
        # the spec names a bad pair as correlations[k]
        correlations = _build(stochastic.CorrelationSpec, prefix="uncertainty.", pairs=tuple(pairs))
    return CaseDocument(case=case, injections=injections, correlations=correlations)


def emit_case(case: NetworkCase, document: CaseDocument | None = None) -> str:
    """Serialize a case to the native JSON schema.

    Floats are written at full precision so parse(emit(case)) == case.
    """
    payload: dict = {
        "schema": SCHEMA,
        "name": case.name,
        "base_mva": case.base_mva,
        "buses": [
            {
                "id": b.id,
                "kind": b.kind,
                "pd": b.pd,
                "qd": b.qd,
                "pg": b.pg,
                "qg": b.qg,
                "vset": b.vset,
                "gs": b.gs,
                "bs": b.bs,
            }
            for b in case.buses
        ],
        "branches": [
            {
                "from": br.from_bus,
                "to": br.to_bus,
                "r": br.r,
                "x": br.x,
                "b": br.b,
                "tap": br.tap,
            }
            for br in case.branches
        ],
    }
    if document is not None and document.injections:
        payload["uncertainty"] = {
            "injections": [
                {
                    "bus": inj.bus,
                    "p_mean": inj.p_mean,
                    "p_std": inj.p_std,
                    "q_mean": inj.q_mean,
                    "q_std": inj.q_std,
                }
                for inj in document.injections
            ],
            "correlations": [
                {"bus_i": i, "bus_j": j, "rho": rho}
                for i, j, rho in (document.correlations.pairs if document.correlations else ())
            ],
        }
    return json.dumps(payload, indent=2) + "\n"


# -- MATPOWER subset ----------------------------------------------------------

# Names of the standard columns the parser reads; later columns are ignored.
_MP_COLUMNS = {
    "bus": (
        "BUS_I", "BUS_TYPE", "PD", "QD", "GS", "BS", "BUS_AREA", "VM", "VA", "BASE_KV",
        "ZONE", "VMAX", "VMIN",
    ),
    "branch": (
        "F_BUS", "T_BUS", "BR_R", "BR_X", "BR_B", "RATE_A", "RATE_B", "RATE_C", "TAP",
        "SHIFT", "BR_STATUS", "ANGMIN", "ANGMAX",
    ),
    "gen": ("GEN_BUS", "PG", "QG", "QMAX", "QMIN", "VG", "MBASE", "GEN_STATUS"),
}
# Columns holding bus ids or the bus type, which must be whole numbers.
_MP_INTEGER_COLUMNS = {"bus": (0, 1), "branch": (0, 1), "gen": (0,)}


def _parse_matpower(text: str) -> CaseDocument:
    stripped = re.sub(r"%[^\n]*", "", text)
    name_match = re.search(r"function\s+mpc\s*=\s*(\w+)", stripped)
    case_name = name_match.group(1) if name_match else "matpower-case"

    def scalar(name: str) -> float:
        m = re.search(rf"mpc\.{name}\s*=\s*([-\d.eE+]+)\s*;", stripped)
        if not m:
            raise CaseError(f"mpc.{name} not found")
        return _finite(m.group(1), name, "mpc")

    def table(name: str) -> list[list[float]] | None:
        m = re.search(rf"mpc\.{name}\s*=\s*\[(.*?)\];", stripped, flags=re.DOTALL)
        if not m:
            return None
        line_base = text[: m.start()].count("\n") + 1
        rows = []
        body = m.group(1)

        def line_of(raw: str) -> int:
            return line_base + body[: body.find(raw)].count("\n")

        for raw in re.split(r"[;\n]", body):
            raw = raw.strip()
            if not raw:
                continue
            where = f"mpc.{name} row {len(rows) + 1}"
            try:
                row = [float(tok) for tok in raw.split()]
            except ValueError as exc:
                raise CaseError(f"{where} has a non-numeric token", line=line_of(raw)) from exc
            names = _MP_COLUMNS[name]

            def reject(col: int, problem: str):
                field = f"column {col + 1}" + (f" ({names[col]})" if col < len(names) else "")
                raise CaseError(f"{where}, {field} {problem} ({row[col]})", line=line_of(raw))

            for col, value in enumerate(row):
                if not math.isfinite(value):
                    reject(col, "is not finite")
            for col in _MP_INTEGER_COLUMNS[name]:
                if col < len(row) and not row[col].is_integer():
                    reject(col, "is not an integer")
            rows.append(row)
        return rows

    base = scalar("baseMVA")
    if base <= 0.0:
        raise CaseError(f"mpc.baseMVA must be positive ({base})")
    bus_rows = table("bus")
    branch_rows = table("branch")
    if bus_rows is None or branch_rows is None:
        raise CaseError("mpc.bus and mpc.branch tables are both required")
    gen_rows = table("gen") or []

    for name, rows in (("bus", bus_rows), ("branch", branch_rows), ("gen", gen_rows)):
        if rows and len(rows[0]) > len(_MP_COLUMNS[name]):
            _warnings.warn(
                f"mpc.{name}: columns beyond {len(_MP_COLUMNS[name])} are ignored",
                UserWarning,
                stacklevel=3,
            )

    kind_map = {1: network.PQ, 2: network.PV, 3: network.SLACK}
    gen_by_bus: dict[int, list[list[float]]] = {}
    for row in gen_rows:
        if len(row) < 8:
            raise CaseError("mpc.gen rows need at least 8 columns")
        if row[7] <= 0:
            _warnings.warn("out-of-service generator ignored", UserWarning, stacklevel=3)
            continue
        gen_by_bus.setdefault(int(row[0]), []).append(row)

    buses = []
    for row in bus_rows:
        if len(row) < 13:
            raise CaseError("mpc.bus rows need at least 13 columns")
        bus_id = int(row[0])
        bus_type = int(row[1])
        if bus_type not in kind_map:
            raise CaseError(f"bus {bus_id}: unsupported bus type {bus_type}")
        gens = gen_by_bus.get(bus_id, [])
        pg = sum(g[1] for g in gens) / base
        qg = sum(g[2] for g in gens) / base
        vset = gens[0][5] if gens else row[7]
        buses.append(
            _build(
                Bus,
                id=bus_id,
                kind=kind_map[bus_type],
                pd=row[2] / base,
                qd=row[3] / base,
                pg=pg,
                qg=qg,
                vset=vset,
                gs=row[4] / base,
                bs=row[5] / base,
            )
        )

    branches = []
    for row in branch_rows:
        if len(row) < 11:
            raise CaseError("mpc.branch rows need at least 11 columns")
        if row[9] != 0.0:
            raise CaseError(
                f"branch {int(row[0])}-{int(row[1])}: phase shifters are not supported"
            )
        if row[10] <= 0:
            _warnings.warn(
                f"out-of-service branch {int(row[0])}-{int(row[1])} ignored",
                UserWarning,
                stacklevel=3,
            )
            continue
        tap = row[8] if row[8] != 0.0 else 1.0
        branches.append(
            _build(
                Branch,
                from_bus=int(row[0]),
                to_bus=int(row[1]),
                r=row[2],
                x=row[3],
                b=row[4],
                tap=tap,
            )
        )

    case = _build(
        NetworkCase, name=case_name, base_mva=base, buses=tuple(buses), branches=tuple(branches)
    )
    return CaseDocument(case=case)


# -- report emission ----------------------------------------------------------


def _q15(x: float) -> float:
    """Quantize to 15 significant digits; emitted values re-parse exactly."""
    return float(f"{x:.15g}")


def _fmt15(x: float) -> str:
    return f"{x:.15g}"


def report_payload(report: solvers.SolveReport, degrees: bool = False) -> dict:
    """JSON-ready dict for a solve report, floats at 15 significant digits."""
    angle = 180.0 / np.pi if degrees else 1.0
    payload = {
        "method": report.method,
        "converged": report.converged,
        "iterations": report.iterations,
        "tolerance": _q15(report.tolerance),
        "angle_unit": "degrees" if degrees else "radians",
        "bus_ids": list(report.bus_ids),
        "v": [_q15(x) for x in report.v],
        "theta": [_q15(x * angle) for x in report.theta],
        "branch_flows": [
            {
                "from": f.from_bus,
                "to": f.to_bus,
                "p_from": _q15(f.p_from),
                "q_from": _q15(f.q_from),
                "p_to": _q15(f.p_to),
                "q_to": _q15(f.q_to),
            }
            for f in report.flows
        ],
        "resource": (
            {
                "n_clock": report.resource.n_clock,
                "n_vector": report.resource.n_vector,
                "qubits_total": report.resource.qubits_total,
                "hhl_invocations": report.resource.hhl_invocations,
                "prepare_reuse": report.resource.prepare_reuse,
            }
            if report.resource
            else None
        ),
        "warnings": list(report.warnings),
        "trace": [
            {
                "iteration": rec.iteration,
                "v": [_q15(x) for x in rec.v],
                "theta": [_q15(x * angle) for x in rec.theta],
                "mismatch_p": _q15(rec.norm_p),
                "mismatch_q": _q15(rec.norm_q),
                "hhl_success": [_q15(p) for p in rec.hhl_success],
            }
            for rec in report.trace
        ],
    }
    return payload


def emit_report(report: solvers.SolveReport, *, degrees: bool = False) -> str:
    """Serialize a solve report as JSON."""
    return json.dumps(report_payload(report, degrees), indent=2, sort_keys=True) + "\n"


def emit_csv_trace(report: solvers.SolveReport, degrees: bool = False) -> str:
    """Iteration trace: iter, V per non-slack bus, theta likewise, norms."""
    angle = 180.0 / np.pi if degrees else 1.0
    ids = list(report.bus_ids)
    keep = [i for i, bus_id in enumerate(ids) if bus_id != report.slack_bus]
    header = (
        ["iter"]
        + [f"V_{ids[i]}" for i in keep]
        + [f"theta_{ids[i]}" for i in keep]
        + ["mismP_inf", "mismQ_inf"]
    )
    lines = [",".join(header)]
    for rec in report.trace:
        row = (
            [str(rec.iteration)]
            + [_fmt15(rec.v[i]) for i in keep]
            + [_fmt15(rec.theta[i] * angle) for i in keep]
            + [_fmt15(rec.norm_p), _fmt15(rec.norm_q)]
        )
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def emit_monte_carlo(result: stochastic.MonteCarloResult) -> str:
    """Deterministic JSON summary of a Monte Carlo study."""
    payload = {
        "samples": result.n_samples,
        "converged_samples": result.n_converged,
        "uncertain_buses": list(result.uncertain_buses),
        "voltage_mean": {str(b): _q15(v) for b, v in sorted(result.voltage_mean.items())},
        "voltage_std": {str(b): _q15(v) for b, v in sorted(result.voltage_std.items())},
        "voltage_correlation": [
            {"bus_i": i, "bus_j": j, "rho": _q15(r)}
            for (i, j), r in sorted(result.voltage_correlation.items())
        ],
        "injection_correlation": [
            {"bus_i": i, "bus_j": j, "rho": _q15(r)}
            for (i, j), r in sorted(result.injection_correlation.items())
        ],
        "histograms": {
            str(b): {
                "counts": [int(c) for c in counts],
                "edges": [_q15(e) for e in edges],
            }
            for b, (counts, edges) in sorted(result.histograms.items())
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
