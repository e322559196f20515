"""Property tests for both case parsers: bad input fails as CaseError only.

Native documents are generated near the schema, with bus and branch fields
that may hold NaN, infinities, huge numbers, strings, null, booleans or
lists; optional fields may be missing. MATPOWER texts are generated near
the standard column layout, with tokens that may be non-numeric, non-finite
or out of range, rows that may be cut short or out of service, and a
baseMVA that may be zero, negative or overflow. Every input must either
parse or raise CaseError, and a parsed MATPOWER case has a finite positive
base. five_bus documents get uncertainty blocks with self-pairs, repeated
pairs, out-of-range correlations, negative deviations, unknown buses and
fields that are not lists of objects; one that parses has a symmetric
correlation matrix with a unit diagonal that lists each pair once.
"""

import json
import math
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qpflow import caseio, cases  # noqa: E402

AWKWARD = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 5e-324]),
    st.sampled_from([10**400, -(10**400), 2**63, True, False, None, [], {}]),
    st.text(max_size=6),
    st.sampled_from(["nan", "inf", "-Infinity", "1e999", "0x10", " 2 "]),
)
BUS_IDS = st.integers(min_value=1, max_value=4)


def field(valid):
    """Mostly a valid value, about one time in eight an awkward one."""
    return st.integers(0, 7).flatmap(lambda k: AWKWARD if k == 7 else valid)


def record(required, optional):
    """A dict with every ``required`` key and some ``optional`` keys."""
    return st.fixed_dictionaries(
        {name: field(valid) for name, valid in required.items()},
        optional={name: field(valid) for name, valid in optional.items()},
    )


BUS = record(
    {"id": BUS_IDS, "kind": st.sampled_from(["slack", "pq", "pv", "PQ", "load"])},
    {
        "pd": st.floats(-2.0, 2.0),
        "qd": st.floats(-2.0, 2.0),
        "pg": st.floats(-2.0, 2.0),
        "qg": st.floats(-2.0, 2.0),
        "vset": st.floats(-0.5, 1.5),
        "gs": st.floats(-1.0, 1.0),
        "bs": st.floats(-1.0, 1.0),
    },
)
BRANCH = record(
    {"from": BUS_IDS, "to": BUS_IDS, "x": st.floats(-0.5, 0.5)},
    {"r": st.floats(0.0, 0.1), "b": st.floats(0.0, 0.1), "tap": st.floats(-0.5, 1.5)},
)
DOCUMENT = st.fixed_dictionaries(
    {
        "buses": st.lists(BUS, min_size=1, max_size=4),
        "branches": st.lists(BRANCH, max_size=4),
    },
    optional={"name": field(st.text(max_size=4)), "base_mva": field(st.floats(-1.0, 1e3))},
)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(DOCUMENT)
def test_native_document_parses_or_raises_case_error(doc):
    text = json.dumps(doc)  # NaN and the infinities become JSON's extension tokens
    try:
        caseio.parse_document(text)
    except caseio.CaseError:
        pass


MP_AWKWARD = st.sampled_from(
    ["NaN", "Inf", "-Inf", "1e400", "-1e400", "1e-400", "2.5", "0", "-1", "oops", "0x10", "1e", "%"]
)


def mp_number(lo, hi):
    return st.floats(lo, hi).map(lambda x: f"{x:.6g}")


def mp_constant(*tokens):
    return st.sampled_from(tokens)


def mp_row(columns):
    """A table row: mostly valid; one in eight cut short, one in eight with an awkward token."""
    full = st.tuples(*columns).map(list)
    cut = full.flatmap(lambda row: st.integers(0, len(row) - 1).map(lambda n: row[:n]))
    spoilt = st.tuples(full, st.integers(0, len(columns) - 1), MP_AWKWARD).map(
        lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1] + 1 :]
    )
    return st.integers(0, 7).flatmap(lambda k: cut if k == 6 else spoilt if k == 7 else full)


MP_BUS_ID = mp_constant("1", "2", "3", "4")


def mp_bus(bus_id, bus_type):
    return mp_row(
        [
            bus_id, bus_type,
            mp_number(-50.0, 200.0), mp_number(-50.0, 100.0),
            mp_number(-5.0, 5.0), mp_number(-5.0, 50.0),
            mp_constant("1"), mp_number(0.9, 1.1), mp_constant("0"), mp_constant("230"),
            mp_constant("1"), mp_constant("1.1"), mp_constant("0.9"),
        ]
    )


# A slack bus 1 first, then buses of any id and type
MP_BUSES = st.builds(
    lambda first, rest: [first] + rest,
    mp_bus(mp_constant("1"), mp_constant("3")),
    st.lists(mp_bus(MP_BUS_ID, mp_constant("1", "1", "2", "3")), max_size=3),
)
MP_GEN = mp_row(
    [
        MP_BUS_ID, mp_number(0.0, 300.0), mp_number(-50.0, 50.0),
        mp_constant("300"), mp_constant("-300"), mp_number(0.95, 1.1), mp_constant("100"),
        mp_constant("1", "1", "0"), mp_constant("250"), mp_constant("0"),
    ]
)
MP_BRANCH = mp_row(
    [
        MP_BUS_ID, MP_BUS_ID,
        mp_number(0.0, 0.1), mp_number(-0.5, 0.5), mp_number(0.0, 0.1),
        mp_constant("250"), mp_constant("250"), mp_constant("250"),
        mp_constant("0", "0", "1.05", "-1"), mp_constant("0", "0", "0", "15"),
        mp_constant("1", "1", "0"), mp_constant("-360"), mp_constant("360"),
    ]
)
MP_BASE = st.integers(0, 3).flatmap(
    lambda k: st.sampled_from(["0", "1e400", "-100", "1e", "-0", "1e-400"]) if k == 3
    else mp_number(1.0, 1000.0)
)


def mp_table(name, rows):
    body = "".join("\t" + "\t".join(row) + ";\n" for row in rows)
    return f"mpc.{name} = [\n{body}];\n"


MATPOWER_TEXT = st.builds(
    lambda base, buses, gens, branches: (
        "function mpc = generated\n"
        f"mpc.baseMVA = {base};\n"
        + mp_table("bus", buses)
        + mp_table("gen", gens)
        + mp_table("branch", branches)
    ),
    MP_BASE,
    MP_BUSES,
    st.lists(MP_GEN, max_size=3),
    st.lists(MP_BRANCH, max_size=4),
)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(MATPOWER_TEXT)
def test_matpower_text_parses_or_raises_case_error(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # ignored columns, out-of-service rows
        try:
            doc = caseio.parse_document(text, caseio.MATPOWER)
        except caseio.CaseError:
            return
    assert 0.0 < doc.case.base_mva < math.inf


FIVE_BUS = json.loads(cases.case_path("five_bus").read_text())
# five_bus has PQ buses 3, 4 and 5; 1 is the slack, 2 a PV bus, 6 unknown
UNC_BUS = st.integers(min_value=1, max_value=6)
INJECTION = record(
    {"bus": UNC_BUS},
    {
        "p_mean": st.floats(-1.0, 1.0),
        "p_std": st.floats(-0.1, 0.2),
        "q_mean": st.floats(-1.0, 1.0),
        "q_std": st.floats(-0.1, 0.2),
    },
)
CORRELATION = record(
    {"bus_i": UNC_BUS, "bus_j": UNC_BUS, "rho": st.floats(-1.5, 1.5)}, {}
)
NOT_A_LIST = st.sampled_from(["x", 3, {}, None, [1], ["x"]])
UNCERTAINTY = st.fixed_dictionaries(
    {},
    optional={
        "injections": st.one_of(st.lists(INJECTION, max_size=4), NOT_A_LIST),
        "correlations": st.one_of(st.lists(CORRELATION, max_size=5), NOT_A_LIST),
    },
)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(UNCERTAINTY)
def test_uncertainty_block_parses_or_raises_case_error(unc):
    text = json.dumps({**FIVE_BUS, "uncertainty": unc})
    try:
        doc = caseio.parse_document(text)
    except caseio.CaseError:
        return
    if not doc.injections:
        return
    buses = tuple(inj.bus for inj in doc.injections)
    assert len(set(buses)) == len(buses)
    assert all(inj.p_std >= 0.0 and inj.q_std >= 0.0 for inj in doc.injections)
    pairs = doc.correlations.pairs
    assert len({frozenset((i, j)) for i, j, _ in pairs}) == len(pairs)
    corr = doc.correlations.matrix(buses)
    assert (corr == corr.T).all()
    assert (corr.diagonal() == 1.0).all()
    for i, j, rho in pairs:
        assert i != j and -1.0 <= rho <= 1.0
        assert corr[buses.index(i), buses.index(j)] == rho
