"""Property tests for the native case parser: bad input fails as CaseError only.

Documents are generated near the schema, with bus and branch fields that
may hold NaN, infinities, huge numbers, strings, null, booleans or lists;
optional fields may be missing. Every document must either parse or raise
CaseError.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qpflow import caseio  # noqa: E402

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
