"""The csv and records writers against per-cell reference writers.

The reference writers format every cell on its own, the way the report
format is defined: ``.17g`` for floats, ``true``/``false`` for booleans, an
empty csv cell or a JSON ``null`` for None, csv quoting for a cell holding a
comma or a double quote, and ``json.dumps`` for JSON strings.  The
package's writers build one string per row and must match them byte for
byte.
"""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphereacs.cli import CSV_COLUMNS, rows_to_csv, rows_to_records
from sphereacs.report import Check


def reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def reference_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            cell = reference_cell(getattr(row, col))
            if "," in cell or '"' in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_records(rows) -> str:
    lines = []
    for row in rows:
        parts = []
        for col in CSV_COLUMNS:
            v = getattr(row, col)
            if v is None:
                encoded = "null"
            elif isinstance(v, str):
                encoded = json.dumps(v)
            else:
                encoded = reference_cell(v)
            parts.append(f"{json.dumps(col)}: {encoded}")
        lines.append("{" + ", ".join(parts) + "}")
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
    1.7976931348623157e308, math.nan, math.inf, -math.inf,
]
NUMBER = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL_FLOATS))
TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["a,b", 'say "x"', '"', ",", '","', "é ∇ 𝔰", 'mixed, "quoted" ü', ""]),
)


@st.composite
def report_rows(draw):
    """One row: a recorded value, a passing check or any check."""
    computed = draw(NUMBER)
    kind = draw(st.sampled_from(["value", "pass", "check"]))
    if kind == "value":
        expected = tolerance = None
    elif kind == "pass":
        expected, tolerance = computed, draw(st.sampled_from([0.0, 1e-9, math.inf]))
    else:
        expected, tolerance = draw(NUMBER), draw(NUMBER)
    return Check(draw(TEXT), computed, expected, tolerance, draw(TEXT), draw(st.booleans()))


# every corner at once: both verdicts, a recorded value, both asserted
# values, quoting and non-ASCII text, the special floats
CORNER_ROWS = [
    Check("ok", 1.0, 1.0, 1e-9, "close, enough", True),
    Check('bad "row"', math.nan, 0.0, 1e-9, "fails closed", True),
    Check("noted", -0.0, 5e-324, 0.0, 'recorded "only"', False),
    Check("ünïcode ∇", 1e308, -1e308, math.inf, "a,b", False),
    Check("value", -math.inf, None, None, "measured", False),
    Check("sub", 5e-324, None, None, "é", True),
]


def test_corner_rows_cover_both_verdicts():
    assert {row.verdict for row in CORNER_ROWS} == {"pass", "mismatch", "recorded"}


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(report_rows(), max_size=6))
@example(rows=CORNER_ROWS)
@example(rows=[])
def test_writers_match_reference(rows):
    assert rows_to_csv(rows) == reference_csv(rows)
    assert rows_to_records(rows) == reference_records(rows)
