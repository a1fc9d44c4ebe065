"""Expected outputs of the benchmark's operations, read from the checkout.

* ``repro table 1|2`` stdout: the power and saving columns must equal,
  digit for digit, the measured values ``EXPERIMENTS.md`` records for
  Table I/II (the number before each parenthesised paper value).
* ``repro compare <design> --json``: the file must equal
  ``tests/golden/data/compare_<design>.json`` exactly (floats included).
* Served ``sweep`` results: float-identical to an offline
  ``Session.sweep`` of the same grid (see ``serveload.check_sweeps``).

``paper_error_pct`` is the simulator's error against the paper: the mean
of ``|measured - paper| / paper`` over the three power columns of both
tables, with the paper values taken from
``repro.tech.calibration.TABLE_I_ROWS`` / ``TABLE_II_ROWS``.
"""

import json
import os
import re

#: Table columns checked: (index in a stdout row, index in an
#: EXPERIMENTS.md row) for P no-PG, P SCPG, saving, P SCPG-Max, saving.
_STDOUT_COLS = (1, 3, 5, 6, 8)
_POWER_COLS = (0, 1, 3)      # positions of the power columns above

_HEADINGS = {1: "## Table I ", 2: "## Table II "}


def experiments_rows(root, which):
    """``{freq: (p_nopg, p_scpg, s_scpg, p_max, s_max)}`` as the strings
    ``EXPERIMENTS.md`` prints for Table ``which``."""
    with open(os.path.join(root, "EXPERIMENTS.md")) as f:
        text = f.read()
    start = text.index(_HEADINGS[which])
    block = text[start:text.index("\n## ", start + 1)]
    rows = {}
    for line in block.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 6 or not re.match(r"^\d+\.\d+$", cells[0]):
            continue
        rows[cells[0]] = tuple(c.split(" (")[0] for c in cells[1:])
    return rows


def table_rows(stdout):
    """The same five strings per frequency, parsed from ``repro table``."""
    rows = {}
    for line in stdout.splitlines():
        tokens = line.replace("|", " ").split()
        if len(tokens) == 9 and re.match(r"^\d+\.\d+$", tokens[0]):
            rows[tokens[0]] = tuple(tokens[i] for i in _STDOUT_COLS)
    return rows


def paper_rows(which):
    """Paper power columns (uW) per row of Table ``which``."""
    from repro.tech.calibration import TABLE_I_ROWS, TABLE_II_ROWS

    table = TABLE_I_ROWS if which == 1 else TABLE_II_ROWS
    return [(r.power_nopg * 1e6, r.power_scpg * 1e6, r.power_scpgmax * 1e6)
            for r in table]


def paper_error_pct(measured):
    """Mean relative power error (%) against the paper over both tables.

    ``measured`` maps 1 and 2 to the rows :func:`table_rows` returns.
    """
    errors = []
    for which in (1, 2):
        rows = list(measured[which].values())
        paper = paper_rows(which)
        if len(rows) != len(paper):
            raise ValueError("table {} has {} rows, the paper {}".format(
                which, len(rows), len(paper)))
        for row, ref in zip(rows, paper):
            for col, p in zip(_POWER_COLS, ref):
                errors.append(abs(float(row[col]) - p) / p)
    return 100.0 * sum(errors) / len(errors)


def golden_compare(root, design):
    with open(os.path.join(root, "tests", "golden", "data",
                           "compare_{}.json".format(design))) as f:
        return json.load(f)


class Expected:
    """Everything the CLI workloads check against, loaded once."""

    def __init__(self, root):
        self.tables = {w: experiments_rows(root, w) for w in (1, 2)}
        self.compare = {d: golden_compare(root, d)
                        for d in ("mult16", "m0lite")}
        self.paper_error_pct = paper_error_pct(self.tables)

    def table_ok(self, which, stdout):
        return table_rows(stdout) == self.tables[which]

    def compare_ok(self, design, path):
        try:
            with open(path) as f:
                return json.load(f) == self.compare[design]
        except (OSError, ValueError):
            return False
