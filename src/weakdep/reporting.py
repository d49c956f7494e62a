"""Byte-stable emission of experiment results.

A result bundle is ``{"config": ..., "summary": ..., "tables": {name: rows}}``.
Each table lands as a CSV and a gnuplot-ready ``.dat`` file; the summary JSON
embeds the bundle's config for auditability (every CLI command passes the full
config as run: each setting with its default filled in, processes as built
and the command's options).  Floats are written with
``repr`` (shortest round-trip), keys are sorted, so reruns with the same seed
produce byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def write_table(rows: list[dict], path: str, sep: str = ",", header_prefix: str = "",
                empty: str = "") -> None:
    """The one table writer: a header of the first row's keys, then one line
    per row, cells joined by `sep` and an empty cell written as `empty`.  The
    defaults write CSV; see :data:`TABLE_FORMATS`."""
    if not rows:
        raise ValueError("cannot write an empty table")
    cols = list(rows[0].keys())
    with open(path, "w") as fh:
        fh.write(header_prefix + sep.join(cols) + "\n")
        for row in rows:
            fh.write(sep.join(_format_cell(row.get(c)) or empty for c in cols) + "\n")


# File extension -> (separator, header prefix, empty cell) of a report table:
# CSV, and a gnuplot-ready .dat with a commented header and nan for no value.
TABLE_FORMATS = {"csv": (",", "", ""), "dat": (" ", "# ", "nan")}


def emit_report(results: dict, out_dir: str) -> list[str]:
    """Write summary.json plus one CSV and one .dat per table; returns paths.

    Validates the bundle before touching the filesystem so an invalid result
    never leaves partial output.
    """
    if "config" not in results or "summary" not in results:
        raise ValueError("result bundle must carry 'config' and 'summary'")
    tables = results.get("tables", {})
    for name, rows in tables.items():
        if not rows:
            raise ValueError(f"table {name!r} is empty")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump({"config": results["config"], "summary": results["summary"]},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(summary_path)
    for name, rows in tables.items():
        for ext, table_format in TABLE_FORMATS.items():
            path = os.path.join(out_dir, f"{name}.{ext}")
            write_table(rows, path, *table_format)
            written.append(path)
    return written
