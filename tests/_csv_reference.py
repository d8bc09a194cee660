"""Reference CSV reader for the tests: ``bksens.cli.load_csv_columns`` as it
was before plain files got a bulk ``np.loadtxt`` parse, kept as it was: the
csv module's excel dialect, one ``float`` call per cell. The one change since
is its decoding, ``utf-8-sig``, which drops a leading byte-order mark.

For every UTF-8 file, ``load_csv_columns`` must return the same column names
in the same order with bitwise-equal arrays, or raise ``InputError`` with the
same message.
"""

from __future__ import annotations

import csv

import numpy as np

from bksens.cli import InputError


def reference_load_csv_columns(path: str) -> dict[str, np.ndarray]:
    """Strict CSV reader: header row, UTF-8, '.' decimals, no missing cells."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:  # drops one BOM
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise InputError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if len(set(header)) != len(header):
                raise InputError(f"{path}: duplicate column names in header")
            columns = {name: [] for name in header}
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise InputError(
                        f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
                for name, cell in zip(header, row):
                    cell = cell.strip()
                    if cell == "":
                        raise InputError(
                            f"{path}:{lineno}: missing value in column '{name}'")
                    try:
                        columns[name].append(float(cell))
                    except ValueError:
                        raise InputError(
                            f"{path}:{lineno}: column '{name}': "
                            f"cannot parse '{cell}' as a number") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if not columns or not next(iter(columns.values())):
        raise InputError(f"{path}: no data rows")
    return {name: np.asarray(vals) for name, vals in columns.items()}
