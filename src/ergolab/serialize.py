"""Deterministic CSV and JSON writers for run artifacts.

Floats are rendered with %.17g so that identical runs produce byte-identical
files; node rows follow the lexicographic grid order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import Grid


_CHUNK_ROWS = 256  # rows formatted at once: bounds what the writer adds to peak RSS
MEASURE_FLOOR = 1e-14  # measure.csv leaves out pairs of weight at most this


def write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    """Header, then one line per row of the 2-D float array ``rows``, formatted
    a chunk of rows at a time with one ``%.17g`` row format, which renders
    each value as ``format(v, ".17g")`` does: an integral value has no
    decimal point, so integer columns such as path ids read as integers."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows.shape[0], _CHUNK_ROWS):
            chunk = rows[start : start + _CHUNK_ROWS].tolist()
            fh.write("".join(line % tuple(row) for row in chunk))


def write_field_csv(path: Path, grid: Grid, columns: dict[str, np.ndarray]) -> None:
    """One row per node: coordinates, then each named column (vector fields
    expand to one column per component)."""
    header = [f"x{a}" for a in range(grid.dim)]
    arrays = []
    for name, arr in columns.items():
        arr = np.asarray(arr)
        if arr.ndim == 1:
            header.append(name)
            arrays.append(arr[:, None])
        else:
            header.extend(f"{name}{a}" for a in range(arr.shape[1]))
            arrays.append(arr)
    data = np.hstack([grid.coords] + arrays)
    write_csv(path, header, data)


def write_measure_csv(path: Path, measure) -> None:
    grid = measure.grid
    header = [f"x{a}" for a in range(grid.dim)]
    header += [f"xi{a}" for a in range(grid.dim)]
    header += ["weight"]
    coo = measure.weights.tocoo()
    keep = coo.data > MEASURE_FLOOR
    rows = np.hstack(
        [
            grid.coords[coo.row[keep]],
            measure.xi_atoms[coo.col[keep]],
            coo.data[keep][:, None],
        ]
    )
    order = np.lexsort(rows.T[::-1])
    write_csv(path, header, rows[order])


def _plain(o):
    """``o`` in plain JSON types: numpy scalars and arrays unwrapped, and a NaN
    or infinite float as None, so that a strict JSON parser reads the file."""
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple, np.ndarray)):
        return [_plain(v) for v in o]
    if isinstance(o, (float, np.floating)):
        return float(o) if np.isfinite(o) else None
    return o.item() if isinstance(o, np.generic) else o


def write_json(path: Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_plain(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
