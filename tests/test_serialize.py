import numpy as np
import pytest

from ergolab.grid import build_grid
from ergolab.serialize import write_csv, write_field_csv


def _per_value(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "rows",
    [
        np.array(
            [
                [-0.0, 0.0, np.inf],
                [-np.inf, np.nan, 1e-300],
                [1e300, 3.0, -7.0],
                [5e-324, 0.1, 2.0**53 + 1],
                [1 / 3, -1e-5, 123456789012345678.0],
            ]
        ),
        np.random.default_rng(0).normal(size=(1000, 3)) * 1e6,  # spans several chunks
        np.empty((0, 3)),
    ],
    ids=["awkward", "chunks", "empty"],
)
def test_float_rows_match_per_value_format(tmp_path, rows):
    header = ["a", "b", "c"]
    write_csv(tmp_path / "x.csv", header, rows)
    assert (tmp_path / "x.csv").read_bytes() == _per_value(header, rows).encode()


def test_mixed_rows_keep_integers(tmp_path):
    rows = np.array([(0, 1.5, 1), (1, -0.0, 0)], dtype=float)  # as runner passes paths.csv
    write_csv(tmp_path / "p.csv", ["path", "avg", "flag"], rows)
    assert (tmp_path / "p.csv").read_text() == "path,avg,flag\n0,1.5,1\n1,-0,0\n"


@pytest.mark.parametrize("dim, radius, spacing", [(1, 4.0, 0.05), (2, 3.0, 0.1), (2, 1.0, 0.3)])
def test_field_csv_matches_write_csv_over_coordinates(tmp_path, dim, radius, spacing):
    # the field writer formats each axis coordinate once; the bytes must be
    # those of the generic writer over coordinate and value columns
    g = build_grid(dim, radius, spacing)
    rng = np.random.default_rng(5)
    u = rng.normal(size=g.num_nodes) * 1e3
    u[:3] = [-0.0, 0.0, 1.0]
    write_field_csv(tmp_path / "field.csv", g, "u", u)
    header = [f"x{a}" for a in range(dim)] + ["u"]
    write_csv(tmp_path / "generic.csv", header, np.hstack([g.coords, u[:, None]]))
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()
