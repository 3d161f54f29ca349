"""CSV text of table rows: the one row formatter behind `cli._write_records_csv`.

The writer formats the first share of a large table's rows in its own
process and hands each other share to a helper that runs this file by path:

    python -I -S _rows.py SRC DST

SRC holds one ASCII header line, the row count followed by one typecode per
column ('q' int64, 'd' float64, '-' for a column of empty cells), and then
each non-empty column's values as native-endian machine bytes, column after
column.  The helper writes the rows' text to DST.  Both sides call
format_rows, so a share's text does not depend on which process wrote it.

The file imports only the standard library: a helper starts without numpy
or the vifkit package, and `-S` skips the `site` hooks.
"""

import sys
from itertools import repeat

CHUNK_ROWS = 8192


def format_rows(fh, columns, n_rows: int) -> None:
    """Write rows [0, n_rows) of columns to the text file fh, one line each.

    columns is a list of (typecode, values) pairs.  'q' values are written
    by str; 'd' values by repr(float), the shortest round-trip decimal, and
    a NaN as an empty cell; a column whose values are None is all empty
    cells.  values may be anything whose slices have tolist(): a numpy
    array or a memoryview.  At least one column must have values.
    """
    for lo in range(0, n_rows, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n_rows)
        parts = []
        for code, values in columns:
            if values is None:
                parts.append(repeat(""))
            elif code == "q":
                parts.append(map(str, values[lo:hi].tolist()))
            else:
                parts.append([repr(v) if v == v else "" for v in values[lo:hi].tolist()])
        fh.write("\n".join(map(",".join, zip(*parts))) + "\n")


def write_share(path: str, columns, lo: int, hi: int) -> None:
    """Write rows [lo, hi) of columns to the part file path, in the SRC
    layout main reads.  columns is as for format_rows, with numpy arrays of
    int64 or float64 as values, whose tofile writes their machine bytes."""
    with open(path, "wb") as fh:
        fh.write(" ".join([str(hi - lo)] + [code for code, _ in columns]).encode() + b"\n")
        for _, values in columns:
            if values is not None:
                values[lo:hi].tofile(fh)


def main(src: str, dst: str) -> None:
    """Format the share in the part file src into the text file dst."""
    with open(src, "rb") as fh:
        head = fh.readline().decode("ascii").split()
        body = memoryview(fh.read())
    n_rows, codes = int(head[0]), head[1:]
    size = 8 * n_rows  # both typecodes are 8-byte items
    if len(body) != size * sum(code != "-" for code in codes):
        raise ValueError(f"{src}: {len(body)} bytes of values for {n_rows} rows of {codes}")
    columns, at = [], 0
    for code in codes:
        values = None
        if code != "-":
            values, at = body[at : at + size].cast(code), at + size
        columns.append((code, values))
    with open(dst, "w", newline="") as fh:
        format_rows(fh, columns, n_rows)


if __name__ == "__main__":
    main(*sys.argv[1:])
