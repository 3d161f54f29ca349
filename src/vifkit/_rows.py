"""CSV text of table rows, for the table writers in `cli`.

`format_rows` writes rows from equal-length columns: the dataset tables.
`format_score_rows` writes a score table from its objects x tests score
columns, one '%' format call per object row.  Both write a float as
repr(float), the shortest round-trip decimal, and a NaN as an empty cell,
so a score row has the same text whichever of the two writes it.  Both work
through a bounded chunk of rows at a time, in this process.
"""

from itertools import repeat

import numpy as np

CHUNK_ROWS = 8192


def format_rows(fh, columns) -> None:
    """Write the rows of columns to the text file fh, one line each.

    columns is a list of equal-length numpy arrays, or None for a column of
    empty cells; at least one must be an array.  Integer values are written
    by str, float values by repr(float), and a NaN as an empty cell.
    """
    n_rows = len(next(values for values in columns if values is not None))
    for lo in range(0, n_rows, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n_rows)
        parts = []
        for values in columns:
            if values is None:
                parts.append(repeat(""))
            elif values.dtype.kind in "iu":
                parts.append(map(str, values[lo:hi].tolist()))
            else:
                parts.append([repr(v) if v == v else "" for v in values[lo:hi].tolist()])
        fh.write("\n".join(map(",".join, zip(*parts))) + "\n")


def format_score_rows(fh, objects, tests, scores, keep=None) -> None:
    """Write one line per (object, test) cell of (k, T) score columns to fh:
    the object id, the test id, then the cell of each column, row after row.

    objects holds the k row ids and tests the T column ids, both integer
    arrays.  scores is a list of score columns, or None for a column of
    empty cells; at least one must be given.  A score column is anything
    whose [lo:hi] is the float64 (hi - lo, T) matrix of object rows lo..hi-1:
    a (k, T) array, or an `attributor.Attribution`, which forms those rows
    only when asked.  keep, a (k, T) bool matrix, leaves out each cell where
    it is False.

    An object row is one template with its ids already in the text,
    "o,t0,%r\\no,t1,%r\\n...", filled with the row's scores; %r is
    repr(float).  A row with a NaN, which is an empty cell, or a left-out
    cell goes through format_rows instead.  Rows are taken CHUNK_ROWS cells
    at a time, at least one object row, and each score column is sliced
    once per chunk.
    """
    cells = ",".join("" if m is None else "%r" for m in scores)
    pieces = [f",{t},{cells}\n" for t in tests.tolist()]
    step = max(1, CHUNK_ROWS // len(pieces))
    for lo in range(0, len(objects), step):
        hi = min(lo + step, len(objects))
        chunk = [None if m is None else m[lo:hi] for m in scores]
        # (rows, T * scores): each cell's scores side by side, as in the template
        block = np.stack([m for m in chunk if m is not None], axis=2).reshape(hi - lo, -1)
        slow = np.isnan(block).any(axis=1)
        if keep is not None:
            slow |= ~keep[lo:hi].all(axis=1)
        rows = zip(range(hi - lo), objects[lo:hi].tolist(), block.tolist(), slow.tolist())
        for r, o, row, fallback in rows:
            if not fallback:
                o = str(o)
                fh.write((o + o.join(pieces)) % tuple(row))
                continue
            cols = slice(None) if keep is None else keep[lo + r]
            ids = tests[cols]
            if ids.size:
                format_rows(fh, [np.full(ids.size, o), ids]
                            + [None if m is None else m[r, cols] for m in chunk])
