"""Every file a run directory holds: the dataset tables, the checkpoint, the
score tables and the JSON meta files, with their names and headers.

At import this module loads only the standard library, numpy and `errors`.
A dataset reader builds the dataset class of its scenario's loss module,
which it imports when called, so a stage loads only its own scenario's loss.

A table is CSV: a header row of column names, then one row of numbers per
record.  The writers write ids and flags as integers, floats as repr(float),
the shortest round-trip decimal, and a NaN as an empty cell; they work
through a bounded chunk of rows at a time (CHUNK_ROWS), in this process.
The edge list, edges.txt, is 'u v' lines without a header.  One reader,
numpy's C parser, reads every table and the edge list from the open file,
and every error in a dataset file names that file.
"""

from __future__ import annotations

import json
import os
import warnings
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError

if TYPE_CHECKING:
    from .coxloss import SurvivalDataset
    from .embedloss import Graph
    from .ltrloss import RankingDataset

CHECKPOINT_NAME = "checkpoint.bin"
INFLUENCES_NAME = "influences.csv"
LOO_NAME = "loo.csv"
SUMMARY_NAME = "summary.json"
# Per-scenario dataset file names inside the run directory.
DATASET_FILES = {
    "cox": ("survival.csv", "survival_test.csv"),
    "ltr": ("queries.csv", "labels.csv", "queries_test.csv", "labels_test.csv"),
    "embed": ("edges.txt",),
    "logistic": ("points.csv", "points_test.csv"),
}
# The columns whose cells may be empty, for a missing score.
SCORE_COLUMNS = ("vif", "loo")
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


def write_table(path: str, **columns) -> None:
    """Write a dataset table from equal-length named columns.

    The header is the column names.  Integer columns are written as
    integers, float columns as repr(float), the shortest round-trip decimal.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        format_rows(fh, list(columns.values()))


def _score_cell(text: str) -> float:
    return float(text) if text else np.nan


def _parse(path: str, lead: tuple | None, **options) -> tuple[list, np.ndarray]:
    """Header and (rows x columns) cells of the text file at path.

    With lead, the first line is a comma-separated header that must start
    with the column names in lead, and an empty cell in a SCORE_COLUMNS
    column reads as NaN; without, there is no header ([]).  numpy's C parser
    reads the rows with options from the open file, so the text is never
    held whole.  A missing file, what the parser refuses and a file without
    rows are DataErrors naming path.
    """
    header = []
    try:
        with open(path) as fh:
            if lead is not None:
                header = fh.readline().rstrip("\n").split(",")
                if tuple(header[: len(lead)]) != lead:
                    raise DataError(f"{path}: expected a header starting {','.join(lead)}")
                options["converters"] = {
                    j: _score_cell for j, name in enumerate(header) if name in SCORE_COLUMNS
                }
            with warnings.catch_warnings():
                # a file without rows is refused below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                cells = np.loadtxt(fh, ndmin=2, **options)
    except FileNotFoundError:
        raise DataError(f"missing {path}") from None
    except UnicodeDecodeError:  # a ValueError, raised as the parser reads on
        raise DataError(f"{path}: not a text file") from None
    except ValueError as exc:  # a ragged row, a non-numeric or an empty data cell
        raise DataError(f"{path}: {exc}") from None
    if cells.shape[0] == 0:
        raise DataError(f"{path}: no data rows")
    return header, cells


def read_table(path: str, lead: tuple) -> tuple[list, np.ndarray]:
    """Header and (rows x columns) float cells of a table the writers here wrote.

    The header must start with the column names in lead and every row must
    have one number per header column.  An empty cell in a SCORE_COLUMNS
    column reads as NaN; every other cell must be a finite number.
    """
    header, cells = _parse(path, lead, delimiter=",", comments=None)
    if cells.shape[1] != len(header):
        raise DataError(f"{path}: {cells.shape[1]} cells per row, {len(header)} header columns")
    finite = np.isfinite(cells).all(axis=0)
    bad = [name for name, ok in zip(header, finite) if not (ok or name in SCORE_COLUMNS)]
    if bad:
        raise DataError(f"{path}: non-finite value in column {bad[0]}")
    return header, cells


def _dataset(path: str, cls, **fields):
    """cls(**fields), a DataError it raises prefixed with path as the readers' are."""
    try:
        return cls(**fields)
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _ids(path: str, column: np.ndarray) -> np.ndarray:
    """Id cells as int64; every value must be a non-negative integer."""
    # 2**53 bounds the integers a float64 cell holds exactly
    if not np.all((column >= 0) & (column < 2.0**53) & (column == np.floor(column))):
        raise DataError(f"{path}: an id is not a non-negative integer")
    return column.astype(np.int64)


def _universe(path: str, ids: np.ndarray, n: int | None, what: str) -> int:
    """The id universe of a dataset: n when given, where an id at or beyond
    it is a DataError, otherwise the largest id + 1."""
    top = int(ids.max())
    if n is None:
        return top + 1
    if top >= n:
        raise DataError(f"{path}: {what} {top} is outside the {what}s [0, {n})")
    return n


def _x_columns(x: np.ndarray) -> dict:
    """Feature columns x1..xd for the table writer, one per column of x."""
    return {f"x{j + 1}": x[:, j] for j in range(x.shape[1])}


def write_survival(path: str, data: SurvivalDataset) -> None:
    write_table(path, y=data.y, delta=data.delta, **_x_columns(data.x))


def read_survival(path: str) -> SurvivalDataset:
    """Records of a y,delta,x1,...,xd table."""
    from .coxloss import SurvivalDataset

    _, cells = read_table(path, ("y", "delta", "x1"))
    return _dataset(path, SurvivalDataset, x=cells[:, 2:], y=cells[:, 0], delta=cells[:, 1])


def write_points(path: str, x: np.ndarray, labels: np.ndarray) -> None:
    write_table(path, label=labels, **_x_columns(x))


def read_points(path: str):
    """Features and labels of a label,x1,...,xd table; a label is -1 or +1."""
    _, cells = read_table(path, ("label", "x1"))
    if not np.all(np.isin(cells[:, 0], (-1.0, 1.0))):
        raise DataError(f"{path}: labels must be -1 or +1")
    return cells[:, 1:], cells[:, 0]


def write_ranking(qpath: str, lpath: str, data: RankingDataset) -> None:
    write_table(qpath, query_id=np.arange(data.m), **_x_columns(data.features))
    lengths = [len(lst) for lst in data.rel_lists]
    write_table(
        lpath,
        query_id=np.repeat(np.arange(data.m), lengths),
        rank=np.concatenate([np.arange(k) for k in lengths]),
        item_id=np.concatenate(data.rel_lists),
    )


def read_ranking(qpath: str, lpath: str, n_items: int | None = None) -> RankingDataset:
    """Queries (query_id,x1,...,xp) and their ranked items (query_id,rank,item_id).

    The items are 0..n_items-1; without n_items, 0 up to the largest item id.
    """
    from .ltrloss import RankingDataset

    _, queries = read_table(qpath, ("query_id", "x1"))
    m = queries.shape[0]
    if not np.array_equal(queries[:, 0], np.arange(m)):
        raise DataError(f"{qpath}: query_id must be 0..m-1 in order")
    _, labels = read_table(lpath, ("query_id", "rank", "item_id"))
    query, rank, item = _ids(lpath, labels[:, :3]).T
    if query.max() >= m:
        raise DataError(f"{lpath}: unknown query_id {query.max()}")
    n_items = _universe(lpath, item, n_items, "item")
    order = np.lexsort((rank, query))
    query, rank, item = query[order], rank[order], item[order]
    starts = np.searchsorted(query, np.arange(m + 1))
    if not np.array_equal(rank, np.arange(rank.size) - starts[query]):
        raise DataError(f"{lpath}: each query's ranks must be 0..k-1")
    lists = tuple(tuple(item[a:b].tolist()) for a, b in zip(starts[:-1], starts[1:]))
    return _dataset(lpath, RankingDataset, features=queries[:, 1:], rel_lists=lists,
                    n_items=n_items)


def write_edges(path: str, graph: Graph) -> None:
    """One 'u v' line per edge."""
    np.savetxt(path, graph.edges, fmt="%d")


def read_edges(path: str, n: int | None = None) -> Graph:
    """Whitespace-separated 'u v' lines of node ids; '#' starts a comment.

    The nodes are 0..n-1; without n, 0 up to the largest node id.
    """
    from .embedloss import Graph

    _, cells = _parse(path, None, comments="#")
    edges = _ids(path, cells)
    return _dataset(path, Graph, n=_universe(path, edges, n, "node"), edges=edges)


def write_scores(path: str, objects, tests, keep=None, **scores) -> None:
    """Write a score table from named (k, T) score columns.

    The header is object_id, test_id, then the score names.  Each kept
    (object, test) cell is one row, objects in the order of objects and,
    within an object, tests in the order of tests; keep, a (k, T) bool
    matrix, keeps every cell when None.  objects and tests are integer id
    arrays.  A score column is anything whose [lo:hi] is the float64
    (hi - lo, T) matrix of object rows lo..hi-1: a (k, T) array, or an
    `attributor.Attribution`, which forms those rows only when asked.  A
    NaN score, and every cell of a score given as None, is an empty cell.

    An object row is one template with its ids already in the text,
    "o,t0,%r\\no,t1,%r\\n...", filled with the row's scores; %r is
    repr(float).  A row with a NaN, which is an empty cell, or a left-out
    cell goes through format_rows instead.  Rows are taken CHUNK_ROWS cells
    at a time, at least one object row, and each score column is sliced
    once per chunk.
    """
    columns = list(scores.values())
    cells = ",".join("" if m is None else "%r" for m in columns)
    pieces = [f",{t},{cells}\n" for t in tests.tolist()]
    step = max(1, CHUNK_ROWS // len(pieces))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["object_id", "test_id", *scores]) + "\n")
        for lo in range(0, len(objects), step):
            hi = min(lo + step, len(objects))
            chunk = [None if m is None else m[lo:hi] for m in columns]
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


def read_scores(path: str, column: str):
    """Object ids, test ids and one score column of a score table.

    Each (object_id, test_id) pair may appear once.
    """
    header, cells = read_table(path, ("object_id", "test_id"))
    if column not in header:
        raise DataError(f"{path}: no {column} column")
    ids = _ids(path, cells[:, :2])
    pairs = ids[np.lexsort((ids[:, 1], ids[:, 0]))]
    if np.any(np.all(pairs[1:] == pairs[:-1], axis=1)):
        raise DataError(f"{path}: duplicate (object_id, test_id) rows")
    return ids[:, 0], ids[:, 1], cells[:, header.index(column)]


def write_checkpoint(path: str, theta: np.ndarray, layout: dict, extra: dict):
    header = dict(extra)
    header["format"] = "vif-checkpoint-v1"
    header["dim"] = int(theta.shape[0])
    header["layout"] = {k: [int(a), int(b)] for k, (a, b) in layout.items()}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode())
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(theta, dtype="<f8").tobytes())


def read_checkpoint(path: str):
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            blob = fh.read()
    except FileNotFoundError:
        raise DataError(f"checkpoint not found: {path}; run `vif train` first") from None
    try:
        header = json.loads(header_line)
    except ValueError:  # undecodable bytes or malformed JSON
        raise DataError(f"{path}: corrupt checkpoint header") from None
    if not isinstance(header, dict) or header.get("format") != "vif-checkpoint-v1":
        raise DataError(f"{path}: not a recognized checkpoint")
    if len(blob) % 8 or len(blob) // 8 != header.get("dim"):
        raise DataError(f"{path}: payload length does not match header dim")
    return np.frombuffer(blob, dtype="<f8").astype(np.float64), header


def write_json(path: str, obj) -> None:
    """Write obj as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_meta(out: str, name: str) -> dict:
    path = os.path.join(out, name)
    try:
        with open(path) as fh:
            meta = json.load(fh)
    except (FileNotFoundError, NotADirectoryError):  # no such file, or out is not a directory
        raise DataError(f"missing {path}; run the corresponding stage first") from None
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise DataError(f"{path}: corrupt JSON") from None
    if not isinstance(meta, dict):
        raise DataError(f"{path}: not a JSON object")
    return meta
