"""Every file format: CSV readers and writers for signals, sets, tile
collections, plane grids, choice functions and direction sets, and the
writers of every file a command emits. Each CSV header is one constant that
its reader and its writer share. Malformed input reports the offending data
row (1-based, excluding the header).
"""

from __future__ import annotations

import csv
import errno
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .grid import MAX_RESOLUTION, Grid2D, GridSet, GridSignal, check_resolution
from .tiles import BiTile, ChoiceFunction, TileCollection, member_indices, tile_slot

# bumped whenever any CSV column layout changes; recorded in every manifest
CSV_SCHEMA = 1

SIGNAL_HEADER = ("index", "re", "im")
SET_HEADER = ("index", "member")
TILE_HEADER = ("k", "n", "freq_offset")
CHOICE_HEADER = ("index", "freq")
PLANE_HEADER = ("row", "col", "re", "im")
DIRECTION_HEADER = ("vx", "vy")
FOREST_HEADER = ("n", "m", "tree", "top_scale", "top_offset", "top_freq", "members", "count_ratio")
TRIALS_HEADER = ("trial", "ratio")


def open_new(path, newline=None):
    """Open `path` for writing text like `open(path, "w")`, but replace an
    existing regular file with a single link instead of truncating it: it is
    unlinked and created afresh, and the bytes written are the same. On
    ext4, truncating a file whose last write is still in writeback makes the
    open wait for that writeback (about 65 ms per file on a 2-core host);
    creating a file does not. Symlinks and hard-linked files are written in
    place."""
    try:
        info = os.lstat(path)
    except FileNotFoundError:
        pass
    else:
        if stat.S_ISREG(info.st_mode) and info.st_nlink == 1:
            os.unlink(path)
    return open(path, "w", newline=newline)


def check_output_path(path) -> None:
    """Raise the `OSError` that opening `path` for writing would raise when
    it names a directory or its parent is missing or not a directory, and
    create nothing, so a command can refuse its output before any work."""
    path = os.fspath(path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        parent_is_dir = stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    if not parent_is_dir:
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def write_csv(path, header: tuple[str, ...], rows) -> None:
    """The header, then each row, as `csv.writer` writes them."""
    with open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def json_text(data) -> str:
    """The encoding of every report: keys sorted, indented by 2, with one
    trailing newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def write_json(path, data) -> None:
    with open_new(path) as fh:
        fh.write(json_text(data))


def _open_rows(path, expected_header: tuple[str, ...]):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(c.strip() for c in rows[0]) != expected_header:
        raise ValueError(f"{path}: expected header {','.join(expected_header)}")
    return rows[1:]


def _fail(path, row_number, message):
    raise ValueError(f"{path}: row {row_number}: {message}")


def _resolution_for(count: int, path, axes: int = 1) -> int:
    """The resolution L of a file with one row per cell of a grid with
    `axes` axes, so that count = 2**(axes * L); L above MAX_RESOLUTION is
    rejected before the values of any row are parsed."""
    bits = count.bit_length() - 1
    if count <= 0 or (1 << bits) != count:
        raise ValueError(f"{path}: row count {count} is not a power of two")
    resolution, odd = divmod(bits, axes)
    if odd:
        raise ValueError(f"{path}: row count {count} is not a square power of two")
    if resolution > MAX_RESOLUTION:
        raise ValueError(
            f"{path}: row count {count} gives resolution {resolution}, above the maximum {MAX_RESOLUTION}"
        )
    return resolution


def _field_problem(row, types, kind: str) -> str | None:
    """Why a data row cannot be parsed as `types`, one per field, checked in
    the order field count, then each field in turn; None if it can."""
    if len(row) != len(types):
        return f"bad {kind} row {row!r} (expected {len(types)} fields, got {len(row)})"
    try:
        for parse, field in zip(types, row):
            parse(field)
    except ValueError as exc:
        return f"bad {kind} row {row!r} ({exc})"
    return None


def _columns(rows, types) -> tuple[list[np.ndarray], int]:
    """Per type, its column over the leading rows that parse as `types`,
    parsed with one comprehension into an array, and the number of those
    rows. `np.loadtxt` is not used: it strips `#` comments and skips blank
    lines, so it would accept files the readers reject."""
    try:
        if all(len(row) == len(types) for row in rows):
            return [_array([parse(row[i]) for row in rows], parse) for i, parse in enumerate(types)], len(rows)
    except ValueError:
        pass
    parsed = next(i for i, row in enumerate(rows) if _field_problem(row, types, "") is not None)
    return _columns(rows[:parsed], types)


def _array(values: list, parse) -> np.ndarray:
    """Floats as float64; ints as int64, where a value beyond int64, which
    passes no range check, becomes -1."""
    if parse is float:
        return np.array(values, dtype=np.float64)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array([v if abs(v) < 1 << 62 else -1 for v in values], dtype=np.int64)


def _repeats(values: np.ndarray) -> np.ndarray:
    """Per entry, whether an earlier entry holds the same value."""
    _, first = np.unique(values, return_index=True)
    repeated = np.ones(values.size, dtype=bool)
    repeated[first] = False
    return repeated


def _unclaimed(index: np.ndarray, count: int) -> np.ndarray:
    """Per row, whether its cell index lies outside [0, count) or repeats an
    earlier row's; with one row per cell this also rules out missing
    cells."""
    return (index < 0) | (index >= count) | _repeats(index)


def _check_rows(path, rows, types, kind: str, parsed: int, checks) -> None:
    """Fail at the first bad data row, if any. The `parsed` leading rows are
    flagged by `checks`, pairs (flags over those rows, the message for a
    flagged row) in the order the checks of one row run, and a flagged row
    is named by its first check; the row after them fails `_field_problem`.
    A check's flags need only be right on a row whose earlier rows pass
    every check and which passes the checks before it."""
    flagged = np.zeros(parsed, dtype=bool)
    for flags, _ in checks:
        flagged |= flags
    bad = int(np.argmax(flagged)) if flagged.any() else parsed
    if bad == len(rows):
        return
    row = rows[bad]
    if bad == parsed:
        _fail(path, bad + 1, _field_problem(row, types, kind))
    _fail(path, bad + 1, next(message for flags, message in checks if flags[bad])(row))


def write_signal(path, signal: GridSignal) -> None:
    rows = ((i, repr(float(value.real)), repr(float(value.imag))) for i, value in enumerate(signal.values))
    write_csv(path, SIGNAL_HEADER, rows)


def read_signal(path) -> GridSignal:
    rows = _open_rows(path, SIGNAL_HEADER)
    resolution = _resolution_for(len(rows), path)
    types = (int, float, float)
    (index, re, im), parsed = _columns(rows, types)
    _check_rows(path, rows, types, "signal", parsed, [
        (_unclaimed(index, len(rows)), lambda row: f"index {int(row[0])} out of range or repeated"),
        (~(np.isfinite(re) & np.isfinite(im)), lambda row: f"value {float(row[1]) + 1j * float(row[2])} is not finite"),
    ])  # fmt: skip
    values = np.zeros(len(rows), dtype=np.complex128)
    # rounds, and signs its zeros, as float(re) + 1j * float(im) does
    values[index] = re + 1j * im
    return GridSignal(resolution, values)


def write_grid_set(path, s: GridSet) -> None:
    write_csv(path, SET_HEADER, ((i, int(member)) for i, member in enumerate(s.mask)))


def read_grid_set(path) -> GridSet:
    rows = _open_rows(path, SET_HEADER)
    resolution = _resolution_for(len(rows), path)
    types = (int, int)
    (index, member), parsed = _columns(rows, types)
    _check_rows(path, rows, types, "set", parsed, [
        ((member != 0) & (member != 1), lambda row: f"member must be 0 or 1, got {int(row[1])}"),
        (_unclaimed(index, len(rows)), lambda row: f"index {int(row[0])} out of range or repeated"),
    ])  # fmt: skip
    mask = np.zeros(len(rows), dtype=bool)
    mask[index] = member == 1
    return GridSet(resolution, mask)


def write_tile_collection(path, collection: TileCollection) -> None:
    write_csv(path, TILE_HEADER, member_indices(collection.occupied))


def _tile_problem(row, resolution: int) -> str:
    """Why a data row of integers is no bi-tile that fits the resolution."""
    try:
        BiTile(*map(int, row))
    except ValueError as exc:
        return f"bad bi-tile row {row!r} ({exc})"
    return f"bi-tile {row!r} does not fit resolution {resolution}"


def read_tile_collection(path, resolution: int) -> TileCollection:
    """The bi-tiles of a k,n,freq_offset file as a collection. The rows are
    parsed into integer columns, whose fit and repeats are checked as
    arrays; the first bad row fails with its number."""
    check_resolution(resolution)
    L = resolution
    rows = _open_rows(path, TILE_HEADER)
    types = (int, int, int)
    (scale, offset, freq), parsed = _columns(rows, types)
    known = (0 <= scale) & (scale < L)
    k = np.where(known, scale, 0)
    limits = 1 << np.arange(max(L, 1))  # 2**j; at L=0 no scale is known
    fits = known & (0 <= offset) & (offset < limits[k]) & (0 <= freq) & (freq < limits[L - 1 - k])
    # a row that does not fit stands for the bi-tile (0, 0, 0): its repeat
    # flags are read only before the first row that fails the fit
    slots = tile_slot(L, *(np.where(fits, column, 0) for column in (scale, offset, freq)))
    _check_rows(path, rows, types, "bi-tile", parsed, [
        (~fits, lambda row: _tile_problem(row, L)),
        (_repeats(slots), lambda row: f"bi-tile {row!r} is repeated"),
    ])  # fmt: skip
    return TileCollection.from_slots(L, slots)


def write_forests(path, decomposition) -> None:
    """The trees of a `full_decompose` decomposition, bucket by bucket in
    (n, m) order: each tree's top bi-tile scale, offset and frequency, its
    member count and its bucket's counting ratio."""
    rows = []
    for (n, m), bucket in sorted(decomposition.buckets.items()):
        for t, tree in enumerate(bucket.trees):
            top = tree.top_interval
            rows.append((n, m, t, top.scale, top.offset, tree.top_freq, len(tree.slots), repr(bucket.count_ratio)))
    write_csv(path, FOREST_HEADER, rows)


def write_choice(path, choice: ChoiceFunction) -> None:
    write_csv(path, CHOICE_HEADER, ((i, int(value)) for i, value in enumerate(choice.freqs)))


def read_choice(path) -> ChoiceFunction:
    rows = _open_rows(path, CHOICE_HEADER)
    resolution = _resolution_for(len(rows), path)
    types = (int, int)
    (index, freq), parsed = _columns(rows, types)
    n = len(rows)
    _check_rows(path, rows, types, "choice", parsed, [
        (_unclaimed(index, n), lambda row: f"index {int(row[0])} out of range or repeated"),
        ((freq < 0) | (freq >= n), lambda row: f"frequency {int(row[1])} outside [0, {n})"),
    ])  # fmt: skip
    freqs = np.zeros(n, dtype=np.int64)
    freqs[index] = freq
    return ChoiceFunction(resolution, freqs)


def write_grid2d(path, f: Grid2D) -> None:
    rows = ((r, c, repr(float(value.real)), repr(float(value.imag))) for (r, c), value in np.ndenumerate(f.values))
    write_csv(path, PLANE_HEADER, rows)


def read_grid2d(path) -> Grid2D:
    rows = _open_rows(path, PLANE_HEADER)
    resolution = _resolution_for(len(rows), path, axes=2)
    side = 1 << resolution
    types = (int, int, float, float)
    (r, c, re, im), parsed = _columns(rows, types)
    inside = (0 <= r) & (r < side) & (0 <= c) & (c < side)
    # a row outside the grid stands for the cell (0, 0)
    cell = np.where(inside, r, 0) * side + np.where(inside, c, 0)
    _check_rows(path, rows, types, "plane", parsed, [
        (~inside | _repeats(cell), lambda row: f"index {(int(row[0]), int(row[1]))} out of range or repeated"),
        (~(np.isfinite(re) & np.isfinite(im)), lambda row: f"value {float(row[2]) + 1j * float(row[3])} is not finite"),
    ])  # fmt: skip
    values = np.zeros((side, side), dtype=np.complex128)
    values[r, c] = re + 1j * im
    return Grid2D(resolution, values)


def write_directions(path, directions) -> None:
    write_csv(path, DIRECTION_HEADER, ((repr(v.vx), repr(v.vy)) for v in directions))


def _direction_problem(row) -> str | None:
    """Why a row of two floats is no `Direction`, in the words of its
    check; None if it is one."""
    from .directional import Direction

    try:
        Direction(float(row[0]), float(row[1]))
    except ValueError as exc:
        return f"bad direction row {row!r} ({exc})"
    return None


def read_directions(path):
    from .directional import Direction, DirectionSet

    rows = _open_rows(path, DIRECTION_HEADER)
    types = (float, float)
    (vx, vy), parsed = _columns(rows, types)
    valid = np.array([_direction_problem(row) is None for row in rows[:parsed]], dtype=bool)
    # a direction repeats when both components compare equal, -0.0 to 0.0
    _check_rows(path, rows, types, "direction", parsed, [
        (~valid, _direction_problem),
        (_repeats(np.column_stack((vx, vy)).view(np.complex128).ravel()), lambda row: f"direction {row!r} is repeated"),
    ])  # fmt: skip
    return DirectionSet(tuple(Direction(x, y) for x, y in zip(vx.tolist(), vy.tolist())))


def write_ladder_plot(path, report: dict) -> None:
    """A PNG of `estimate-22`'s report: per branch, the log2 operator norm
    against the log2 measure ratio, with the fitted slope."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("plotting requires matplotlib (install the 'plot' extra)", file=sys.stderr)
        return
    fig, ax = plt.subplots()
    for branch, decay in report.items():
        xs = [pt["log_ratio"] for pt in decay["ratio_ladder"]]
        ys = [pt["log_norm"] for pt in decay["ratio_ladder"]]
        ax.plot(xs, ys, marker="o", label=f"{branch} (slope {decay['slope']:.3f})")
    ax.set_xlabel("log2 measure ratio")
    ax.set_ylabel("log2 operator norm")
    ax.legend()
    fig.savefig(path, dpi=120)
    plt.close(fig)


def write_run(out_dir, report: dict, manifest: dict, ratios) -> None:
    """`verify`'s files in the existing directory `out_dir`: report.json,
    manifest.json and trials.csv, one row per trial ratio."""
    out_dir = Path(out_dir)
    write_json(out_dir / "report.json", report)
    write_json(out_dir / "manifest.json", manifest)
    write_csv(out_dir / "trials.csv", TRIALS_HEADER, ((i, repr(float(r))) for i, r in enumerate(ratios)))
