"""CSV readers and writers for signals, sets, tile collections, plane grids,
choice functions and direction sets.

Malformed input reports the offending data row (1-based, excluding the
header).
"""

from __future__ import annotations

import csv
import os
import stat

import numpy as np

from .grid import MAX_RESOLUTION, Grid2D, GridSet, GridSignal, check_resolution
from .tiles import BiTile, ChoiceFunction, TileCollection, member_indices, tile_slot


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


def _open_rows(path, expected_header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != expected_header:
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
    rows."""
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
    with open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "re", "im"])
        for i, value in enumerate(signal.values):
            writer.writerow([i, repr(float(value.real)), repr(float(value.imag))])


def read_signal(path) -> GridSignal:
    rows = _open_rows(path, ["index", "re", "im"])
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
    with open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "member"])
        for i, member in enumerate(s.mask):
            writer.writerow([i, int(member)])


def read_grid_set(path) -> GridSet:
    rows = _open_rows(path, ["index", "member"])
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
    with open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "n", "freq_offset"])
        writer.writerows(member_indices(collection.occupied))


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
    rows = _open_rows(path, ["k", "n", "freq_offset"])
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
    occupied = np.zeros((L, (1 << L) >> 1), dtype=bool)
    occupied.reshape(-1)[slots] = True
    return TileCollection(L, occupied)


def write_choice(path, choice: ChoiceFunction) -> None:
    with open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "freq"])
        for i, value in enumerate(choice.freqs):
            writer.writerow([i, int(value)])


def read_choice(path) -> ChoiceFunction:
    rows = _open_rows(path, ["index", "freq"])
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
    with open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "re", "im"])
        n = 1 << f.resolution
        for r in range(n):
            for c in range(n):
                value = f.values[r, c]
                writer.writerow([r, c, repr(float(value.real)), repr(float(value.imag))])


def read_grid2d(path) -> Grid2D:
    rows = _open_rows(path, ["row", "col", "re", "im"])
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
    with open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vx", "vy"])
        for v in directions:
            writer.writerow([repr(v.vx), repr(v.vy)])


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

    rows = _open_rows(path, ["vx", "vy"])
    types = (float, float)
    (vx, vy), parsed = _columns(rows, types)
    valid = np.array([_direction_problem(row) is None for row in rows[:parsed]], dtype=bool)
    # a direction repeats when both components compare equal, -0.0 to 0.0
    _check_rows(path, rows, types, "direction", parsed, [
        (~valid, _direction_problem),
        (_repeats(np.column_stack((vx, vy)).view(np.complex128).ravel()), lambda row: f"direction {row!r} is repeated"),
    ])  # fmt: skip
    return DirectionSet(tuple(Direction(x, y) for x, y in zip(vx.tolist(), vy.tolist())))
