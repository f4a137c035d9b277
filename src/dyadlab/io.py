"""CSV readers and writers for signals, sets, tile collections, plane grids,
choice functions and direction sets.

Malformed input reports the offending data row (1-based, excluding the
header).
"""

from __future__ import annotations

import cmath
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


def _width_problem(row, width: int, kind: str) -> str:
    return f"bad {kind} row {row!r} (expected {width} fields, got {len(row)})"


def _numbered(path, rows, width: int, kind: str):
    """(row number, row) over the data rows; a row whose field count is not
    the header's fails."""
    for number, row in enumerate(rows, start=1):
        if len(row) != width:
            _fail(path, number, _width_problem(row, width, kind))
        yield number, row


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


def _claim_index(path, row_number, index, seen: np.ndarray) -> None:
    """Reject a cell index (an int, or a (row, col) pair for a 2D `seen`)
    outside `seen` or already seen; with one row per cell this also rules out
    missing indices."""
    cell = index if isinstance(index, tuple) else (index,)
    if not all(0 <= i < n for i, n in zip(cell, seen.shape)) or seen[cell]:
        _fail(path, row_number, f"index {index} out of range or repeated")
    seen[cell] = True


def _claim_finite(path, row_number, value: complex) -> None:
    if not cmath.isfinite(value):
        _fail(path, row_number, f"value {value} is not finite")


def write_signal(path, signal: GridSignal) -> None:
    with open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "re", "im"])
        for i, value in enumerate(signal.values):
            writer.writerow([i, repr(float(value.real)), repr(float(value.imag))])


def read_signal(path) -> GridSignal:
    rows = _open_rows(path, ["index", "re", "im"])
    resolution = _resolution_for(len(rows), path)
    values = np.zeros(len(rows), dtype=np.complex128)
    seen = np.zeros(len(rows), dtype=bool)
    for number, row in _numbered(path, rows, 3, "signal"):
        try:
            index = int(row[0])
            value = float(row[1]) + 1j * float(row[2])
        except ValueError as exc:
            _fail(path, number, f"bad signal row {row!r} ({exc})")
        _claim_index(path, number, index, seen)
        _claim_finite(path, number, value)
        values[index] = value
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
    mask = np.zeros(len(rows), dtype=bool)
    seen = np.zeros(len(rows), dtype=bool)
    for number, row in _numbered(path, rows, 2, "set"):
        try:
            index = int(row[0])
            member = int(row[1])
        except ValueError as exc:
            _fail(path, number, f"bad set row {row!r} ({exc})")
        if member not in (0, 1):
            _fail(path, number, f"member must be 0 or 1, got {member}")
        _claim_index(path, number, index, seen)
        mask[index] = bool(member)
    return GridSet(resolution, mask)


def write_tile_collection(path, collection: TileCollection) -> None:
    with open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "n", "freq_offset"])
        writer.writerows(member_indices(collection.occupied))


def _leading_int_rows(rows, width: int) -> tuple[list[int], int]:
    """The fields of the leading rows that have `width` fields, each one
    `int` accepts, in order, and the number of those rows."""
    values: list[int] = []
    for count, row in enumerate(rows):
        if len(row) != width:
            return values, count
        try:
            values += [int(x) for x in row]
        except ValueError:
            return values, count
    return values, len(rows)


def _tile_row_problem(row, resolution: int) -> str:
    """Why a data row is not a new bi-tile of the resolution, checked in the
    order field count, integer fields, bi-tile data, fit; a row that passes
    all four repeats an earlier one."""
    if len(row) != 3:
        return _width_problem(row, 3, "bi-tile")
    try:
        p = BiTile(*map(int, row))
    except ValueError as exc:
        return f"bad bi-tile row {row!r} ({exc})"
    if not p.fits(resolution):
        return f"bi-tile {row!r} does not fit resolution {resolution}"
    return f"bi-tile {row!r} is repeated"


def read_tile_collection(path, resolution: int) -> TileCollection:
    """The bi-tiles of a k,n,freq_offset file as a collection. The rows are
    parsed into one (N, 3) integer array, whose fit and repeats are checked
    as arrays; the first bad row fails with its number."""
    check_resolution(resolution)
    L = resolution
    rows = _open_rows(path, ["k", "n", "freq_offset"])
    values, parsed = _leading_int_rows(rows, 3)
    try:
        table = np.array(values, dtype=np.int64)
    except OverflowError:
        # a value beyond int64 fits no resolution; -1 marks it as bad
        table = np.array([v if abs(v) < 1 << 62 else -1 for v in values], dtype=np.int64)
    table = table.reshape(parsed, 3)
    scale, offset, freq = table.T
    known = (0 <= scale) & (scale < L)
    k = np.where(known, scale, 0)
    limits = 1 << np.arange(max(L, 1))  # 2**j; at L=0 no scale is known
    fits = known & (0 <= offset) & (offset < limits[k]) & (0 <= freq) & (freq < limits[L - 1 - k])
    bad = parsed if fits.all() else int(np.argmin(fits))
    slots = tile_slot(L, *table[:bad].T)
    _, first = np.unique(slots, return_index=True)
    if first.size < bad:
        repeated = np.ones(bad, dtype=bool)
        repeated[first] = False
        bad = int(np.argmax(repeated))
    if bad < len(rows):
        _fail(path, bad + 1, _tile_row_problem(rows[bad], L))
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
    freqs = np.zeros(len(rows), dtype=np.int64)
    seen = np.zeros(len(rows), dtype=bool)
    for number, row in _numbered(path, rows, 2, "choice"):
        try:
            index = int(row[0])
            freq = int(row[1])
        except ValueError as exc:
            _fail(path, number, f"bad choice row {row!r} ({exc})")
        _claim_index(path, number, index, seen)
        if not 0 <= freq < len(rows):
            _fail(path, number, f"frequency {freq} outside [0, {len(rows)})")
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
    values = np.zeros((side, side), dtype=np.complex128)
    seen = np.zeros((side, side), dtype=bool)
    for number, row in _numbered(path, rows, 4, "plane"):
        try:
            cell = (int(row[0]), int(row[1]))
            value = float(row[2]) + 1j * float(row[3])
        except ValueError as exc:
            _fail(path, number, f"bad plane row {row!r} ({exc})")
        _claim_index(path, number, cell, seen)
        _claim_finite(path, number, value)
        values[cell] = value
    return Grid2D(resolution, values)


def write_directions(path, directions) -> None:
    with open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vx", "vy"])
        for v in directions:
            writer.writerow([repr(v.vx), repr(v.vy)])


def read_directions(path):
    from .directional import Direction, DirectionSet

    rows = _open_rows(path, ["vx", "vy"])
    members = []
    seen = set()
    for number, row in _numbered(path, rows, 2, "direction"):
        try:
            v = Direction(float(row[0]), float(row[1]))
        except ValueError as exc:
            _fail(path, number, f"bad direction row {row!r} ({exc})")
        if (v.vx, v.vy) in seen:
            _fail(path, number, f"direction {row!r} is repeated")
        seen.add((v.vx, v.vy))
        members.append(v)
    return DirectionSet(tuple(members))
