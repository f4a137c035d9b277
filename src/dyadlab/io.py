"""CSV readers and writers for signals, sets, tile collections, plane grids,
choice functions and direction sets.

Malformed input reports the offending data row (1-based, excluding the
header).
"""

from __future__ import annotations

import csv

import numpy as np

from .grid import GridSet, GridSignal
from .plane import Grid2D
from .tiles import BiTile, ChoiceFunction, TileCollection


def _open_rows(path, expected_header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != expected_header:
        raise ValueError(f"{path}: expected header {','.join(expected_header)}")
    return rows[1:]


def _fail(path, row_number, message):
    raise ValueError(f"{path}: row {row_number}: {message}")


def _resolution_for(count: int, path) -> int:
    resolution = count.bit_length() - 1
    if count <= 0 or (1 << resolution) != count:
        raise ValueError(f"{path}: row count {count} is not a power of two")
    return resolution


def _claim_index(path, row_number, index, seen: np.ndarray) -> None:
    """Reject a cell index (an int, or a (row, col) pair for a 2D `seen`)
    outside `seen` or already seen; with one row per cell this also rules out
    missing indices."""
    cell = index if isinstance(index, tuple) else (index,)
    if not all(0 <= i < n for i, n in zip(cell, seen.shape)) or seen[cell]:
        _fail(path, row_number, f"index {index} out of range or repeated")
    seen[cell] = True


def write_signal(path, signal: GridSignal) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "re", "im"])
        for i, value in enumerate(signal.values):
            writer.writerow([i, repr(float(value.real)), repr(float(value.imag))])


def read_signal(path) -> GridSignal:
    rows = _open_rows(path, ["index", "re", "im"])
    resolution = _resolution_for(len(rows), path)
    values = np.zeros(len(rows), dtype=np.complex128)
    seen = np.zeros(len(rows), dtype=bool)
    for number, row in enumerate(rows, start=1):
        try:
            index = int(row[0])
            value = float(row[1]) + 1j * float(row[2])
        except (IndexError, ValueError) as exc:
            _fail(path, number, f"bad signal row {row!r} ({exc})")
        _claim_index(path, number, index, seen)
        values[index] = value
    return GridSignal(resolution, values)


def write_grid_set(path, s: GridSet) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "member"])
        for i, member in enumerate(s.mask):
            writer.writerow([i, int(member)])


def read_grid_set(path) -> GridSet:
    rows = _open_rows(path, ["index", "member"])
    resolution = _resolution_for(len(rows), path)
    mask = np.zeros(len(rows), dtype=bool)
    seen = np.zeros(len(rows), dtype=bool)
    for number, row in enumerate(rows, start=1):
        try:
            index = int(row[0])
            member = int(row[1])
        except (IndexError, ValueError) as exc:
            _fail(path, number, f"bad set row {row!r} ({exc})")
        if member not in (0, 1):
            _fail(path, number, f"member must be 0 or 1, got {member}")
        _claim_index(path, number, index, seen)
        mask[index] = bool(member)
    return GridSet(resolution, mask)


def write_tile_collection(path, collection: TileCollection) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "n", "freq_offset"])
        for p in sorted(collection.bitiles, key=lambda p: (p.scale, p.offset, p.freq_index)):
            writer.writerow([p.scale, p.offset, p.freq_index])


def read_tile_collection(path, resolution: int) -> TileCollection:
    rows = _open_rows(path, ["k", "n", "freq_offset"])
    bitiles = set()
    for number, row in enumerate(rows, start=1):
        try:
            p = BiTile(int(row[0]), int(row[1]), int(row[2]))
        except (IndexError, ValueError) as exc:
            _fail(path, number, f"bad bi-tile row {row!r} ({exc})")
        if not p.fits(resolution):
            _fail(path, number, f"bi-tile {row!r} does not fit resolution {resolution}")
        if p in bitiles:
            _fail(path, number, f"bi-tile {row!r} is repeated")
        bitiles.add(p)
    return TileCollection.from_bitiles(resolution, bitiles)


def write_choice(path, choice: ChoiceFunction) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "freq"])
        for i, value in enumerate(choice.freqs):
            writer.writerow([i, int(value)])


def read_choice(path) -> ChoiceFunction:
    rows = _open_rows(path, ["index", "freq"])
    resolution = _resolution_for(len(rows), path)
    freqs = np.zeros(len(rows), dtype=np.int64)
    seen = np.zeros(len(rows), dtype=bool)
    for number, row in enumerate(rows, start=1):
        try:
            index = int(row[0])
            freq = int(row[1])
        except (IndexError, ValueError) as exc:
            _fail(path, number, f"bad choice row {row!r} ({exc})")
        _claim_index(path, number, index, seen)
        if not 0 <= freq < len(rows):
            _fail(path, number, f"frequency {freq} outside [0, {len(rows)})")
        freqs[index] = freq
    return ChoiceFunction(resolution, freqs)


def write_grid2d(path, f: Grid2D) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "re", "im"])
        n = 1 << f.resolution
        for r in range(n):
            for c in range(n):
                value = f.values[r, c]
                writer.writerow([r, c, repr(float(value.real)), repr(float(value.imag))])


def read_grid2d(path) -> Grid2D:
    rows = _open_rows(path, ["row", "col", "re", "im"])
    count = len(rows)
    side = int(round(count**0.5))
    if side * side != count or side & (side - 1):
        raise ValueError(f"{path}: row count {count} is not a square power of two")
    values = np.zeros((side, side), dtype=np.complex128)
    seen = np.zeros((side, side), dtype=bool)
    for number, row in enumerate(rows, start=1):
        try:
            cell = (int(row[0]), int(row[1]))
            value = float(row[2]) + 1j * float(row[3])
        except (IndexError, ValueError) as exc:
            _fail(path, number, f"bad plane row {row!r} ({exc})")
        _claim_index(path, number, cell, seen)
        values[cell] = value
    return Grid2D(side.bit_length() - 1, values)


def write_directions(path, directions) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vx", "vy"])
        for v in directions:
            writer.writerow([repr(v.vx), repr(v.vy)])


def read_directions(path):
    from .directional import Direction, DirectionSet

    rows = _open_rows(path, ["vx", "vy"])
    members = []
    for number, row in enumerate(rows, start=1):
        try:
            members.append(Direction(float(row[0]), float(row[1])))
        except (IndexError, ValueError) as exc:
            _fail(path, number, f"bad direction row {row!r} ({exc})")
    return DirectionSet(tuple(members))
