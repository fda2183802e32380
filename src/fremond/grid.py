"""Uniform cell-centered grids and the discrete operators built on them.

The domain is an axis-aligned box in 1D or 2D, split into n uniform cells per
axis. All unknowns live at cell centers, x_i = (i + 1/2) h. Homogeneous
Neumann (zero-flux) boundaries are realized with mirrored ghost cells, so the
boundary face differences vanish identically and the discrete divergence
theorem holds exactly:

    sum_cells laplacian(f) * h^d = 0          (to round-off)
    sum_cells f * (-laplacian(f)) * h^d = _dirichlet_values(f, f)   (exactly)

``_grad_sq_values`` distributes that face-based Dirichlet form back onto cells,
half a face contribution to each adjacent cell; boundary faces contribute zero
(f(x) = x gives 1 inside and 1/2 at the ends). In 2D, corner cells simply
receive the two interior-face halves per axis, the same rule as everywhere else
(there is no special corner stencil).

A snapshot file is text, one record per field, and all of its records live
on one grid: ``write_snapshots`` writes a stacked Field (a leading record
axis), or several interleaved, and ``read_snapshots`` yields its records one
at a time in one pass over the file. Neither copies the whole stack: writing
holds one record's text at a time and reading one record, so a reader that
fills its own array holds the values plus one record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import ConfigError

__all__ = [
    "Grid",
    "Field",
    "same_grid",
    "laplacian_neumann",
    "integrate",
    "norm",
    "write_snapshots",
    "read_snapshots",
]


@dataclass(frozen=True)
class Grid:
    """Axis-aligned box with n uniform cells per axis, cell-centered unknowns."""

    n: tuple[int, ...]
    extent: tuple[float, ...]

    def __post_init__(self):
        n = tuple(int(k) for k in np.atleast_1d(self.n))
        extent = tuple(float(e) for e in np.atleast_1d(self.extent))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "extent", extent)
        if len(n) not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {len(n)}")
        if len(extent) != len(n):
            raise ValueError("n and extent must have the same length")
        if any(k < 2 for k in n):
            raise ValueError(f"need at least 2 cells per axis, got n={n}")
        if any(e <= 0 for e in extent):
            raise ValueError(f"extent must be positive, got {extent}")
        if not all(np.finfo(float).tiny <= h * h < np.inf for h in self.h):
            raise ValueError(f"cell spacing h = {self.h} (extent / n): h^2 over- or underflows")

    @classmethod
    def line(cls, n: int, extent: float = 1.0) -> "Grid":
        return cls((n,), (extent,))

    @property
    def dim(self) -> int:
        return len(self.n)

    @cached_property
    def h(self) -> tuple[float, ...]:
        return tuple(e / k for e, k in zip(self.extent, self.n))

    @cached_property
    def h2(self) -> tuple[float, ...]:
        return tuple(h**2 for h in self.h)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @cached_property
    def axes(self) -> tuple[int, ...]:
        """The grid axes of a value array, counted from the end past any stack axes."""
        return tuple(range(-self.dim, 0))

    @cached_property
    def _lap_stencil(self) -> tuple:
        """Per grid axis, what ``_lap_values`` indexes with: (axis, h^2, edge-cell slices, neighbour slices)."""
        out = []
        for axis, h2 in zip(self.axes, self.h2):
            tail = (slice(None),) * (-1 - axis)  # the axes after this one, so the slice before it cuts this axis
            edges = ((..., slice(None, 1)) + tail, (..., slice(-1, None)) + tail)
            out.append((axis, h2, edges, ((..., slice(None, -2)) + tail, (..., slice(2, None)) + tail)))
        return tuple(out)

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.n))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, each of shape ``grid.shape``."""
        return tuple(np.meshgrid(*((np.arange(n) + 0.5) * h for n, h in zip(self.n, self.h)), indexing="ij"))

    def cosine_mode(self) -> np.ndarray:
        """Product over the axes of cos(pi x_a / L_a), a zero-flux eigenmode."""
        return np.prod([np.cos(np.pi * x / extent) for x, extent in zip(self.meshgrid(), self.extent)], axis=0)


@dataclass
class Field:
    """Scalar values, one per cell, in row-major index order; values of shape
    (..., *grid.shape) stack fields along leading axes (a trajectory's time, a
    batch's members). The values are kept as given, so a Field may be a strided
    view into a larger stack, such as one member's series in a batch trajectory."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape[-self.grid.dim:] != self.grid.shape:
            raise ValueError(f"values of shape {v.shape} do not end in the grid's shape {self.grid.shape}")
        # a NaN propagates through min and max, so both are finite exactly when every value is;
        # unlike an isfinite mask, they allocate nothing as large as the values
        if not (math.isfinite(v.min(initial=0.0)) and math.isfinite(v.max(initial=0.0))):
            raise ValueError("field contains non-finite values")
        self.values = v

    @classmethod
    def full(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.shape))

    def min(self) -> float:
        return float(self.values.min())


def same_grid(a: Grid, b: Grid) -> bool:
    """Equal cell counts and spacings up to round-off (snapshot round-trips
    may perturb the reconstructed extent in the last ulp)."""
    if a is b:
        return True
    if a.n != b.n:
        return False
    return all(abs(ha - hb) <= 1e-12 * ha for ha, hb in zip(a.h, b.h))


def _lap_values(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order Neumann Laplacian on raw values (..., *grid.shape); ghost cell mirrors the
    edge cell, so along each axis the neighbour sums at the ends are v[0] + v[1] and v[-2] + v[-1]."""
    out = None
    for axis, h2, (first, last), (lo, hi) in grid._lap_stencil:
        padded = np.concatenate((v[first], v, v[last]), axis=axis)
        s = padded[lo] + padded[hi]
        s -= 2.0 * v
        s /= h2
        # the first term starts the sum: no term is -0.0 (equal operands subtract to +0.0),
        # so this is bitwise the sum started from zeros
        if out is None:
            out = s
        else:
            out += s
    return out


def _grad_sq_values(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Cell-distributed Dirichlet form: half of each adjacent face difference squared."""
    out = np.zeros_like(v)
    for axis, h in zip(grid.axes, grid.h):
        w = v.swapaxes(0, axis)
        d2 = (np.diff(w, axis=0) / h) ** 2
        s = np.zeros_like(w)
        s[:-1] = d2
        s[1:] += d2
        s *= 0.5
        out += s.swapaxes(0, axis)
    return out


def _dirichlet_values(f: np.ndarray, g: np.ndarray, grid: Grid):
    """Discrete integral of grad f . grad g over interior faces, per leading index of stacked values."""
    total = 0.0
    for axis, h in zip(grid.axes, grid.h):
        df = np.diff(f, axis=axis) / h
        dg = df if g is f else np.diff(g, axis=axis) / h
        total += np.sum(df * dg, axis=grid.axes)
    return total * grid.cell_volume


def laplacian_neumann(f: Field) -> Field:
    """Zero-flux Laplacian, central stencil with mirrored ghosts.

    The discrete integral of the result vanishes (fluxes telescope), and
    cos(pi k x / L) sampled at cell centers is an exact eigenvector with
    per-axis eigenvalue -(2/h^2)(1 - cos(pi k h / L)).
    """
    return Field(f.grid, _lap_values(f.values, f.grid))


def integrate(f: Field) -> float:
    """Midpoint-rule integral, sum of values times cell volume."""
    return float(f.values.sum()) * f.grid.cell_volume


def norm(f: Field, kind: str = "L2") -> float:
    """Discrete norms: L1, L2."""
    vol = f.grid.cell_volume
    if kind == "L1":
        return float(np.abs(f.values).sum()) * vol
    if kind == "L2":
        return float(np.sqrt(np.sum(f.values**2) * vol))
    raise ValueError(f"unknown norm kind {kind!r}")


# --- snapshot files -------------------------------------------------------
#
# ASCII, one record per field, every record of a file on the same grid:
#   FIELD dim=<d> n=<n1[,n2]> h=<h1[,h2]> t=<time>
#   v0 v1 v2 ...            (row-major, any whitespace)


def write_snapshots(f: Field | tuple[Field, ...], path, times) -> None:
    """One record per leading index of ``f.values``, which has shape
    (len(times), *grid.shape); record k carries the time ``times[k]``. Given
    a tuple of such Fields on one grid, each time gets one record of each, in
    the tuple's order, written from the Fields as they are (no interleaved copy)."""
    fields = f if isinstance(f, tuple) else (f,)
    grid = fields[0].grid
    for fld in fields:
        if fld.values.shape != (len(times), *grid.shape):
            raise ValueError(f"values of shape {fld.values.shape} are not {len(times)} records of shape {grid.shape}")
    n = ",".join(str(k) for k in grid.n)
    h = ",".join(repr(float(x)) for x in grid.h)
    with open(path, "w") as fh:
        for k, t in enumerate(times):
            header = f"FIELD dim={grid.dim} n={n} h={h} t={float(t)!r}\n"
            for fld in fields:
                fh.write(header)
                flat = fld.values[k].ravel().tolist()
                for i in range(0, len(flat), 8):
                    fh.write(" ".join(map(repr, flat[i : i + 8])) + "\n")


def read_snapshots(path) -> Iterator[tuple[Grid, np.ndarray, float]]:
    """Each record of a snapshot file as (grid, values of shape grid.shape, time), in one pass
    over the file, so reading holds one record at a time. A malformed record, an empty file or
    records on different grids is a ConfigError naming the file, raised when reading reaches it."""
    grid_nh, grid_text = None, None
    try:
        with open(path) as fh:
            lines = (line for line in fh if line.strip())
            for k, header in enumerate(lines):
                parts = header.split()
                if parts[0] != "FIELD":
                    raise ValueError(f"bad snapshot header: {header!r}")
                kv = dict(p.split("=", 1) for p in parts[1:])
                if missing := [key for key in ("dim", "n", "h", "t") if key not in kv]:
                    raise ValueError(f"snapshot header lacks {', '.join(missing)}: {header!r}")
                if (kv["dim"], kv["n"], kv["h"]) != grid_text:  # parsed only where the text changes
                    n = tuple(int(x) for x in kv["n"].split(","))
                    h = tuple(float(x) for x in kv["h"].split(","))
                    if not len(n) == len(h) == int(kv["dim"]):
                        raise ValueError(f"inconsistent snapshot header: {header!r}")
                    if grid_nh not in (None, (n, h)):
                        raise ValueError(f"record {k} is on another grid than record 0: {header!r}")
                    grid_nh, grid_text, count = (n, h), (kv["dim"], kv["n"], kv["h"]), math.prod(n)
                    grid = Grid(n, tuple(hi * ni for hi, ni in zip(h, n)))
                tokens: list[str] = []
                while len(tokens) < count:
                    line = next(lines, None)
                    if line is None:
                        raise ValueError("snapshot file truncated")
                    tokens += line.split()
                if len(tokens) != count:
                    raise ValueError("snapshot record has trailing values")
                yield grid, np.array(tokens, dtype=float).reshape(n), float(kv["t"])
        if grid_nh is None:
            raise ValueError("empty snapshot file")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
