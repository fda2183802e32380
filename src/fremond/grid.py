"""Uniform cell-centered grids and the discrete operators built on them.

The domain is an axis-aligned box in 1D or 2D, split into n uniform cells per
axis. All unknowns live at cell centers, x_i = (i + 1/2) h. Homogeneous
Neumann (zero-flux) boundaries are realized with mirrored ghost cells, so the
boundary face differences vanish identically and the discrete divergence
theorem holds exactly:

    sum_cells laplacian(f) * h^d = 0          (to round-off)
    sum_cells f * (-laplacian(f)) * h^d = dirichlet_form(f, f)   (exactly)

``grad_sq`` distributes the face-based Dirichlet form back onto cells, half a
face contribution to each adjacent cell; boundary faces contribute zero. In
2D, corner cells simply receive the two interior-face halves per axis, the
same rule as everywhere else (there is no special corner stencil).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "same_grid",
    "laplacian_neumann",
    "grad_sq",
    "dirichlet_form",
    "integrate",
    "norm",
    "write_snapshot",
    "read_snapshot",
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

    @classmethod
    def line(cls, n: int, extent: float = 1.0) -> "Grid":
        return cls((n,), (extent,))

    @classmethod
    def box(cls, nx: int, ny: int, extent=(1.0, 1.0)) -> "Grid":
        return cls((nx, ny), tuple(extent))

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple(e / k for e, k in zip(self.extent, self.n))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.n))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    @property
    def volume(self) -> float:
        return float(np.prod(self.extent))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.h[axis]
        return (np.arange(self.n[axis]) + 0.5) * h

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, each of shape ``grid.shape``."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        if self.dim == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def cosine_mode(self) -> np.ndarray:
        """Product over the axes of cos(pi x_a / L_a), a zero-flux eigenmode."""
        out = np.ones(self.shape)
        for axis, x in enumerate(self.meshgrid()):
            out = out * np.cos(np.pi * x / self.extent[axis])
        return out


@dataclass
class Field:
    """Scalar values, one per cell, stored C-contiguous (row-major)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            if v.size == self.grid.num_cells:
                v = v.reshape(self.grid.shape)
            else:
                raise ValueError(
                    f"value count {v.size} does not match grid with {self.grid.num_cells} cells"
                )
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        self.values = v

    @classmethod
    def full(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.shape))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def same_grid(a: Grid, b: Grid) -> bool:
    """Equal cell counts and spacings up to round-off (snapshot round-trips
    may perturb the reconstructed extent in the last ulp)."""
    if a.n != b.n:
        return False
    return all(abs(ha - hb) <= 1e-12 * ha for ha, hb in zip(a.h, b.h))


def _lap_values(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order Neumann Laplacian on raw values; ghost cell mirrors the edge cell."""
    out = np.zeros_like(v)
    for axis in range(grid.dim):
        h2 = grid.h[axis] ** 2
        p = np.pad(v, [(1, 1) if a == axis else (0, 0) for a in range(grid.dim)], mode="edge")
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        out += (p[tuple(lo)] + p[tuple(hi)] - 2.0 * v) / h2
    return out


def _grad_sq_values(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Cell-distributed Dirichlet form: half of each adjacent face difference squared."""
    out = np.zeros_like(v)
    for axis in range(grid.dim):
        d = np.diff(v, axis=axis) / grid.h[axis]
        d2 = d * d
        pad_lo = [(1, 0) if a == axis else (0, 0) for a in range(grid.dim)]
        pad_hi = [(0, 1) if a == axis else (0, 0) for a in range(grid.dim)]
        out += 0.5 * (np.pad(d2, pad_lo) + np.pad(d2, pad_hi))
    return out


def _dirichlet_values(f: np.ndarray, g: np.ndarray, grid: Grid) -> float:
    """Discrete integral of grad f . grad g over interior faces."""
    total = 0.0
    for axis in range(grid.dim):
        df = np.diff(f, axis=axis) / grid.h[axis]
        dg = np.diff(g, axis=axis) / grid.h[axis]
        total += float(np.sum(df * dg))
    return total * grid.cell_volume


def laplacian_neumann(f: Field) -> Field:
    """Zero-flux Laplacian, central stencil with mirrored ghosts.

    The discrete integral of the result vanishes (fluxes telescope), and
    cos(pi k x / L) sampled at cell centers is an exact eigenvector with
    per-axis eigenvalue -(2/h^2)(1 - cos(pi k h / L)).
    """
    return Field(f.grid, _lap_values(f.values, f.grid))


def grad_sq(f: Field) -> Field:
    """Pointwise squared-gradient surrogate, consistent with the Dirichlet form.

    Nonnegative by construction; summing against the cell volume reproduces
    ``dirichlet_form(f, f)`` exactly, hence sum f*(-lap f)*h^d as well.
    Boundary cells see only their interior face (the mirrored face difference
    is zero), so e.g. f(x)=x gives 1 in the interior and 1/2 at the ends.
    """
    return Field(f.grid, _grad_sq_values(f.values, f.grid))


def dirichlet_form(f: Field, g: Field) -> float:
    """Discrete integral of grad f . grad g (zero-flux boundary faces omitted)."""
    if not same_grid(f.grid, g.grid):
        raise ValueError("fields live on different grids")
    return _dirichlet_values(f.values, g.values, f.grid)


def integrate(f: Field) -> float:
    """Midpoint-rule integral, sum of values times cell volume."""
    return float(f.values.sum()) * f.grid.cell_volume


def norm(f: Field, kind: str = "L2") -> float:
    """Discrete norms: L1, L2, H1semi (Dirichlet form), H1."""
    vol = f.grid.cell_volume
    if kind == "L1":
        return float(np.abs(f.values).sum()) * vol
    if kind == "L2":
        return float(np.sqrt(np.sum(f.values**2) * vol))
    if kind == "H1semi":
        return float(np.sqrt(_dirichlet_values(f.values, f.values, f.grid)))
    if kind == "H1":
        l2 = np.sum(f.values**2) * vol
        return float(np.sqrt(l2 + _dirichlet_values(f.values, f.values, f.grid)))
    raise ValueError(f"unknown norm kind {kind!r}")


# --- snapshot files -------------------------------------------------------
#
# ASCII, one record per field:
#   FIELD dim=<d> n=<n1[,n2]> h=<h1[,h2]> t=<time>
#   v0 v1 v2 ...            (row-major, any whitespace)
# Several records may be concatenated in one file (read_snapshots).


def _format_header(f: Field, t: float) -> str:
    n = ",".join(str(k) for k in f.grid.n)
    h = ",".join(repr(float(x)) for x in f.grid.h)
    return f"FIELD dim={f.grid.dim} n={n} h={h} t={float(t)!r}\n"


def write_snapshot(f: Field, path, t: float = 0.0) -> None:
    with open(path, "w") as fh:
        _write_record(fh, f, t)


def _write_record(fh, f: Field, t: float) -> None:
    fh.write(_format_header(f, float(t)))
    flat = f.values.ravel().tolist()
    for i in range(0, len(flat), 8):
        fh.write(" ".join(repr(x) for x in flat[i : i + 8]))
        fh.write("\n")


def _read_record(fh) -> tuple[Field, float] | None:
    header = fh.readline()
    while header and not header.strip():
        header = fh.readline()
    if not header:
        return None
    parts = header.split()
    if not parts or parts[0] != "FIELD":
        raise ValueError(f"bad snapshot header: {header!r}")
    kv = dict(p.split("=", 1) for p in parts[1:])
    dim = int(kv["dim"])
    n = tuple(int(x) for x in kv["n"].split(","))
    h = tuple(float(x) for x in kv["h"].split(","))
    if len(n) != dim or len(h) != dim:
        raise ValueError(f"inconsistent snapshot header: {header!r}")
    t = float(kv["t"])
    grid = Grid(n, tuple(hi * ni for hi, ni in zip(h, n)))
    count = int(np.prod(n))
    vals: list[float] = []
    while len(vals) < count:
        line = fh.readline()
        if not line:
            raise ValueError("snapshot file truncated")
        vals.extend(float(x) for x in line.split())
    if len(vals) != count:
        raise ValueError("snapshot record has trailing values")
    return Field(grid, np.asarray(vals).reshape(n)), t


def read_snapshot(path) -> tuple[Field, float]:
    with open(path) as fh:
        rec = _read_record(fh)
    if rec is None:
        raise ValueError(f"{path}: empty snapshot file")
    return rec


def read_snapshots(path) -> list[tuple[Field, float]]:
    """Read all concatenated records in one file."""
    out = []
    with open(path) as fh:
        while True:
            rec = _read_record(fh)
            if rec is None:
                break
            out.append(rec)
    return out
