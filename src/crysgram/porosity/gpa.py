"""Grid-point porosity: void fraction and probe-accessible void fraction.

A regular grid of cell-centered points covers the unit cell. One
clearance field holds, for each grid point, the minimum over every
periodic image of every atom of (distance - r_vdw). Each atom is
stamped over its bounding box on the fractional grid, whose half-width
along lattice direction i is (r_vdw + r_probe) / w_i for the
perpendicular slab width w_i; box indices wrap modulo the grid, so
every periodic image counts however far an atom reaches past the cell.
A point is occupied when its clearance is negative, and probe-admissible
when its clearance is at least r_probe; the void fraction is the
unoccupied share. Admissible points connect by face adjacency under
periodic wrap, and components that wrap around a lattice direction are
accessible (when none wraps, the largest component counts).
"""

import bisect
import functools
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
from scipy import ndimage

from ..errors import PorosityError
from ..files import atomic_write

DEFAULT_RHO_GRID = 5.0
DEFAULT_R_PROBE = 1.2

# Grid points one porosity call may hold. Each point costs 8 bytes of
# float64 clearance field, 1 of admissible mask and 4 of int32 flood-fill
# label; the budget allows 2 GiB of them, 2**31 // 13 points (about a
# 109 A cube at 5 points/A). A larger grid is refused before any of it
# is allocated.
_POINT_BYTES = 8 + 1 + 4
MAX_GRID_POINTS = (1 << 31) // _POINT_BYTES


def _parse_radii(text, source):
    """Element -> radius from 'symbol radius' lines of ``text``; blank lines
    and '#' comments are skipped, and errors name ``source`` and the line."""
    table = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise PorosityError(f"{source}:{lineno}: expected 'symbol radius'")
        table[parts[0]] = float(parts[1])
    return table


@functools.cache
def _default_radii():
    """The bundled table itself, loaded once; callers must not modify it."""
    return _parse_radii(resources.files("crysgram.porosity").joinpath(
        "data", "vdw_radii.tsv").read_text(encoding="utf-8"), "vdw_radii.tsv")


def default_radius_table():
    return dict(_default_radii())


def load_radius_table(path):
    """Element -> radius override file: 'Symbol<TAB or space>radius' lines."""
    with open(path, encoding="utf-8") as fh:
        return _parse_radii(fh.read(), path)


@dataclass
class PeriodicStructure:
    """Unit cell (rows are lattice vectors, angstrom) plus fractional sites."""

    lattice: np.ndarray
    sites: list  # (element symbol, fractional 3-vector)
    radius_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lattice = np.asarray(self.lattice, dtype=np.float64)
        if self.lattice.shape != (3, 3):
            raise PorosityError(
                f"lattice must be 3x3, got {self.lattice.shape}")
        if not np.isfinite(self.lattice).all():
            raise PorosityError("lattice entries must be finite")
        if np.linalg.det(self.lattice) <= 0:
            raise PorosityError("lattice must have positive determinant")
        wrapped = []
        for i, (element, frac) in enumerate(self.sites):
            frac = np.asarray(frac, dtype=np.float64)
            if not np.isfinite(frac).all():
                raise PorosityError(
                    f"site {i} ({element}): fractional coordinates must be "
                    f"finite, got {frac.tolist()}")
            wrapped.append((element, frac % 1.0))
        self.sites = wrapped

    @property
    def volume(self):
        return float(np.linalg.det(self.lattice))

    @property
    def n_atoms(self):
        return len(self.sites)

    def radius_of(self, element, table=None):
        """Van der Waals radius of ``element``: this structure's override,
        else ``table`` (default: the bundled table). Raises PorosityError
        unless the radius is finite and positive."""
        merged = table if table is not None else _default_radii()
        radius = self.radius_overrides.get(element, merged.get(element))
        if radius is None:
            raise PorosityError(
                f"no van der Waals radius for element {element!r}; "
                "supply an override table")
        radius = float(radius)
        if not 0.0 < radius < np.inf:
            raise PorosityError(
                f"van der Waals radius of {element!r} must be finite and "
                f"positive, got {radius}")
        return radius

    def min_cell_width(self):
        """Smallest perpendicular distance between opposite cell faces."""
        return float(_perpendicular_widths(self.lattice).min())


def load_structure(path):
    """Structure file: JSON with 'lattice' (9 reals or 3x3) and 'sites'."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    lattice = np.asarray(payload["lattice"], dtype=np.float64).reshape(3, 3)
    sites = [(str(entry[0]), np.asarray(entry[1:4], dtype=np.float64))
             for entry in payload["sites"]]
    overrides = {str(k): float(v)
                 for k, v in payload.get("radius_overrides", {}).items()}
    return PeriodicStructure(lattice=lattice, sites=sites,
                             radius_overrides=overrides)


def save_structure(structure, path):
    payload = {
        "lattice": structure.lattice.tolist(),
        "sites": [[element, *frac.tolist()] for element, frac in structure.sites],
    }
    if structure.radius_overrides:
        payload["radius_overrides"] = structure.radius_overrides
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class GridSpec:
    """Points per angstrom along each lattice direction."""

    rho_grid: float = DEFAULT_RHO_GRID

    def __post_init__(self):
        if not 0.0 < self.rho_grid < np.inf:
            raise PorosityError(
                f"grid density must be finite and positive: {self.rho_grid}")

    def dims(self, structure):
        """Points along each lattice direction; PorosityError when their
        product exceeds MAX_GRID_POINTS."""
        lengths = np.linalg.norm(structure.lattice, axis=1)
        with np.errstate(over="ignore"):  # an overflow is refused below
            points = np.maximum(np.ceil(self.rho_grid * lengths), 1.0)
            total = points.prod()
        if not total <= MAX_GRID_POINTS:
            raise PorosityError(
                f"a grid of {' x '.join(f'{p:.6g}' for p in points)} points "
                f"does not fit the point budget: {total:.6g} points, at most "
                f"{MAX_GRID_POINTS}")
        return tuple(int(p) for p in points)


@dataclass(frozen=True)
class PorosityResult:
    phi_void: float
    phi_acc: float
    n_unoccupied: int
    n_total: int
    n_accessible: int
    r_probe: float
    grid_dims: tuple
    # flood-fill facts; None when no flood fill ran
    n_components: int = None  # periodic components of admissible points
    percolates: bool = None  # some component wraps a lattice direction

    def __post_init__(self):
        if not 0.0 <= self.phi_acc <= self.phi_void <= 100.0:
            raise PorosityError(
                f"inconsistent result: phi_acc={self.phi_acc} "
                f"phi_void={self.phi_void}")

    def to_dict(self):
        return {
            "phi_void_percent": self.phi_void,
            "phi_accessible_percent": self.phi_acc,
            "n_unoccupied": self.n_unoccupied,
            "n_total": self.n_total,
            "n_accessible": self.n_accessible,
            "r_probe_angstrom": self.r_probe,
            "grid_dims": list(self.grid_dims),
            "n_components": self.n_components,
            "percolates": self.percolates,
        }


def _perpendicular_widths(lattice):
    # normal i = (row j) x (row k) for the other two rows j < k, in the
    # products and differences of np.cross, without its per-call cost
    a, b = lattice[[1, 0, 0]], lattice[[2, 2, 1]]
    normal = (a[:, [1, 2, 0]] * b[:, [2, 0, 1]]
              - a[:, [2, 0, 1]] * b[:, [1, 2, 0]])
    widths = np.empty(3)
    for i in range(3):
        widths[i] = abs(lattice[i] @ normal[i]) / np.linalg.norm(normal[i])
    return widths


_STAMP_POINTS = 1 << 16  # grid points stamped at once: bounds a call's memory


def _clearance_field(structure, dims, radii, pad):
    """min over atom images of (distance - radius) on the `dims` grid.

    Each atom is stamped over the grid points within radius + pad of
    its slab bounds; points no stamp reaches keep +inf (their clearance
    is at least `pad`). A box longer than the cell wraps onto some indices
    more than once, and ``np.minimum.at`` keeps the nearest image. The
    work per atom grows with (reach / slab width) cubed. A box whose
    bounds do not fit int64 raises PorosityError.

    Every atom goes through one loop over rows of (atom, axis-0 box
    index), in box-shape order: the atoms are sorted by their axis-1,
    then their axis-2 box length. Each pass stamps a run of whole rows,
    padded only to the largest axis-1 by axis-2 box among them, at most
    ``_STAMP_POINTS`` grid points (a single row, if one row is larger),
    with one 1-D ``np.minimum.at``, so a call holds the field plus a few
    chunk-sized arrays whatever the number of atoms or their reach. A
    padded entry has an infinite offset, so its distance is +inf and
    leaves the field as it is. A chunk's flat indices are its atoms'
    (axis-1, axis-2) index planes plus each row's axis-0 stride.

    The order in which atoms reach ``np.minimum.at`` cannot change a
    bit: the minimum of numbers is the same in any order, and the field
    holds neither NaN nor -0.0 (a distance is a square root of a sum of
    squares, +0.0 or more, and ``d - r`` is +0.0 when d equals r).

    The summation order is fixed: each Cartesian component of an offset
    is (axis-0 + axis-1) + axis-2, and the squared distance is
    (x*x + z*z) + y*y, the order in which numpy's ``einsum`` sums a
    length-3 contraction. The field then equals a per-atom ``einsum``
    stamp to the bit (tests/test_porosity.py keeps one as the oracle).
    The order (x*x + y*y) + z*z changes about one finite point in nine
    by a last bit, enough to move a point on a sphere surface across the
    occupied or admissible threshold.

    Component c sums only the axes whose lattice row has a nonzero entry
    in column c, and each component is squared at its own broadcast
    shape, so an orthogonal cell costs one full-size add. The bits do
    not change: a zero (or -0.0) entry gives a term of +-0.0, or +inf on
    a padded entry. Adding +-0.0 leaves a nonzero sum as it is, and a
    +-0.0 sum squares to +0.0. A lattice with positive determinant has
    no zero row, so every padded axis still puts +inf into at least one
    component, and its distance stays +inf.
    """
    field = np.full(dims, np.inf)
    lattice = structure.lattice
    frac = np.array([f for _, f in structure.sites]).reshape(-1, 3)
    radius = np.asarray(radii, dtype=np.float64)
    n = np.asarray(dims)
    center = frac * n - 0.5  # in grid-index units
    half = (radius[:, None] + pad) / _perpendicular_widths(lattice) * n
    # box bounds and lengths, in grid steps, must fit int64
    if not (np.abs(center) + half < 2.0 ** 62).all():
        raise PorosityError(
            f"stamp boxes of reach {radius.max() + pad} A at {dims} grid "
            "points do not fit the integer index range")
    lo = np.ceil(center - half).astype(np.int64)
    count = np.maximum(np.floor(center + half).astype(np.int64) - lo + 1, 0)
    # box-shape order (by axis-1, then axis-2 box length) over the atoms
    # whose box holds a grid point
    stamped = np.flatnonzero(count.all(axis=1))
    order = stamped[np.lexsort((count[stamped, 2], count[stamped, 1]))]
    frac, radius, lo, count = (v[order] for v in (frac, radius, lo, count))

    # axes 1 and 2: Cartesian offsets (component, atom, box index) from
    # the atom along the lattice row, and the wrapped grid index times
    # its stride in the flat field
    padded = []
    for axis, scale in ((1, dims[2]), (2, 1)):
        k = np.arange(count[:, axis].max(initial=0))
        idx = lo[:, axis, None] + k
        offset = ((idx + 0.5) / dims[axis] - frac[:, axis, None]) \
            * lattice[axis][:, None, None]
        # +inf past the atom's box
        np.copyto(offset, np.inf, where=k >= count[:, axis, None])
        padded.append((offset, idx % dims[axis] * scale))
    (offset1, wrapped1), (offset2, wrapped2) = padded
    # axis 0: one row per (atom, box index)
    atom = np.repeat(np.arange(len(radius)), count[:, 0])
    ends = np.cumsum(count[:, 0])  # one past each atom's rows
    idx0 = lo[atom, 0] + np.arange(len(atom)) - (ends - count[:, 0])[atom]
    offset0 = ((idx0 + 0.5) / dims[0] - frac[atom, 0]) * lattice[0][:, None]
    wrapped0 = idx0 % dims[0] * (dims[1] * dims[2])

    terms = [np.flatnonzero(lattice[:, c]).tolist() for c in range(3)]
    flat = field.reshape(-1)
    ends, box1, box2 = (v.tolist() for v in (ends, count[:, 1], count[:, 2]))

    def chunk_box(start, stop):
        """The atoms of rows start..stop-1 and their largest box, (k1, k2);
        the atoms are in box-shape order, so the last has the largest k1."""
        i = bisect.bisect(ends, start)
        j = bisect.bisect(ends, min(stop, len(atom)) - 1)
        return slice(i, j + 1), box1[j], max(box2[i:j + 1])

    start = 0
    while start < len(atom):
        # as many rows as fit at the first row's box, then as many of
        # those as fit at the largest box among them
        stop = start + 1
        for _ in range(2):
            _, k1, k2 = chunk_box(start, stop)
            stop = start + max(1, _STAMP_POINTS // (k1 * k2))
        atoms, k1, k2 = chunk_box(start, stop)
        rows = slice(start, stop)
        a = atom[rows] - atoms.start
        take = (rows, a, a)
        offsets = (offset0[:, :, None, None], offset1[:, atoms, :k1, None],
                   offset2[:, atoms, None, :k2])
        # each component is a fresh array or a slice of offset0 that
        # nothing else reads, so the squares and their sums may
        # overwrite it
        x, y, z = (functools.reduce(np.add, (offsets[axis][c, take[axis]]
                                             for axis in terms[c]))
                   for c in range(3))
        # in place, in the fixed order (x*x + z*z) + y*y
        clearance = _add(np.multiply(x, x, out=x),
                         np.multiply(z, z, out=z))
        clearance = _add(clearance, np.multiply(y, y, out=y))
        np.sqrt(clearance, out=clearance)
        clearance -= radius[atom[rows], None, None]
        # the atoms' (axis-1, axis-2) index planes, one per row, plus
        # the row's axis-0 stride
        index = (wrapped1[atoms, :k1, None] + wrapped2[atoms, None, :k2])[a]
        index += wrapped0[rows, None, None]
        np.minimum.at(flat, index.ravel(), clearance.ravel())
        del x, y, z, clearance, index  # before the next chunk is built
        start = stop
    return field


def _add(a, b):
    """a + b, written into a or b when one has the shape of the sum.
    Both are 3-D, and each axis of either is full or 1."""
    if a.shape != b.shape:
        shape = tuple(q if p == 1 else p for p, q in zip(a.shape, b.shape))
        if b.shape == shape:
            return np.add(a, b, out=b)
        if a.shape != shape:
            return a + b
    return np.add(a, b, out=a)


class _OffsetUnionFind:
    """Union-find over component labels with integer wrap displacements.

    ``offset[x]`` is the lattice-translation displacement of x relative
    to its parent, a tuple of three ints; a union that closes a loop
    with inconsistent displacement marks the root as percolating.
    """

    def __init__(self, n_labels):
        self.parent = list(range(n_labels + 1))
        self.offset = [(0, 0, 0)] * (n_labels + 1)
        self.size = [1] * (n_labels + 1)
        self.percolates = [False] * (n_labels + 1)

    def find(self, x):
        root = x
        path = []
        while self.parent[root] != root:
            path.append(root)
            root = self.parent[root]
        total = (0, 0, 0)
        for node in reversed(path):
            total = _plus(total, self.offset[node])
            self.parent[node] = root
            self.offset[node] = total
        return root

    def union(self, a, b, displacement):
        """Join a and b where unwrapped(b) = unwrapped(a) + displacement."""
        ra, rb = self.find(a), self.find(b)
        disp = tuple(d + p - q for d, p, q in zip(
            displacement, self.offset[a], self.offset[b]))
        if ra == rb:
            if any(disp):
                self.percolates[ra] = True
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
            disp = tuple(-d for d in disp)
        self.parent[rb] = ra
        self.offset[rb] = disp
        self.size[ra] += self.size[rb]
        self.percolates[ra] = self.percolates[ra] or self.percolates[rb]
        return ra


def _plus(u, v):
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def _accessible_count(admissible, dims):
    """(accessible points, periodic components, whether any percolates)
    among admissible points under periodic flood fill."""
    grid = admissible.reshape(dims)
    if not grid.any():
        return 0, 0, False
    labels, n_labels = ndimage.label(grid)  # 6-connectivity
    if n_labels == 0:
        return 0, 0, False
    uf = _OffsetUnionFind(n_labels)

    for axis in range(3):
        face = (slice(None),) * axis  # the axes before `axis`, whole
        lo, hi = labels[face + (0,)], labels[face + (-1,)]
        both = (lo > 0) & (hi > 0)
        if not both.any():
            continue
        displacement = [0, 0, 0]
        displacement[axis] = 1
        # one key per (hi, lo) pair sorts as the pairs do, lexicographically
        keys = hi[both].astype(np.int64) * (n_labels + 1) + lo[both]
        for key in sorted(set(keys.tolist())):
            uf.union(*divmod(key, n_labels + 1), displacement)

    counts = np.bincount(labels[grid], minlength=n_labels + 1)
    root_counts = {}
    root_percolates = {}
    for label in range(1, n_labels + 1):
        root = uf.find(label)
        root_counts[root] = root_counts.get(root, 0) + int(counts[label])
        root_percolates[root] = root_percolates.get(root, False) \
            or uf.percolates[root]
    percolating = [r for r, flag in root_percolates.items() if flag]
    if percolating:
        return (sum(root_counts[r] for r in percolating), len(root_counts),
                True)
    return max(root_counts.values()), len(root_counts), False


def accessible_void_fraction(structure, grid=None, r_probe=DEFAULT_R_PROBE,
                             flood_fill=True, radius_table=None):
    """Void fraction plus the probe-accessible fraction.

    With ``flood_fill`` disabled the accessible count is simply the
    probe-admissible count (pure overlap criterion), and the result
    carries no component facts.
    """
    if not 0.0 <= r_probe < np.inf:
        raise PorosityError(
            f"probe radius must be finite and >= 0, got {r_probe}")
    dims = (grid or GridSpec()).dims(structure)
    # each element's radius once, looked up in the order of first use
    radius = {element: structure.radius_of(element, radius_table)
              for element in dict.fromkeys(e for e, _ in structure.sites)}
    radii = [radius[element] for element, _ in structure.sites]
    # every point lies within half the summed edge lengths of an image of
    # every atom, so its clearance is below that cap and, stamped with it,
    # exact: a probe at or past the cap finds no admissible point
    reach = float(np.linalg.norm(structure.lattice, axis=1).sum()) / 2
    clearance = _clearance_field(structure, dims, radii, min(r_probe, reach))
    n_unoccupied = int(np.count_nonzero(clearance >= 0.0))
    n_total = clearance.size
    admissible = clearance >= r_probe
    n_components = percolates = None
    if flood_fill:
        n_accessible, n_components, percolates = _accessible_count(
            admissible, dims)
    else:
        n_accessible = int(np.count_nonzero(admissible))
    return PorosityResult(phi_void=100.0 * n_unoccupied / n_total,
                          phi_acc=100.0 * n_accessible / n_total,
                          n_unoccupied=n_unoccupied, n_total=n_total,
                          n_accessible=n_accessible, r_probe=r_probe,
                          grid_dims=dims, n_components=n_components,
                          percolates=percolates)


def structure_informatics(structure, result):
    """InformaticsFields carrying volume, atom count, and porosity values."""
    from ..tokens.vocab import InformaticsFields

    return InformaticsFields(
        unit_cell_volume=structure.volume,
        atom_count=structure.n_atoms if structure.n_atoms else None,
        porosity_fraction=result.phi_void,
        accessible_void_fraction=result.phi_acc,
    )
