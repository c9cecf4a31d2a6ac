"""Grid-point porosity: analytic sphere oracles, a brute-force image
search oracle, a per-atom stamp as a bitwise oracle and a memory bound
for the clearance field, a breadth-first search as the flood-fill
oracle, accessibility fixtures, and monotonicity/convergence
properties."""

import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, note, seed, settings
from hypothesis import strategies as st

from crysgram.errors import PorosityError
from crysgram.porosity import (
    GridSpec,
    PeriodicStructure,
    accessible_void_fraction,
    default_radius_table,
    load_radius_table,
    load_structure,
    save_structure,
    structure_informatics,
)
from crysgram.porosity.gpa import (
    MAX_GRID_POINTS,
    _STAMP_POINTS,
    _accessible_count,
    _clearance_field,
    _perpendicular_widths,
)
from crysgram.tokens import InformaticsBinning, quantize_informatics


# the plain void fraction: no probe, no flood fill
ZERO_PROBE = {"r_probe": 0.0, "flood_fill": False}


def single_sphere(a=10.0, radius=2.0, center=(0.5, 0.5, 0.5)):
    return PeriodicStructure(lattice=np.eye(3) * a,
                             sites=[("X", np.array(center))],
                             radius_overrides={"X": radius})


def sphere_volume_fraction(radius, a):
    return (4.0 * math.pi / 3.0) * radius ** 3 / a ** 3


CAGE_CELL, CAGE_CENTER, CAGE_HALF_WIDTH = 16.0, 8.0, 4.0


def sealed_cage():
    """Cubic cage of atoms on a 2 A surface grid at |x-c|_inf = 4 around
    the center c of a 16 A cell (r_vdW = 2); with probe 1.2 its central
    pocket is admissible but sealed."""
    a, c = CAGE_CELL, np.full(3, CAGE_CENTER)
    coords = (-4, -2, 0, 2, 4)
    sites = [("X", (c + np.array([x, y, z])) / a)
             for x in coords for y in coords for z in coords
             if max(abs(x), abs(y), abs(z)) == CAGE_HALF_WIDTH]
    cage = PeriodicStructure(lattice=np.eye(3) * a, sites=sites,
                             radius_overrides={"X": 2.0})
    return cage


# -- brute-force oracle ----------------------------------------------------------
#
# The image search crysgram used before the clearance field: every grid
# point against every periodic image of every atom whose sphere can reach
# the cell. `shells` bounds |shift| per lattice direction; (1, 1, 1) is
# the old 27-cell search, exact while reach stays below half the minimal
# cell width. `ties` marks points within 1e-9 A of a sphere surface,
# where the oracle's d^2 < r^2 and the field's d - r < 0 may round apart.

BOUNDARY_TOL = 1e-9


def _within_any_sphere(points_cart, structure, radii, shells):
    shifts = np.array(list(itertools.product(
        *(range(-k, k + 1) for k in shells))), dtype=np.float64)
    widths = _perpendicular_widths(structure.lattice)
    hit = np.zeros(points_cart.shape[0], dtype=bool)
    ties = np.zeros(points_cart.shape[0], dtype=bool)
    for (_, frac), radius in zip(structure.sites, radii):
        shifted = frac + shifts
        slab_dist = np.maximum(np.maximum(-shifted, shifted - 1.0), 0.0) \
            * widths
        for image in shifted[(slab_dist < radius).all(axis=1)] \
                @ structure.lattice:
            d2 = np.einsum("ij,ij->i", points_cart - image,
                           points_cart - image)
            hit |= d2 < radius * radius
            ties |= np.abs(np.sqrt(d2) - radius) < BOUNDARY_TOL
    return hit, ties


def brute_force(structure, grid, r_probe, shells=(1, 1, 1)):
    """(n_unoccupied, admissible mask on the grid, any boundary ties)."""
    dims = grid.dims(structure)
    axes = [(np.arange(n) + 0.5) / n for n in dims]
    frac = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    points = frac.reshape(-1, 3) @ structure.lattice
    radii = [structure.radius_of(e) for e, _ in structure.sites]
    occupied, ties_occ = _within_any_sphere(points, structure, radii, shells)
    blocked, ties_blk = _within_any_sphere(
        points, structure, [r + r_probe for r in radii], shells)
    return (int((~occupied).sum()), (~blocked).reshape(dims),
            bool(ties_occ.any() or ties_blk.any()))


# -- flood-fill oracle -----------------------------------------------------------
#
# A plain breadth-first search over the wrapped grid that carries the
# integer image offset of every point it reaches: crossing a cell face
# along axis i adds +-1 to offset i. A component percolates when the
# search reaches one point at two different offsets.


def bfs_flood_fill(admissible):
    """(accessible points, components, whether any percolates)."""
    dims = admissible.shape
    offset_of = {}
    components = []  # (size, percolates)
    for start in zip(*np.nonzero(admissible)):
        if start in offset_of:
            continue
        offset_of[start] = (0, 0, 0)
        queue = collections.deque([start])
        size, wraps = 0, False
        while queue:
            point = queue.popleft()
            size += 1
            for axis in range(3):
                for step in (-1, 1):
                    near, offset = list(point), list(offset_of[point])
                    near[axis] += step
                    if not 0 <= near[axis] < dims[axis]:  # crossed a face
                        near[axis] %= dims[axis]
                        offset[axis] += step
                    near, offset = tuple(near), tuple(offset)
                    if not admissible[near]:
                        continue
                    if near not in offset_of:
                        offset_of[near] = offset
                        queue.append(near)
                    elif offset_of[near] != offset:
                        wraps = True
        components.append((size, wraps))
    if not components:
        return 0, 0, False
    if any(wraps for _, wraps in components):
        return (sum(size for size, wraps in components if wraps),
                len(components), True)
    return max(size for size, _ in components), len(components), False


@st.composite
def boolean_grids(draw):
    """Grids of 1-7 points per axis, all true, all false or random."""
    dims = tuple(draw(st.integers(1, 7)) for _ in range(3))
    fill = draw(st.sampled_from(["all", "none", "random"]))
    if fill != "random":
        return np.full(dims, fill == "all")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.random(dims) < draw(st.floats(0.1, 0.9))


def slab_shells(structure, reach):
    """Image shells that cover every image within `reach` of the cell."""
    widths = _perpendicular_widths(structure.lattice)
    return tuple(math.ceil(reach / w) + 1 for w in widths)


def lattice_from_parameters(a, b, c, alpha, beta, gamma):
    ca, cb, cg = (math.cos(math.radians(x)) for x in (alpha, beta, gamma))
    sg = math.sin(math.radians(gamma))
    cy = (ca - cb * cg) / sg
    cz2 = 1.0 - cb * cb - cy * cy
    if cz2 <= 0.05:
        return None  # angles that close no cell (or nearly flat ones)
    return np.array([[a, 0.0, 0.0], [b * cg, b * sg, 0.0],
                     [c * cb, c * cy, c * math.sqrt(cz2)]])


def skewed_cell(radius):
    """One atom in a cell whose second vector nearly equals twice the
    first, so the shift (-2, 1, 0) holds near images."""
    lattice = np.array([[4.0, 0.0, 0.0], [8.2, 1.8, 0.0], [0.0, 0.0, 4.0]])
    return PeriodicStructure(lattice=lattice,
                             sites=[("X", np.array([0.2, 0.3, 0.4]))],
                             radius_overrides={"X": radius})


@st.composite
def periodic_cells(draw, min_radius=0.3):
    """Orthogonal or oblique cells with 1-12 sites of assorted radii."""
    lengths = [draw(st.floats(4.0, 9.0)) for _ in range(3)]
    angles = [90.0] * 3
    if draw(st.booleans()):
        angles = [draw(st.floats(60.0, 120.0)) for _ in range(3)]
    lattice = lattice_from_parameters(*lengths, *angles)
    assume(lattice is not None)
    n_sites = draw(st.integers(1, 12))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    sites = [(f"E{i}", np.array([draw(unit) for _ in range(3)]))
             for i in range(n_sites)]
    radii = {f"E{i}": draw(st.floats(min_radius, 2.0))
             for i in range(n_sites)}
    return PeriodicStructure(lattice=lattice, sites=sites,
                             radius_overrides=radii)


# -- per-atom stamp oracle -------------------------------------------------------
#
# The clearance field as crysgram stamped it one atom at a time, with a
# 4-D einsum per atom; `_clearance_field` must match it to the bit.


def per_atom_clearance_field(structure, dims, radii, pad):
    field = np.full(dims, np.inf)
    n = np.asarray(dims)
    widths = _perpendicular_widths(structure.lattice)
    for (_, frac), radius in zip(structure.sites, radii):
        center = frac * n - 0.5  # in grid-index units
        half = (radius + pad) / widths * n
        axes = [np.arange(lo, hi + 1) for lo, hi in
                zip(np.ceil(center - half).astype(np.int64),
                    np.floor(center + half).astype(np.int64))]
        # Cartesian offset from the atom along each lattice row
        rows = [((idx + 0.5) / m - f)[:, None] * row for idx, m, f, row
                in zip(axes, dims, frac, structure.lattice)]
        wrapped = [idx % m for idx, m in zip(axes, dims)]
        step = max(1, (1 << 18) // max(1, len(axes[1]) * len(axes[2])))
        for start in range(0, len(axes[0]), step):
            delta = rows[0][start:start + step, None, None] \
                + rows[1][None, :, None] + rows[2][None, None, :]
            distance = np.sqrt(np.einsum("ijkl,ijkl->ijk", delta, delta))
            index = np.ix_(wrapped[0][start:start + step], *wrapped[1:])
            np.minimum.at(field, index, distance - radius)
    return field


def framework_sites(n_sites, seed):
    """C, H, O, N and Zn sites at random fractional places."""
    rng = np.random.default_rng(seed)
    elements = ["C", "H", "O", "N", "Zn"]
    return [(elements[i % 5], rng.random(3)) for i in range(n_sites)]


def framework_cell(n_sites, a, seed):
    """Cube of edge `a` with framework sites."""
    return PeriodicStructure(np.eye(3) * a, framework_sites(n_sites, seed))


def rotation(angles):
    """Product of rotations about the x, y and z axes."""
    (cx, cy, cz), (sx, sy, sz) = np.cos(angles), np.sin(angles)
    return (np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
            @ np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
            @ np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]]))


# lattices by the zero pattern of their entries
ZERO_PATTERNS = {
    "diagonal": np.diag([9.0, 10.5, 12.0]),
    "hexagonal": np.array([[10.0, 0.0, 0.0],
                           [-5.0, 5.0 * math.sqrt(3.0), 0.0],
                           [0.0, 0.0, 9.0]]),
    "lower triangular": np.array([[9.0, 0.0, 0.0], [2.5, 9.5, 0.0],
                                  [-1.5, 3.0, 10.0]]),
    "rotated cube": 10.0 * rotation(np.array([0.4, 0.7, 0.4])).T,
    "negative zeros": np.array([[9.0, -0.0, 0.0], [-0.0, 10.0, -0.0],
                                [2.0, -0.0, 11.0]]),
}


def assert_same_field(structure, rho, pad):
    dims = GridSpec(rho).dims(structure)
    # the raw radii: radius_of refuses the zero radius the cells may draw
    table = {**default_radius_table(), **structure.radius_overrides}
    radii = [table[e] for e, _ in structure.sites]
    field = _clearance_field(structure, dims, radii, pad)
    expected = per_atom_clearance_field(structure, dims, radii, pad)
    assert field.shape == expected.shape
    assert field.tobytes() == expected.tobytes()


def box_counts(structure, rho, pad):
    """(atoms, 3) grid points in each atom's stamp box per axis."""
    n = np.asarray(GridSpec(rho).dims(structure))
    widths = _perpendicular_widths(structure.lattice)
    counts = []
    for element, frac in structure.sites:
        center = frac * n - 0.5
        half = (structure.radius_of(element) + pad) / widths * n
        counts.append(np.floor(center + half) - np.ceil(center - half) + 1)
    return np.array(counts)


class TestClearanceFieldOracle:
    @seed(20261019)
    @settings(max_examples=80, deadline=None, database=None)
    @given(structure=periodic_cells(min_radius=0.0),
           pad=st.sampled_from([0.0, 1.2]), rho=st.floats(0.5, 3.0))
    def test_bitwise_equal_to_per_atom_stamp(self, structure, pad, rho):
        assert_same_field(structure, rho, pad)

    @pytest.mark.parametrize("pad", [0.0, 1.2])
    def test_framework_cell(self, pad):
        assert_same_field(framework_cell(60, 12.0, seed=31), 2.0, pad)

    @pytest.mark.parametrize("pad", [0.0, 1.2])
    def test_box_wraps_grid_more_than_once(self, pad):
        structure = skewed_cell(2.6)
        assert (box_counts(structure, 3.0, pad)
                > 2 * np.asarray(GridSpec(3.0).dims(structure))).any()
        assert_same_field(structure, 3.0, pad)

    @pytest.mark.parametrize("pad", [0.0, 1.2])
    @pytest.mark.parametrize("name", sorted(ZERO_PATTERNS))
    def test_lattice_zero_pattern(self, name, pad):
        # components skip the rows with a zero (or -0.0) entry in their
        # column; the rotated cube has none, so it sums every row
        lattice = ZERO_PATTERNS[name]
        assert (lattice == 0).any() == (name != "rotated cube")
        structure = PeriodicStructure(lattice,
                                      framework_sites(40, seed=len(name)))
        assert_same_field(structure, 2.0, pad)

    @seed(20261022)
    @settings(max_examples=60, deadline=None, database=None)
    @given(structure=periodic_cells())
    def test_slab_widths_equal_np_cross_formula(self, structure):
        # the boxes, and so the field, follow these widths to the bit
        for lattice in (structure.lattice, *ZERO_PATTERNS.values()):
            expected = []
            for i in range(3):
                normal = np.cross(*np.delete(lattice, i, axis=0))
                expected.append(abs(lattice[i] @ normal)
                                / np.linalg.norm(normal))
            assert (_perpendicular_widths(lattice).tobytes()
                    == np.array(expected).tobytes())

    def test_no_sites(self):
        empty = PeriodicStructure(lattice=np.eye(3) * 8.0, sites=[])
        field = _clearance_field(empty, (4, 5, 6), [], 1.2)
        assert field.shape == (4, 5, 6) and np.isposinf(field).all()
        assert_same_field(empty, 0.6, 1.2)

    def test_mixed_radius_cell_whose_chunks_split_a_box_shape(self):
        # atoms are stamped in box-shape order; here one shape's rows
        # hold more than a chunk's points, so a chunk ends inside it
        structure = framework_cell(400, 20.0, seed=41)
        points = collections.Counter()
        for k0, k1, k2 in box_counts(structure, 2.0, 1.2):
            points[k1, k2] += k0 * k1 * k2
        assert len(points) > 1 and max(points.values()) > _STAMP_POINTS
        assert_same_field(structure, 2.0, 1.2)

    @pytest.mark.parametrize("name", ["framework", "hexagonal"])
    def test_field_independent_of_site_order(self, name):
        lattice = {"framework": np.eye(3) * 14.0,
                   "hexagonal": ZERO_PATTERNS["hexagonal"]}[name]
        sites = framework_sites(150, seed=43)
        dims = GridSpec(3.0).dims(PeriodicStructure(lattice, sites))
        fields = set()
        for seed_ in range(4):
            order = np.random.default_rng(seed_).permutation(len(sites))
            shuffled = PeriodicStructure(lattice, [sites[i] for i in order])
            radii = [shuffled.radius_of(e) for e, _ in shuffled.sites]
            fields.add(_clearance_field(shuffled, dims, radii, 1.2).tobytes())
        assert len(fields) == 1

    def test_box_with_no_grid_point_along_an_axis(self):
        # a 0.01 A atom between grid points of a 2 A grid reaches none
        # along axis 0; the other atom's box is full
        structure = PeriodicStructure(
            lattice=np.eye(3) * 8.0,
            sites=[("X", np.array([0.3, 0.5, 0.55])),
                   ("Y", np.array([0.1, 0.2, 0.3]))],
            radius_overrides={"X": 0.01, "Y": 1.5})
        counts = box_counts(structure, 0.5, 0.0)
        assert counts[0, 0] == 0 and (counts[1] > 0).all()
        assert_same_field(structure, 0.5, 0.0)
        assert_same_field(structure, 0.5, 1.2)


def traced_peak(structure, rho, pad):
    """(tracemalloc peak of one `_clearance_field` call, field bytes)."""
    dims = GridSpec(rho).dims(structure)
    radii = [structure.radius_of(e) for e, _ in structure.sites]
    tracemalloc.start()
    try:
        field = _clearance_field(structure, dims, radii, pad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, field.nbytes


class TestClearanceFieldMemory:
    """A call holds the field plus a few arrays of one chunk of at most
    `_STAMP_POINTS` points, whatever the number of atoms or their reach."""

    CHUNK_BYTES = 8 * _STAMP_POINTS * 8  # eight float64 chunk arrays

    def test_many_atom_cell(self):
        peak, field_bytes = traced_peak(framework_cell(400, 20.0, seed=37),
                                        2.0, 1.2)
        assert peak - field_bytes < self.CHUNK_BYTES

    def test_one_atom_with_a_million_point_box(self):
        structure = single_sphere(a=12.0, radius=5.5)
        assert box_counts(structure, 10.0, 0.0).prod() >= 10 ** 6
        peak, field_bytes = traced_peak(structure, 10.0, 0.0)
        assert peak - field_bytes < self.CHUNK_BYTES


class TestVoidFraction:
    def test_empty_cell_is_100_percent(self):
        empty = PeriodicStructure(lattice=np.eye(3) * 8.0, sites=[])
        result = accessible_void_fraction(empty, GridSpec(3), **ZERO_PROBE)
        assert result.phi_void == 100.0
        assert result.n_unoccupied == result.n_total

    def test_single_sphere_analytic_oracle(self):
        # a=10, r=2: analytic 100 * (1 - 4pi/3 * 8 / 1000) = 96.649%
        result = accessible_void_fraction(single_sphere(), GridSpec(5),
                                          **ZERO_PROBE)
        analytic = 100.0 * (1.0 - sphere_volume_fraction(2.0, 10.0))
        assert result.grid_dims == (50, 50, 50)
        assert abs(result.phi_void - analytic) < 0.3

    def test_full_coverage_gives_zero(self):
        # radius beyond the cell body diagonal occupies everything
        result = accessible_void_fraction(single_sphere(a=4.0, radius=4.0),
                                          GridSpec(4), **ZERO_PROBE)
        assert result.phi_void == 0.0

    def test_exact_count_identity(self):
        result = accessible_void_fraction(single_sphere(), GridSpec(2),
                                          **ZERO_PROBE)
        assert result.phi_void == 100.0 * result.n_unoccupied / result.n_total

    def test_missing_radius_raises(self):
        s = PeriodicStructure(lattice=np.eye(3) * 5.0,
                              sites=[("Zz", np.zeros(3))])
        with pytest.raises(PorosityError, match="Zz"):
            accessible_void_fraction(s, GridSpec(2), **ZERO_PROBE)

    @pytest.mark.parametrize("radius", [-2.0, 0.0, math.nan, math.inf])
    def test_bad_radius_override_raises(self, radius):
        s = single_sphere(radius=radius)
        with pytest.raises(PorosityError, match=f"'X'.*{radius}"):
            accessible_void_fraction(s, GridSpec(2), **ZERO_PROBE)

    def test_bad_radius_table_entry_raises(self):
        s = PeriodicStructure(lattice=np.eye(3) * 6.0,
                              sites=[("C", np.array([0.5, 0.5, 0.5]))])
        with pytest.raises(PorosityError, match="'C'.*nan"):
            accessible_void_fraction(s, GridSpec(2),
                                     radius_table={"C": math.nan})

    def test_default_radius_table_is_a_copy(self):
        table = default_radius_table()
        carbon = table["C"]
        table["C"] = 9.0
        del table["H"]
        s = PeriodicStructure(lattice=np.eye(3) * 6.0,
                              sites=[("C", np.zeros(3)),
                                     ("H", np.full(3, 0.5))])
        assert s.radius_of("C") == carbon == default_radius_table()["C"]
        assert s.radius_of("H") == default_radius_table()["H"]

    def test_malformed_radius_file_names_file_and_line(self, tmp_path):
        path = tmp_path / "radii.txt"
        path.write_text("C 1.7\n\n# comment\nZn\t1.2 0.5\n")
        with pytest.raises(PorosityError, match=f"^{path}:4: "):
            load_radius_table(path)

    def test_radius_file_reads_tabs_spaces_and_comments(self, tmp_path):
        path = tmp_path / "radii.txt"
        path.write_text("# symbol radius\nC\t1.7\n\n  \nZn   1.25\n")
        assert load_radius_table(path) == {"C": 1.7, "Zn": 1.25}

    def test_default_radius_table_used(self):
        s = PeriodicStructure(lattice=np.eye(3) * 6.0,
                              sites=[("C", np.array([0.5, 0.5, 0.5]))])
        result = accessible_void_fraction(s, GridSpec(4), **ZERO_PROBE)
        analytic = 100.0 * (1.0 - sphere_volume_fraction(
            default_radius_table()["C"], 6.0))
        assert abs(result.phi_void - analytic) < 1.0


class TestAccessibleVoidFraction:
    def test_probe_zero_without_floodfill_equals_void(self):
        s = single_sphere()
        r = accessible_void_fraction(s, GridSpec(4), r_probe=0.0,
                                     flood_fill=False)
        assert r.phi_acc == r.phi_void

    def test_single_sphere_probe_oracle(self):
        # effective radius 3.2: analytic 86.274%, pore percolates
        r = accessible_void_fraction(single_sphere(), GridSpec(5), r_probe=1.2)
        analytic = 100.0 * (1.0 - sphere_volume_fraction(3.2, 10.0))
        assert abs(r.phi_acc - analytic) < 0.5

    def test_huge_probe_blocks_everything(self):
        r = accessible_void_fraction(single_sphere(a=6.0, radius=2.0),
                                     GridSpec(3), r_probe=10.0)
        assert r.phi_acc == 0.0
        assert r.phi_void > 0.0

    def test_negative_probe_rejected(self):
        with pytest.raises(PorosityError):
            accessible_void_fraction(single_sphere(), GridSpec(2),
                                     r_probe=-0.1)

    @pytest.mark.parametrize("r_probe", [math.nan, math.inf])
    def test_non_finite_probe_rejected(self, r_probe):
        with pytest.raises(PorosityError, match="probe radius"):
            accessible_void_fraction(single_sphere(), GridSpec(2),
                                     r_probe=r_probe)

    def test_box_beyond_the_integer_index_range_rejected(self):
        # finite, but the stamp box bounds would overflow int64 (a probe
        # radius cannot get there: it is stamped at most to the reach cap)
        huge = single_sphere()
        huge.radius_overrides["X"] = 1e300
        with pytest.raises(PorosityError, match="integer index range"):
            accessible_void_fraction(huge, GridSpec(2), **ZERO_PROBE)

    @staticmethod
    def carbon_cube():
        return PeriodicStructure(lattice=np.eye(3) * 10.0,
                                 sites=[("C", np.array([0.1, 0.2, 0.3]))])

    @pytest.mark.parametrize("r_probe", [1e13, 1e300])
    def test_probe_far_past_the_cell_admits_nothing(self, r_probe):
        # every point is within (|a| + |b| + |c|) / 2 = 15 A of an image
        # of the atom, so no probe of that radius or more fits anywhere
        r = accessible_void_fraction(self.carbon_cube(), GridSpec(2),
                                     r_probe=r_probe)
        assert (r.n_total, r.n_unoccupied, r.n_accessible) == (8000, 7840, 0)
        assert (r.n_components, r.percolates) == (0, False)

    @pytest.mark.parametrize("r_probe", [16.0, 20.0])
    def test_probe_past_the_reach_cap_keeps_its_counts(self, r_probe):
        # the counts a stamp at the full probe radius gives, as with no cap
        r = accessible_void_fraction(self.carbon_cube(), GridSpec(2),
                                     r_probe=r_probe)
        assert (r.n_unoccupied, r.n_accessible) == (7840, 0)

    @pytest.mark.parametrize("rho", [1e6, 1e300, 1e308])
    def test_grid_past_the_index_range_rejected(self, rho):
        with pytest.raises(PorosityError, match=r"grid of \S+ x \S+ x \S+ "
                                                "points does not fit"):
            GridSpec(rho).dims(self.carbon_cube())

    def test_grid_past_the_point_budget_rejected(self):
        # a 1 x 1 x n grid at 1 point/A: dims only, nothing allocated
        def line(n):
            return PeriodicStructure(lattice=np.diag([1.0, 1.0, n]),
                                     sites=[("C", np.zeros(3))])

        assert GridSpec(1.0).dims(line(MAX_GRID_POINTS)) == (
            1, 1, MAX_GRID_POINTS)
        with pytest.raises(PorosityError,
                           match=f"at most {MAX_GRID_POINTS}$"):
            GridSpec(1.0).dims(line(MAX_GRID_POINTS + 1))

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_grid_density_rejected(self, rho):
        with pytest.raises(PorosityError, match="grid density"):
            GridSpec(rho)

    def test_enclosed_pocket_is_excluded(self):
        # the cage's central pocket is admissible but sealed, so flood
        # fill drops it while raw admissibility keeps it
        cage = sealed_cage()
        sealed = accessible_void_fraction(cage, GridSpec(3), r_probe=1.2)
        raw = accessible_void_fraction(cage, GridSpec(3), r_probe=1.2,
                                       flood_fill=False)
        assert sealed.phi_acc < raw.phi_acc
        assert sealed.phi_acc < sealed.phi_void
        # the pocket itself is non-empty: center is 4.0 A from the cage,
        # beyond the 3.2 A clearance
        assert raw.n_accessible > sealed.n_accessible

    def test_flood_fill_facts_on_sealed_pocket(self):
        cage = sealed_cage()
        grid = GridSpec(3)
        sealed = accessible_void_fraction(cage, grid, r_probe=1.2)
        raw = accessible_void_fraction(cage, grid, r_probe=1.2,
                                       flood_fill=False)
        # the outer void wraps the cell; the pocket is a second component
        assert sealed.percolates is True
        assert sealed.n_components > 1
        # exactly the admissible points inside the cage are dropped
        _, admissible, _ = brute_force(cage, grid, 1.2)
        dims = grid.dims(cage)
        axes = [(np.arange(n) + 0.5) / n for n in dims]
        points = np.stack(np.meshgrid(*axes, indexing="ij"),
                          axis=-1).reshape(-1, 3) @ cage.lattice
        in_pocket = np.abs(points - CAGE_CENTER).max(axis=1) \
            < CAGE_HALF_WIDTH
        n_pocket = int((admissible.ravel() & in_pocket).sum())
        assert n_pocket > 0
        assert sealed.n_accessible == raw.n_accessible - n_pocket
        payload = sealed.to_dict()
        assert payload["n_components"] == sealed.n_components
        assert payload["percolates"] is True
        # without flood fill no component facts exist
        assert raw.n_components is None and raw.percolates is None

    def test_fully_blocked_cell_has_no_components(self):
        s = single_sphere(a=6.0, radius=2.0)
        r = accessible_void_fraction(s, GridSpec(3), r_probe=10.0)
        assert (r.n_accessible, r.n_components, r.percolates) == (0, 0, False)

    def test_acc_bounded_by_void_on_random_structures(self):
        rng = np.random.default_rng(17)
        elements = list(default_radius_table())[:30]
        for _ in range(50):
            a = rng.uniform(5.0, 8.0)
            n_sites = rng.integers(1, 6)
            sites = [(elements[rng.integers(len(elements))], rng.random(3))
                     for _ in range(n_sites)]
            s = PeriodicStructure(lattice=np.eye(3) * a, sites=sites)
            r = accessible_void_fraction(s, GridSpec(3), r_probe=1.2)
            assert r.phi_acc <= r.phi_void


class TestFloodFillOracle:
    @seed(20261020)
    @settings(max_examples=300, deadline=None, database=None)
    @given(grid=boolean_grids())
    def test_equal_to_breadth_first_search(self, grid):
        assert _accessible_count(grid, grid.shape) == bfs_flood_fill(grid)

    def test_seeded_grids_near_the_percolation_threshold(self):
        # labels joined across several faces, where a wrong displacement
        # sign in the union-find shows
        rng = np.random.default_rng(20261021)
        for _ in range(400):
            dims = tuple(int(n) for n in rng.integers(1, 8, size=3))
            grid = rng.random(dims) < rng.uniform(0.2, 0.7)
            assert _accessible_count(grid, dims) == bfs_flood_fill(grid)

    @pytest.mark.parametrize("dims", [(1, 1, 1), (1, 2, 7), (2, 2, 2),
                                      (7, 1, 3)])
    def test_full_and_empty_grids(self, dims):
        full = np.ones(dims, dtype=bool)
        assert _accessible_count(full, dims) == (int(full.size), 1, True)
        assert bfs_flood_fill(full) == (int(full.size), 1, True)
        empty = ~full
        assert _accessible_count(empty, dims) == (0, 0, False)
        assert bfs_flood_fill(empty) == (0, 0, False)

    def test_sealed_pocket(self):
        # a 5^3 grid whose central point is cut off by a blocked shell:
        # two components, the outer one percolates, the pocket does not
        grid = np.ones((5, 5, 5), dtype=bool)
        grid[1:4, 1:4, 1:4] = False
        grid[2, 2, 2] = True
        assert _accessible_count(grid, grid.shape) == (98, 2, True)
        assert bfs_flood_fill(grid) == (98, 2, True)


class TestAgainstBruteForce:
    @seed(20261018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(structure=periodic_cells(), r_probe=st.floats(0.0, 1.2),
           rho=st.floats(1.5, 3.0))
    def test_counts_equal_27_cell_search(self, structure, r_probe, rho):
        reach = max(structure.radius_of(e) for e, _ in structure.sites) \
            + r_probe
        assume(reach < 0.5 * structure.min_cell_width())
        grid = GridSpec(rho)
        n_unoccupied, admissible, ties = brute_force(structure, grid,
                                                     r_probe)
        # Examples with a grid point within 1e-9 A of a sphere surface
        # are excluded: there the two distance computations may round to
        # opposite sides. No other example is skipped.
        note(f"boundary ties: {ties}")
        assume(not ties)
        result = accessible_void_fraction(structure, grid, r_probe=r_probe)
        expected = bfs_flood_fill(admissible)
        assert result.n_unoccupied == n_unoccupied
        assert result.n_accessible == expected[0]
        assert (result.n_components, result.percolates) == expected[1:]

    @pytest.mark.parametrize("radius,r_probe", [
        (1.2, 0.3),  # the 27-cell search misses images here
        (2.6, 0.4),  # sphere wider than the cell: stamps wrap twice
    ])
    def test_reach_beyond_half_width_counts_every_image(self, radius,
                                                        r_probe):
        structure = skewed_cell(radius)
        assert radius + r_probe > 0.5 * structure.min_cell_width()
        grid = GridSpec(3.0)
        shells = slab_shells(structure, radius + r_probe)
        n_unoccupied, admissible, ties = brute_force(structure, grid,
                                                     r_probe, shells)
        assert not ties
        result = accessible_void_fraction(structure, grid, r_probe=r_probe,
                                          flood_fill=False)
        assert result.n_unoccupied == n_unoccupied
        assert result.n_accessible == int(admissible.sum())

    @pytest.mark.parametrize("structure, rho", [
        (PeriodicStructure(lattice=np.eye(3) * 8.0, sites=[]), 3),
        (single_sphere(), 2),
        (single_sphere(), 5),
        (single_sphere(radius=1.0), 4),
        (single_sphere(radius=3.0), 4),
        (single_sphere(a=4.0, radius=4.0), 4),
        (single_sphere(center=(0.1, 0.7, 0.35)), 5),
        (PeriodicStructure(lattice=np.eye(3) * 6.0,
                           sites=[("C", np.array([0.5, 0.5, 0.5]))]), 4),
    ], ids=["empty", "sphere-2", "sphere-5", "r1", "r3", "full",
            "off-centre", "default-carbon"])
    def test_zero_probe_counts_equal_image_search(self, structure, rho):
        # the plain void fraction on the cells its own tests use
        grid = GridSpec(rho)
        reach = max((structure.radius_of(e) for e, _ in structure.sites),
                    default=0.0)
        n_unoccupied, admissible, ties = brute_force(
            structure, grid, 0.0, slab_shells(structure, reach))
        assert not ties
        result = accessible_void_fraction(structure, grid, **ZERO_PROBE)
        assert result.grid_dims == admissible.shape
        assert result.n_total == admissible.size
        assert result.n_unoccupied == n_unoccupied == int(admissible.sum())
        assert result.phi_void == 100.0 * n_unoccupied / admissible.size

    def test_skewed_cell_defeats_27_cell_search(self):
        # the fixture above is a real undercount case for the old search
        structure = skewed_cell(1.2)
        grid = GridSpec(3.0)
        wide = brute_force(structure, grid, 0.3, slab_shells(structure, 1.5))
        old = brute_force(structure, grid, 0.3)
        assert old[0] > wide[0]
        assert old[1].sum() > wide[1].sum()


class TestProperties:
    def test_void_monotone_in_radius(self):
        values = [accessible_void_fraction(single_sphere(radius=r),
                                           GridSpec(4), **ZERO_PROBE).phi_void
                  for r in (1.0, 1.5, 2.0, 2.5, 3.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_acc_monotone_in_probe(self):
        s = single_sphere()
        values = [accessible_void_fraction(s, GridSpec(4), r_probe=rp).phi_acc
                  for rp in (0.0, 0.6, 1.2, 1.8)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_translation_invariance_within_grid_tolerance(self):
        rng = np.random.default_rng(23)
        base = accessible_void_fraction(single_sphere(), GridSpec(5),
                                        **ZERO_PROBE).phi_void
        for _ in range(5):
            shift = rng.random(3)
            moved = single_sphere(center=tuple((0.5 + shift) % 1.0))
            phi = accessible_void_fraction(moved, GridSpec(5),
                                           **ZERO_PROBE).phi_void
            assert abs(phi - base) <= 1.0

    def test_convergence_with_grid_density(self):
        rng = np.random.default_rng(29)
        analytic = 100.0 * (1.0 - sphere_volume_fraction(2.0, 10.0))
        errors = {2: [], 5: [], 10: []}
        for _ in range(3):
            center = tuple(rng.random(3))
            for rho in errors:
                phi = accessible_void_fraction(single_sphere(center=center),
                                               GridSpec(rho),
                                               **ZERO_PROBE).phi_void
                errors[rho].append(abs(phi - analytic))
        means = [np.mean(errors[rho]) for rho in (2, 5, 10)]
        assert means[0] > means[1] > means[2]


class TestStructureIO:
    def test_roundtrip(self, tmp_path):
        s = PeriodicStructure(
            lattice=[[10, 0, 0], [0, 12, 0], [0, 0, 9]],
            sites=[("C", np.array([0.1, 0.2, 0.3])),
                   ("O", np.array([0.7, 0.8, 0.9]))],
            radius_overrides={"C": 1.9})
        path = tmp_path / "structure.json"
        save_structure(s, path)
        again = load_structure(path)
        np.testing.assert_array_equal(again.lattice, s.lattice)
        assert [e for e, _ in again.sites] == ["C", "O"]
        assert again.radius_overrides == {"C": 1.9}

    def test_invalid_lattice_rejected(self):
        with pytest.raises(PorosityError):
            PeriodicStructure(lattice=np.zeros((3, 3)), sites=[])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (2, 0)])
    def test_non_finite_lattice_entry_rejected(self, value, entry):
        lattice = np.eye(3) * 10.0
        lattice[entry] = value
        with pytest.raises(PorosityError, match="lattice entries"):
            PeriodicStructure(lattice=lattice,
                              sites=[("C", np.array([0.5, 0.5, 0.5]))])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_site_coordinate_rejected(self, value):
        sites = [("C", np.array([0.5, 0.5, 0.5])),
                 ("O", np.array([0.25, value, 0.5]))]
        with pytest.raises(PorosityError, match="site 1 \\(O\\)"):
            PeriodicStructure(lattice=np.eye(3) * 10.0, sites=sites)

    def test_coordinates_wrapped(self):
        s = PeriodicStructure(lattice=np.eye(3) * 5,
                              sites=[("C", np.array([1.25, -0.25, 2.0]))])
        element, frac = s.sites[0]
        np.testing.assert_allclose(frac, [0.25, 0.75, 0.0])


class TestPorosityTokens:
    BINNING = InformaticsBinning.from_observations([100.0, 10000.0])

    def test_token_pair(self):
        result = accessible_void_fraction(single_sphere(), GridSpec(3),
                                          r_probe=1.2)
        info = structure_informatics(single_sphere(), result)
        por, acc = (quantize_informatics(getattr(info, name), name,
                                         self.BINNING)
                    for name in ("porosity_fraction",
                                 "accessible_void_fraction"))
        assert por.startswith("por_b") and acc.startswith("acc_b")
        # mid-range values land in the analytically predicted bins
        assert por == f"por_b{int(result.phi_void // 5):02d}"
        assert acc == f"acc_b{int(result.phi_acc // 5):02d}"

    def test_structure_informatics(self):
        s = single_sphere()
        result = accessible_void_fraction(s, GridSpec(3), r_probe=1.2)
        info = structure_informatics(s, result)
        assert info.unit_cell_volume == pytest.approx(1000.0)
        assert info.atom_count == 1
        assert info.porosity_fraction == pytest.approx(result.phi_void)
