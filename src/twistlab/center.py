"""Center structure of a twisted group ring at one level.

The words acting trivially on the level field form a full-rank integer
sublattice (the kernel lattice); its index is p^k and the ring's center is
spanned over GF(q) by exactly those words.  The whole ring is then a free
module over its center of rank p^(2k), with basis {theta^i * g_j} for the
power basis of the level field and coset representatives g_j of the kernel
lattice taken from the fundamental box of its Hermite normal form.  The
lattice is fixed by the action and the level, so kernel_lattice builds it
once per (action, level), and every context of that pair shares it.

Hermite normal form convention: rows, upper triangular, positive pivots,
entries above a pivot reduced into the centered range (-d/2, d/2].
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod
from typing import NamedTuple, Optional

from .action import EXPONENT_HORIZON, ActionConfig, action_exponent
from .errors import IndependenceError, InternalFaultError
from .ring import RingContext, RingElement, _check_ints, _from_codes, _straight_line


def _centered(x: int, d: int) -> int:
    r = x % d
    if 2 * r > d:
        r -= d
    return r


def hnf(rows) -> list:
    """Row-style Hermite normal form of the lattice generated by the rows.

    Returns only the nonzero rows (one per pivot column), upper triangular
    with positive pivots and centered off-diagonal entries.
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    done = 0
    for col in range(ncols):
        # gcd-combine every row with a nonzero entry in this column
        while True:
            live = [i for i in range(done, len(mat)) if mat[i][col]]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(mat[i][col]))
            i0 = live[0]
            for i in live[1:]:
                q = mat[i][col] // mat[i0][col]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[i0])]
        live = [i for i in range(done, len(mat)) if mat[i][col]]
        if not live:
            continue
        i0 = live[0]
        mat[done], mat[i0] = mat[i0], mat[done]
        if mat[done][col] < 0:
            mat[done] = [-a for a in mat[done]]
        done += 1
    mat = mat[:done]
    # centered reduction of entries above each pivot
    pivots = [next(i for i, v in enumerate(row) if v) for row in mat]
    for j in range(1, len(mat)):
        pc, d = pivots[j], mat[j][pivots[j]]
        for i in range(j):
            target = _centered(mat[i][pc], d)
            q = (mat[i][pc] - target) // d
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[j])]
    return mat


class KernelLattice:
    """Integer basis (HNF rows) of the words acting trivially at level k;
    reduce and from_lattice_coordinates are compiled (lattice_maps) and the
    box representatives listed when it is built, once per (action, level)."""

    __slots__ = ("k", "basis", "index", "reduce", "from_lattice_coordinates",
                 "_reps")

    def __init__(self, k: int, basis: tuple, index: int):
        self.k, self.basis, self.index = k, basis, index
        self.reduce, self.from_lattice_coordinates = lattice_maps(basis)
        self._reps = tuple(product(*(range(row[i]) for i, row in enumerate(basis))))

    def contains(self, word) -> bool:
        return not any(self.reduce(word)[0])

    def lattice_coordinates(self, word) -> tuple:
        """Coordinates of a lattice member in the HNF basis."""
        r, coords = self.reduce(word)
        if any(r):
            raise ValueError(f"{word} is not in the kernel lattice")
        return coords

    def box_representatives(self) -> tuple:
        """All coset representatives, in lexicographic order."""
        return self._reps

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "basis": [list(r) for r in self.basis],
            "index": self.index,
        }


def lattice_maps(basis: tuple):
    """(reduce, from_lattice_coordinates) of an HNF basis, compiled
    straight-line from its ints alone.  reduce(w) returns (r, the coordinates
    of w - r), r in the fundamental box: row by row, q_i = v_i // b_ii by
    floor division, so negative words reduce too, v_j -= q_i b_ij to the
    right, and r_i = v_i % b_ii."""
    _check_ints(*(a for row in basis for a in row))
    n = len(basis)
    steps = ["".join(f"v{i}, " for i in range(n)) + "= w"]
    for i, row in enumerate(basis):
        steps.append(f"q{i} = v{i} // {row[i]}")
        steps += [f"v{j} -= q{i} * {row[j]}" for j in range(i + 1, n) if row[j]]
    box = "".join(f"v{i} % {row[i]}, " for i, row in enumerate(basis))
    coords = "".join(f"q{i}, " for i in range(n))
    words = "".join(" + ".join(f"c[{i}] * {basis[i][j]}" for i in range(j + 1)
                               if basis[i][j]) + ", " for j in range(n))
    return (_straight_line("reduce", "w", f"({box}), ({coords})", steps),
            _straight_line("from_lattice_coordinates", "c", f"({words})"))


def kernel_lattice(ctx: RingContext) -> KernelLattice:
    """Kernel of the level-k action as an HNF integer lattice of index p^k.

    Refuses to run when the context skipped independence certification.
    """
    if ctx.cert_level is None:
        raise IndependenceError("kernel lattice requires an independence-certified context")
    return _kernel_lattice(ctx.action, ctx.k)


@lru_cache(maxsize=None)
def _kernel_lattice(action: ActionConfig, k: int) -> KernelLattice:
    n, mod = action.n, action.p**k
    ts = action.truncations(k)
    # The rows (t_i | e_i) and (mod | 0) generate {(sum(g_i t_i) + y*mod, g)};
    # its HNF rows below the first have a zero first entry, so with that
    # entry dropped they are the (unique) HNF of the kernel.
    rows = [[t] + [1 if j == i else 0 for j in range(n)] for i, t in enumerate(ts)]
    rows.append([mod] + [0] * n)
    basis = [r[1:] for r in hnf(rows)[1:]]
    if len(basis) != n:
        raise InternalFaultError("kernel lattice does not have full rank")
    index = prod(row[i] for i, row in enumerate(basis))
    if index != mod:
        raise InternalFaultError(f"kernel lattice index {index} != p^k = {mod}")
    for row_ in basis:
        if action_exponent(action, row_, k) != 0:
            raise InternalFaultError("kernel basis row acts nontrivially")
    return KernelLattice(k=k, basis=tuple(tuple(r) for r in basis), index=index)


def is_central(r: RingElement) -> bool:
    """Commutator test against the group generators and the field generator."""
    ctx = r.ctx
    theta = ctx.scalar(ctx.theta())
    return r * theta == theta * r and all(r * x == x * r for x in ctx.gens())


def is_central_structural(r: RingElement, lattice: KernelLattice) -> bool:
    """Structural test: support inside the kernel lattice, coefficients in GF(q)."""
    q = r.ctx.level.base.q
    return all(c < q and lattice.contains(w) for w, c in r.codes.items())


def exit_level(z: RingElement) -> Optional[int]:
    """Least level where the central element z stops being central: 1 + the
    least v_p(sum w_i a_i) over its words w, each sum taken at the horizon
    (truncations never carry).  None when every sum vanishes at the horizon,
    GF(q) scalars included: undecided, never reported as central."""
    p, ts = z.ctx.tower.p, z.ctx.action.truncations(EXPONENT_HORIZON)
    exits = [next((v for v in range(1, EXPONENT_HORIZON + 1) if s % p**v), None)
             for s in (sum(g * t for g, t in zip(w, ts)) for w in z.codes)]
    return min((e for e in exits if e is not None), default=None)


class FreeBasis(NamedTuple):
    """Module basis {theta^i * g_j} of the ring over its center."""

    field_basis: tuple  # power basis of the level field over GF(q)
    coset_reps: tuple  # fundamental-box representatives, lex order
    elements: tuple  # the products, index j * deg + i

    def size(self) -> int:
        return len(self.elements)

    def index_of(self, i: int, j: int) -> int:
        return j * len(self.field_basis) + i


def free_basis(ctx: RingContext, lattice: KernelLattice = None) -> FreeBasis:
    if lattice is None:
        lattice = kernel_lattice(ctx)
    theta = ctx.theta()
    field_basis = [theta**i for i in range(ctx.level.degree)]
    reps = lattice.box_representatives()
    elements = tuple(ctx.monomial(c, g) for g in reps for c in field_basis)
    return FreeBasis(
        field_basis=tuple(field_basis), coset_reps=reps, elements=elements
    )


def decompose_over_center(r: RingElement, basis: FreeBasis,
                          lattice: KernelLattice) -> list:
    """Write r as sum z_ij * (theta^i g_j) with central coordinates z_ij.

    Returns the flat list of central ring elements in basis order; the
    decomposition is exact and unique.
    """
    coords = [dict() for _ in range(basis.size())]
    rep_index = {g: j for j, g in enumerate(basis.coset_reps)}
    for w, c in r.codes.items():
        rep = lattice.reduce(w)[0]
        h = tuple(a - b for a, b in zip(w, rep))  # each slot gets h once
        j = rep_index[rep]
        for i, a in enumerate(r.ctx.level._digits(c)):
            coords[basis.index_of(i, j)][h] = a
    return [_from_codes(r.ctx, codes) for codes in coords]


def recompose(zs, basis: FreeBasis) -> RingElement:
    if len(zs) != basis.size():
        raise ValueError(f"expected {basis.size()} coordinates, got {len(zs)}")
    out = None
    for z, b in zip(zs, basis.elements):
        term = z * b
        out = term if out is None else out + term
    return out
