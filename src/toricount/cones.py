"""Exact rational cone and polytope geometry.

Dual cones by incremental double description, exact LP membership, placing
triangulations, the measure nu on simplicial cones, the effective-cone
constant alpha, the hyperbola-method polytope with its top face, and the
section-limit constant c_P.  All arithmetic over Fraction; cones carry
primitive integer generators for reproducible output.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import linalg
from .errors import DegenerateInputError

MAX_AMBIENT_DIM = 8


def _check_dim(k):
    if k > MAX_AMBIENT_DIM:
        raise DegenerateInputError(
            f"ambient dimension {k} exceeds the supported bound {MAX_AMBIENT_DIM}"
        )


def _norm_gens(gens):
    """Primitive integer scalings, deduplicated, lexicographically sorted."""
    seen = set()
    out = []
    for g in gens:
        if all(x == 0 for x in g):
            continue
        p = tuple(linalg.primitive_vector(list(g)))
        if p not in seen:
            seen.add(p)
            out.append(p)
    out.sort()
    return out


def nonneg_combination(gens, x):
    """Exact LP feasibility: lambda >= 0 with sum lambda_j gens[j] = x.

    Returns the coefficient list or None.  Phase-1 simplex with Bland's rule
    over Fraction entries; sizes here are tiny.
    """
    k = len(x)
    nv = len(gens)
    if nv == 0:
        return [] if all(v == 0 for v in x) else None
    tab = []
    for i in range(k):
        row = [Fraction(g[i]) for g in gens]
        rhs = Fraction(x[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [Fraction(1 if j == i else 0) for j in range(k)]
        tab.append(row + art + [rhs])
    basis = [nv + i for i in range(k)]
    total = nv + k
    while True:
        art_rows = [i for i in range(k) if basis[i] >= nv]
        obj_val = sum(tab[i][total] for i in art_rows)
        if obj_val == 0:
            break
        enter = None
        for j in range(nv):  # Bland: smallest improving non-artificial column
            if j in basis:
                continue
            if sum(tab[i][j] for i in art_rows) > 0:
                enter = j
                break
        if enter is None:
            return None
        leave = None
        best = None
        for i in range(k):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return None  # unbounded cannot happen in phase 1; defensive
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(k):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        basis[leave] = enter
    lam = [Fraction(0)] * nv
    for i in range(k):
        if basis[i] < nv:
            lam[basis[i]] = tab[i][total]
    return lam


def cone_contains(gens, x):
    return nonneg_combination(gens, list(x)) is not None


def extremal_rays(gens):
    """Minimal generating set of cone(gens): drop rays inside the rest."""
    rays = _norm_gens(gens)
    out = list(rays)
    i = 0
    while i < len(out):
        others = out[:i] + out[i + 1:]
        if others and cone_contains(others, out[i]):
            out.pop(i)
        else:
            i += 1
    return out


def dual_cone(gens, ambient_dim):
    """Generators of {phi : <phi, g> >= 0 for all g}.

    Incremental double description keeping a (lines, rays) pair; lineality
    directions are returned as +/- generator pairs.  Output rays are
    primitive, minimal, lex sorted.
    """
    _check_dim(ambient_dim)
    lines = [[1 if i == j else 0 for j in range(ambient_dim)] for i in range(ambient_dim)]
    rays = []
    for g in _norm_gens(gens):
        vals_l = [linalg.vec_dot(l, g) for l in lines]
        pivot = next((i for i, v in enumerate(vals_l) if v != 0), None)
        if pivot is not None:
            l0 = lines[pivot]
            v0 = vals_l[pivot]
            if v0 < 0:
                l0 = [-x for x in l0]
                v0 = -v0
            new_lines = []
            for i, l in enumerate(lines):
                if i == pivot:
                    continue
                v = vals_l[i]
                new_lines.append([v0 * a - v * b for a, b in zip(l, l0)])
            new_rays = []
            for r in rays:
                v = linalg.vec_dot(r, g)
                new_rays.append([v0 * a - v * b for a, b in zip(r, l0)])
            new_rays.append(l0)
            lines = [linalg.primitive_vector(l) for l in new_lines]
            rays = _norm_gens(new_rays)
        else:
            vals = [linalg.vec_dot(r, g) for r in rays]
            pos = [r for r, v in zip(rays, vals) if v > 0]
            zero = [r for r, v in zip(rays, vals) if v == 0]
            neg = [(r, v) for r, v in zip(rays, vals) if v < 0]
            if not neg:
                continue
            combos = []
            for p, vp in [(r, v) for r, v in zip(rays, vals) if v > 0]:
                for n, vn in neg:
                    combos.append([vp * a - vn * b for a, b in zip(n, p)])
            rays = _norm_gens(pos + zero + combos)
            # prune to extremal rays modulo the current lineality
            aug = [list(l) for l in lines] + [[-x for x in l] for l in lines]
            out = list(rays)
            i = 0
            while i < len(out):
                others = out[:i] + out[i + 1:] + aug
                if others and cone_contains(others, out[i]):
                    out.pop(i)
                else:
                    i += 1
            rays = out
    result = [list(r) for r in rays]
    for l in lines:
        result.append(list(l))
        result.append([-x for x in l])
    return _norm_gens(result)


def nu_simplicial(gens, omega):
    """nu(-Lambda) for the simplicial cone Lambda spanned by gens.

    Equals |det(gens)| / prod <omega, g>; requires every pairing positive
    (omega interior to the dual), else the defining integral diverges.
    """
    k = len(gens)
    if k == 0 or any(len(g) != k for g in gens):
        raise DegenerateInputError("simplicial cone needs exactly dim generators")
    d = abs(linalg.det([list(g) for g in gens]))
    if d == 0:
        raise DegenerateInputError("generators are linearly dependent")
    prod = Fraction(1)
    for g in gens:
        pairing = Fraction(linalg.vec_dot(list(omega), list(g)))
        if pairing <= 0:
            raise DegenerateInputError(
                f"nonpositive pairing <omega, {tuple(g)}> = {pairing}"
            )
        prod *= pairing
    return Fraction(d) / prod


def cross_section_polytope(dual_gens, omega):
    """Vertices r/<omega,r> of the slice of cone(dual_gens) at <omega,.> = 1."""
    verts = []
    for r in extremal_rays(dual_gens):
        pairing = linalg.vec_dot(list(omega), list(r))
        if pairing <= 0:
            raise DegenerateInputError(
                f"omega is not interior to the dual effective cone: <omega,{tuple(r)}> <= 0"
            )
        verts.append(tuple(Fraction(x, pairing) for x in r))
    return verts


def _affine_basis(vertices):
    """Indices of vertices whose edge vectors from vertices[0] span the hull."""
    base = vertices[0]
    idx = [0]
    vecs = []
    for i in range(1, len(vertices)):
        cand = vecs + [[a - b for a, b in zip(vertices[i], base)]]
        if linalg.rank(cand) == len(cand):
            vecs = cand
            idx.append(i)
    return idx, vecs


def triangulate_polytope(vertices, order="lex"):
    """Placing triangulation of conv(vertices); returns tuples of vertex indices.

    Deterministic: vertices are processed in exact lexicographic order
    ("lex"), reversed ("revlex"), or as given ("given").  Each output simplex
    has dim+1 vertices where dim is the affine dimension of the hull.
    """
    pts = [tuple(Fraction(x) for x in v) for v in vertices]
    n = len(pts)
    if n == 0:
        raise DegenerateInputError("no vertices")
    orderidx = list(range(n))
    if order == "lex":
        orderidx.sort(key=lambda i: pts[i])
    elif order == "revlex":
        orderidx.sort(key=lambda i: pts[i], reverse=True)
    elif order != "given":
        raise ValueError(f"unknown order {order!r}")
    seq = [pts[i] for i in orderidx]

    basis_pos, basis_vecs = _affine_basis(seq)
    m = len(basis_vecs)  # affine dimension
    if m == 0:
        if len({tuple(p) for p in pts}) > 1:
            raise DegenerateInputError("duplicate-only vertex set")
        return [(orderidx[0],)]

    # coordinates in the affine hull: solve basis_vecs^T c = p - p0
    bt = linalg.transpose(basis_vecs)

    def coords(p):
        rhs = [a - b for a, b in zip(p, seq[0])]
        sol = linalg.solve_exact(bt, rhs)
        if sol is None:
            raise DegenerateInputError("vertex outside the affine hull")
        return sol

    cpts = [coords(p) for p in seq]

    def orient(simplex_idx, probe_idx):
        # sign of det[p_1 - p_0, ..., p_m - p_0] with probe replacing the slot
        q0 = cpts[simplex_idx[0]]
        mat = [linalg.vec_sub(cpts[i], q0) for i in simplex_idx[1:]]
        mat.append(linalg.vec_sub(cpts[probe_idx], q0))
        d = linalg.det(mat)
        return (d > 0) - (d < 0)

    seed = basis_pos[: m + 1]
    simplices = [tuple(seed)]
    processed = set(seed)
    for j in range(n):
        if j in processed:
            continue
        processed.add(j)
        # boundary facets of the current complex: (m-1)-faces in one simplex
        count = {}
        owner = {}
        for s in simplices:
            for drop in range(m + 1):
                f = tuple(sorted(s[:drop] + s[drop + 1:]))
                count[f] = count.get(f, 0) + 1
                owner[f] = s[drop]
        added = False
        for f, c in count.items():
            if c != 1:
                continue
            apex = owner[f]
            sf = orient(list(f), j)
            sa = orient(list(f), apex)
            if sf != 0 and sa != 0 and sf != sa:
                simplices.append(tuple(sorted(f + (j,))))
                added = True
        if not added:
            # interior or duplicate point; valid triangulation without it
            continue
    return [tuple(sorted(orderidx[i] for i in s)) for s in simplices]


@dataclass
class Decomposition:
    """Simplicial cones Lambda_j covering the dual effective cone."""

    ambient_dim: int
    cones: list            # each: list of primitive integer generator tuples
    simplices: list        # cross-section simplices, tuples of Fraction vertices
    nus: list              # nu(-Lambda_j), exact Fractions
    alpha: Fraction


def effective_decomposition(classes, omega, order="lex"):
    """Triangulate C_eff(X)^dual into simplicial cones and compute alpha.

    classes: the generators of the effective cone in Pic coordinates; omega:
    the anticanonical class.  alpha = sum_j nu(-Lambda_j) / (rho-1)!.
    """
    rho = len(omega)
    _check_dim(rho)
    dual = dual_cone(classes, rho)
    rays = extremal_rays(dual)
    if len(rays) < rho or linalg.rank([list(r) for r in rays]) < rho:
        raise DegenerateInputError("dual effective cone is not full dimensional")
    verts = cross_section_polytope(rays, omega)
    if rho == 1:
        cones = [[rays[0]]]
        simplices = [(verts[0],)]
    else:
        tri = triangulate_polytope(verts, order=order)
        cones = []
        simplices = []
        for s in tri:
            cones.append([tuple(linalg.primitive_vector(list(verts[i]))) for i in s])
            simplices.append(tuple(verts[i] for i in s))
    nus = [nu_simplicial(c, omega) for c in cones]
    fact = 1
    for i in range(1, rho):
        fact *= i
    alpha = sum(nus, Fraction(0)) / fact
    return Decomposition(ambient_dim=rho, cones=cones, simplices=simplices,
                         nus=nus, alpha=alpha)


def alpha_constant(classes, omega, order="lex"):
    return effective_decomposition(classes, omega, order=order).alpha


@dataclass
class HyperbolaPolytope:
    """P = {t >= 0 : sum_i alpha[k][i] t_i / omega_i <= 1 for all k}."""

    alphas: list           # rows alpha[k], nonnegative Fractions
    weights: list          # omega_i > 0
    vertices: list         # all vertices, tuples of Fractions
    a: Fraction            # max of sum t_i over P
    face_vertices: list    # vertices attaining the max
    face_dim: int

    @property
    def nvars(self):
        return len(self.weights)


def hyperbola_polytope(alphas, weights):
    """Build the polytope, locate the top face of sum t_i, check hypotheses."""
    s = len(weights)
    _check_dim(s)
    weights = [Fraction(w) for w in weights]
    if any(w <= 0 for w in weights):
        raise DegenerateInputError("weights must be positive")
    rows = [[Fraction(a) for a in row] for row in alphas]
    for row in rows:
        if len(row) != s:
            raise DegenerateInputError("constraint row length mismatch")
        if any(a < 0 for a in row):
            raise DegenerateInputError("alpha values must be nonnegative")
    for i in range(s):
        if not any(row[i] > 0 for row in rows):
            raise DegenerateInputError(
                f"polytope unbounded: variable t_{i} appears in no constraint"
            )

    # inequality system: -t_i <= 0 and sum_i (alpha[k][i]/omega_i) t_i <= 1
    ineqs = []
    for i in range(s):
        row = [Fraction(0)] * s
        row[i] = Fraction(-1)
        ineqs.append((row, Fraction(0)))
    for row in rows:
        ineqs.append(([a / w for a, w in zip(row, weights)], Fraction(1)))

    verts = set()
    for subset in combinations(range(len(ineqs)), s):
        mat = [ineqs[i][0] for i in subset]
        rhs = [ineqs[i][1] for i in subset]
        if linalg.rank(mat) < s:
            continue
        sol = linalg.solve_exact(mat, rhs)
        if sol is None:
            continue
        if all(linalg.vec_dot(r, sol) <= b for r, b in ineqs):
            verts.add(tuple(sol))
    verts = sorted(verts)
    if not verts:
        raise DegenerateInputError("empty polytope")

    # hypothesis: P is not contained in a hyperplane (full dimensional)
    base = verts[0]
    edge = [[a - b for a, b in zip(v, base)] for v in verts[1:]]
    if linalg.rank(edge) < s:
        raise DegenerateInputError("polytope is contained in a hyperplane")

    a_val = max(sum(v) for v in verts)
    face = [v for v in verts if sum(v) == a_val]
    fb = face[0]
    fedge = [[x - y for x, y in zip(v, fb)] for v in face[1:]]
    fdim = linalg.rank(fedge) if fedge else 0
    for i in range(s):
        if all(v[i] == 0 for v in face):
            raise DegenerateInputError(
                f"top face lies in the coordinate hyperplane t_{i} = 0"
            )
    return HyperbolaPolytope(alphas=rows, weights=weights, vertices=verts,
                             a=a_val, face_vertices=face, face_dim=fdim)


def section_measure(simplex, u):
    """Quotient (dim-1)-measure of a simplex inside {<u,t> = const}.

    det of edge vectors stacked with u, over (dim-1)! * <u,u>; this is the
    Lebesgue quotient by the value of <u,.>, the normalization under which
    the standard simplex face has measure 1/(dim-1)!.
    """
    k = len(u)
    base = simplex[0]
    mat = [[a - b for a, b in zip(v, base)] for v in simplex[1:]]
    mat.append(list(u))
    fact = 1
    for i in range(1, k):
        fact *= i
    return abs(linalg.det(mat)) / (fact * Fraction(linalg.vec_dot(u, u)))


def _face_volume(face_vertices, s):
    """Exact quotient volume of a (s-1)-face inside {sum t = const}."""
    u = [1] * s
    if s == 1:
        return Fraction(1)
    tri = triangulate_polytope(face_vertices, order="lex")
    total = Fraction(0)
    for t in tri:
        if len(t) == s:
            total += section_measure([face_vertices[i] for i in t], u)
    return total


def c_p_constant(poly):
    """The section-limit constant of the top face: the quotient
    (s-1)-volume of the face where sum t_i is maximal, exact.  Only defined
    when the face has full dimension s-1.  Returns {"exact": volume}.
    """
    s = poly.nvars
    if poly.face_dim != s - 1:
        raise DegenerateInputError(
            f"top face has dimension {poly.face_dim}, need {s - 1}: "
            "the section-limit constant is only defined for a facet-dimensional face"
        )
    return {"exact": _face_volume(poly.face_vertices, s)}


def format_fraction(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def constants_block(decomp, cp=None):
    """JSON-ready fragment: alpha, per-cone nu, and the exact c_P."""
    block = {
        "alpha": format_fraction(decomp.alpha),
        "nu_per_cone": [format_fraction(v) for v in decomp.nus],
    }
    if cp is not None:
        block["c_P_exact"] = format_fraction(cp["exact"])
    return block
