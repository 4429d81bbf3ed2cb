"""Finite-dimensional Hopf *-algebras, the 3-tensors mult and comult kept as
their nonzeros: (keys, values), the keys the indices (i, j, k) raveled base d,
sorted and unique. The constructors and product_algebra emit them directly;
HopfData.from_dense keeps those of the dense arrays an instance file gives.

Only this module reads mult, comult and star: other modules go through
HopfData.product, coproduct and star_vec, which take stacks of coefficient
vectors. Each identity of verify_axioms but one compares two joins of the
nonzeros of two tensors (_join); _residual evaluates both sides on one split
of the leading output indices into windows of at most JOIN_TERMS term pairs
(_windows) and reduces each window by itself, so a check holds one window of
each side at a time at every d. The exception is coassociativity where comult
is a table (_dual_table), f_a f_b one f_k or 0 in the dual algebra A^. The
middle nucleus {y : (x y) z = x (y z) for all x, z} of an algebra is a unital
subalgebra, so the associator vanishes on A^ once it does for y in a
generating set (Light's test): _table_associator takes y in
HopfData.generators() only.
An action of a finite group Lambda is one array: action_from_group_hom returns
the read-only (|Lambda|, d, d) stack of the matrices of alpha*_r, indexed by
Lambda's elements, and every layer indexes it. automorphism_residuals checks
all of them in one such pass, the stack carrying the leading letter r. The
identities with a unit, counit or Haar vector and HopfData.gram contract one
3-tensor with one vector (_contract_vec). So no d^3 tensor is densified and
no d^4 array built. HopfData.generators picks the dual basis elements that
generate the dual algebra, whose slices are all that module-hom systems need:
on a table by an exact closure of indices (_table_generators), otherwise all
of them.

Conventions for a HopfData of dimension d with basis e_0..e_{d-1}:
  - mult[i, j, k]:    e_i e_j = sum_k mult[i, j, k] e_k
  - unit[i]:          1 = sum_i unit[i] e_i
  - comult[i, j, k]:  Delta(e_i) = sum_{j,k} comult[i, j, k] e_j (x) e_k
  - counit[i]:        eps(e_i)
  - antipode[j, i]:   S(e_i) = sum_j antipode[j, i] e_j (acts on coefficient
                      vectors by matrix multiplication)
  - star[j, i]:       coeffs(a^*) = star @ conj(coeffs(a))
  - haar[i]:          h(e_i)
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from ._linalg import (TOL_BUILD, TOL_DEGENERATE, TOL_VERIFY, int_array, max_abs,
                      max_abs_each, nan_as_inf, nullspace)
from .errors import (NoUniqueHaar, NotAntihomomorphism, NotAutomorphism,
                     ParseError, ValidationError)
from .groups import FiniteGroup


# The rank of each tensor of a HopfData, in the order it takes them.
RANKS = {"mult": 3, "unit": 1, "comult": 3, "counit": 1, "antipode": 2, "star": 2,
         "haar": 1}


class HopfData:
    """A finite-dimensional Hopf *-algebra with an invariant state; mult and
    comult are sparse operands (sorted unique raveled keys, values)."""

    def __init__(self, mult, unit, comult, counit, antipode, star, haar):
        self.mult, self.comult = mult, comult
        self.unit, self.counit, self.antipode, self.star, self.haar = (
            np.asarray(t, dtype=complex) for t in (unit, counit, antipode, star, haar))
        self.dim = len(self.unit)
        self._cache: dict = {}

    @classmethod
    def from_dense(cls, mult, unit, comult, counit, antipode, star, haar) -> HopfData:
        """A HopfData from dense tensors, each shape-checked; of mult and
        comult, (d, d, d) arrays, only the nonzeros are kept."""
        tensors = dict(zip(RANKS, (np.asarray(t, dtype=complex) for t in
                                   (mult, unit, comult, counit, antipode, star, haar))))
        d = tensors["mult"].shape[0]
        for name, rank in RANKS.items():
            if tensors[name].shape != (d,) * rank:
                raise ValidationError(f"{name} has shape {tensors[name].shape}, "
                                      f"expected {(d,) * rank}")
        for name in ("mult", "comult"):
            tensors[name] = _nonzeros(tensors[name])
        return cls(**tensors)

    def generators(self) -> np.ndarray:
        """Indices a, increasing and read-only, whose dual basis elements f_a
        generate the dual algebra A^ as a unital algebra: where comult is a
        table (_dual_table), _table_generators' exact closure, greedy by
        index; otherwise every index, since the whole dual basis spans A^.

        A linear map commutes with the image of A^ exactly when it commutes
        with the images of these f_a, so module homs need only their slices.
        """
        if "generators" not in self._cache:
            table = _dual_table(self)
            gens = np.arange(self.dim) if table is None else _table_generators(self, table)
            gens.flags.writeable = False
            self._cache["generators"] = gens
        return self._cache["generators"]

    # -- element-level helpers (coefficient vectors and stacks of them) --------

    def product(self, x, y):
        """Coefficients of x y for coefficient vectors, or stacks of them that
        broadcast (last axis the basis), summed over the nonzero rows of mult."""
        if "mult_rows" not in self._cache:
            keys, vals = self.mult
            nonzero, row = np.unique(keys // self.dim, return_inverse=True)
            rows = np.zeros((len(nonzero), self.dim), dtype=complex)
            rows[row, keys % self.dim] = vals
            self._cache["mult_rows"] = (*np.divmod(nonzero, self.dim), rows)
        i, j, rows = self._cache["mult_rows"]
        return (x[..., i] * y[..., j]) @ rows

    def coproduct(self, x):
        """Coefficients of Delta(x) on e_j (x) e_k, shape (..., d, d): the
        terms x[..., i] comult[i, j, k], gathered by column (j, k) and summed."""
        d = self.dim
        if "comult_cols" not in self._cache:
            i, col = np.divmod(self.comult[0], d * d)
            order = np.argsort(col, kind="stable")
            starts = np.flatnonzero(np.diff(col[order], prepend=-1))
            self._cache["comult_cols"] = (i[order], self.comult[1][order], starts,
                                          col[order][starts])
        i, vals, starts, cols = self._cache["comult_cols"]
        out = np.zeros((*x.shape[:-1], d * d), dtype=complex)
        out[..., cols] = np.add.reduceat(x[..., i] * vals, starts, axis=-1)
        return out.reshape(*x.shape[:-1], d, d)

    def star_vec(self, x):
        return np.conj(x) @ self.star.T

    def haar_vec(self, x) -> complex:
        return complex(self.haar @ x)

    def pair(self, x, y) -> complex:
        """The Haar pairing h(x^* y), through the cached Gram matrix."""
        return complex(self.pair_forms(x) @ y)

    def pair_forms(self, x):
        """The linear forms y -> h(x^* y) of a coefficient vector, or of each
        row of a stack, in one Gram product: pair(x, y) = pair_forms(x) @ y."""
        return np.conj(x) @ self.gram()

    # -- derived structure -----------------------------------------------------

    def gram(self) -> np.ndarray:
        """Gram matrix G[i, j] = h(e_i^* e_j) of the Haar inner product."""
        if "gram" not in self._cache:
            # column i of star = coeffs of e_i^*; h(e_l e_j) = sum_k mult[l, j, k] haar[k]
            self._cache["gram"] = self.star.T @ _contract_vec(self.mult, self.haar, 2,
                                                              self.dim)
        return self._cache["gram"]


def _nonzeros(arr) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero entries of an array as a sparse operand: (raveled indices, values)."""
    flat = arr.reshape(-1)
    idx = np.flatnonzero(flat)
    return idx, flat[idx]


# Term pairs in one window of leading output indices (or one leading index, if
# it has more); a window's temporaries take about 100 bytes a pair.
JOIN_TERMS = 1 << 14


def _operand_keys(keys, letters: str, kept, shared, size, place):
    """Per entry of an operand raveled over `letters`: its partial output key,
    the `kept` letters at their output place values, and its key over the
    `shared` letters."""
    digits = dict(zip(letters, np.unravel_index(keys, [size[c] for c in letters])))
    part = np.zeros(len(keys), dtype=np.int64)
    for c in kept:
        part += digits[c] * place[c]
    if not shared:
        return part, np.zeros(len(keys), dtype=np.int64)
    return part, np.ravel_multi_index([digits[c] for c in shared], [size[c] for c in shared])


def _sum_duplicates(keys, vals):
    """Sorted unique keys with the values of equal keys summed."""
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.add.reduceat(vals, starts)


def _join(subscripts: str, a, b, size):
    """Two-operand einsum of sparse operands (raveled keys, values), evaluated
    a window of leading output indices at a time.

    Letters range over size[letter]. The operands are matched on every letter
    they share, and a shared letter the output lacks is summed. The operand
    holding the output's first letter drives: its entries are ordered by their
    output letters, and each meets exactly its run of entries of the other
    operand, sorted by shared key; each product keeps the subscripts' operand
    order. Returns (pairs, block): pairs[x] is the number of term pairs of
    leading output index x, and block(lo, hi) the sorted unique output keys
    raveled over size with leading index in [lo, hi), with their summed values.
    """
    ins, out = subscripts.split("->")
    sa, sb = ins.split(",")
    flip = out[0] not in sa
    if flip:
        sa, sb, a, b = sb, sa, b, a
    shared = [c for c in sa if c in sb]
    place, span = {}, 1
    for c in reversed(out):
        place[c], span = span, span * size[c]
    pa, ska = _operand_keys(a[0], sa, [c for c in sa if c in out], shared, size, place)
    pb, skb = _operand_keys(b[0], sb, [c for c in sb if c in out and c not in sa], shared,
                            size, place)
    order = np.argsort(skb, kind="stable")
    skb, pb, vb = skb[order], pb[order], b[1][order]
    rank = np.argsort(pa, kind="stable")
    pa, ska, va = pa[rank], ska[rank], a[1][rank]
    meet = np.searchsorted(skb, ska, "left")
    counts = np.searchsorted(skb, ska, "right") - meet
    done = np.concatenate([[0], np.cumsum(counts)])  # pairs formed before each entry
    shift = meet - done[:-1]  # pair p of entry e meets entry p + shift[e] of b
    first = np.searchsorted(pa // place[out[0]], np.arange(size[out[0]] + 1))

    def block(lo: int, hi: int):
        start, stop = first[lo], first[hi]
        runs = counts[start:stop]
        pos = np.arange(done[start], done[stop]) + np.repeat(shift[start:stop], runs)
        x, y = np.repeat(va[start:stop], runs), vb[pos]
        return _sum_duplicates(np.repeat(pa[start:stop], runs) + pb[pos],
                               y * x if flip else x * y)

    return np.diff(done[first]), block


def _windows(pairs):
    """Consecutive windows [lo, hi) covering the leading indices of pairs, each
    as long as it can be with at most JOIN_TERMS term pairs, or one index."""
    ends = np.cumsum(pairs)
    lo = 0
    while lo < len(pairs):
        before = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, before + JOIN_TERMS, "right")), lo + 1)
        yield lo, hi
        lo = hi


def _contract(subscripts: str, a, b, size):
    """_join's blocks over its windows as one sparse operand (sorted unique keys)."""
    pairs, block = _join(subscripts, a, b, size)
    keys, vals = zip(*(block(lo, hi) for lo, hi in _windows(pairs)))
    return np.concatenate(keys), np.concatenate(vals)


def _contract_vec(t, vec, axis: int, d: int) -> np.ndarray:
    """The (d, d) matrix of a sparse 3-tensor t contracted with the vector vec
    on one axis, the two other axes kept in their order."""
    keys, vals = t
    idx = np.unravel_index(keys, (d, d, d))
    out = np.zeros((d, d), dtype=complex)
    np.add.at(out, tuple(idx[a] for a in range(3) if a != axis), vals * vec[idx[axis]])
    return out


def _residual(lhs, rhs, shape) -> np.ndarray:
    """max |lhs - rhs| per leading index, over the union of the supports of
    two _join results (pairs, block) whose output has the given shape.

    Both sides are evaluated on the windows of their summed pairs, and each
    window is reduced by itself. A key on one side counts with its full
    value; a key on both sums -lhs + rhs, which is rhs - lhs exactly, as in
    the dense difference.
    """
    (pl, left), (pr, right) = lhs, rhs
    lead = math.prod(shape[1:])
    worst = np.zeros(shape[0])
    for lo, hi in _windows(pl + pr):
        (kl, vl), (kr, vr) = left(lo, hi), right(lo, hi)
        keys, diff = _sum_duplicates(np.concatenate([kl, kr]), np.concatenate([-vl, vr]))
        keys //= lead
        at = np.flatnonzero(np.diff(keys, prepend=-1))
        worst[keys[at]] = np.maximum.reduceat(np.abs(diff), at)
    return nan_as_inf(worst)


def verify_axioms(h: HopfData) -> dict:
    """Residual per Hopf *-algebra axiom; passes iff all below TOL_VERIFY."""
    d = h.dim
    res: dict[str, float] = {}
    eye = np.eye(d)
    m, c, s = h.mult, h.comult, _nonzeros(h.star)
    size = defaultdict(lambda: d)

    def worst(lhs, rhs, shape) -> float:
        return float(_residual(lhs, rhs, shape).max())

    res["associativity"] = worst(_join("ijm,mkl->ijkl", m, m, size),
                                 _join("jkm,iml->ijkl", m, m, size), (d,) * 4)
    res["unit"] = max(max_abs(_contract_vec(m, h.unit, 0, d) - eye),
                      max_abs(_contract_vec(m, h.unit, 1, d) - eye))

    table = _dual_table(h)
    if table is None:
        res["coassociativity"] = worst(_join("iml,mjk->ijkl", c, c, size),
                                       _join("ijm,mkl->ijkl", c, c, size), (d,) * 4)
    else:
        res["coassociativity"] = _table_associator(table, h.generators())
    res["counit"] = _counit_residual(h)

    # Delta is a unital algebra morphism: Delta(e_i e_j) = Delta(e_i) Delta(e_j),
    # the right side as sum_{b,c} [sum_a D(i,a,b) m(a,c,p)] [sum_d D(j,c,d) m(b,d,q)]
    rhs = _join("ibcp,jcbq->ijpq", _contract("iab,acp->ibcp", c, m, size),
                _contract("jcd,bdq->jcbq", c, m, size), size)
    res["comult_multiplicative"] = worst(_join("ijk,kpq->ijpq", m, c, size), rhs, (d,) * 4)
    res["comult_unital"] = max_abs(_contract_vec(c, h.unit, 0, d)
                                   - np.outer(h.unit, h.unit))
    res["counit_multiplicative"] = max_abs(_contract_vec(m, h.counit, 2, d)
                                           - np.outer(h.counit, h.counit))

    # star: antilinear involutive antiautomorphism, Delta a *-morphism
    res["star_involutive"] = max_abs(h.star @ np.conj(h.star) - eye)
    conj_m, conj_c = (m[0], np.conj(m[1])), (c[0], np.conj(c[1]))
    res["star_antimultiplicative"] = worst(
        _join("ijk,pk->ijp", conj_m, s, size),  # coeffs of (e_i e_j)^*
        _join("jap,ai->ijp", _contract("bj,bap->jap", s, m, size), s, size),  # e_j^* e_i^*
        (d,) * 3)
    res["comult_star"] = worst(
        _join("ki,kpq->ipq", s, c, size),  # Delta(e_i^*)
        _join("ikp,qk->ipq", _contract("ijk,pj->ikp", conj_c, s, size), s, size), (d,) * 3)

    # antipode axiom m(S (x) id)Delta = unit . counit = m(id (x) S)Delta
    a, target = _nonzeros(h.antipode), _join("i,p->ip", _nonzeros(h.counit),
                                             _nonzeros(h.unit), size)
    res["antipode"] = max(
        worst(_join("ikl,lkp->ip", _contract("ijk,lj->ikl", c, a, size), m, size), target,
              (d, d)),
        worst(_join("ijl,jlp->ip", _contract("ijk,lk->ijl", c, a, size), m, size), target,
              (d, d)))

    # Haar state: normalized, invariant, positive
    res["haar_unital"] = max_abs(h.haar @ h.unit - 1.0)
    res["haar_invariance"] = max(
        max_abs(_contract_vec(c, h.haar, 1, d) - np.outer(h.haar, h.unit)),
        max_abs(_contract_vec(c, h.haar, 2, d) - np.outer(h.haar, h.unit)))
    gram = h.gram()
    res["haar_hermitian"] = max_abs(gram - gram.conj().T)
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    res["haar_positivity"] = max_abs(np.minimum(eigs.min(), 0.0))

    res["max"] = max_abs(list(res.values()))
    res["pass"] = res["max"] < TOL_VERIFY
    return res


def _counit_residual(h: HopfData) -> float:
    """max |(eps (x) id) Delta - id| and |(id (x) eps) Delta - id|."""
    d, eye = h.dim, np.eye(h.dim)
    return max(max_abs(_contract_vec(h.comult, h.counit, 1, d) - eye),
               max_abs(_contract_vec(h.comult, h.counit, 2, d) - eye))


def _dual_table(h: HopfData):
    """The product of the dual algebra A^ as an int (d + 1, d + 1) table,
    f_a f_b = f_T[a, b], the index d standing for 0 (so T[d, :] = T[:, d] = d);
    or None unless comult is such a table: every nonzero exactly 1, no two
    sharing (a, b), and the counit identity exact, so that the counit is the
    unit of A^. Cached on h.
    """
    if "dual_table" not in h._cache:
        d = h.dim
        k, ab = np.divmod(h.comult[0], d * d)
        table = np.full((d + 1) * (d + 1), d)
        # a repeated (a, b) is written twice, and leaves fewer than len(ab) set
        table[ab + ab // d] = k
        exact = (bool(np.all(h.comult[1] == 1))
                 and np.count_nonzero(table != d) == len(ab)
                 and _counit_residual(h) == 0.0)
        h._cache["dual_table"] = table.reshape(d + 1, d + 1) if exact else None
    return h._cache["dual_table"]


def _table_generators(h: HopfData, table: np.ndarray) -> np.ndarray:
    """The indices a, increasing, of a greedy pass over the dual basis on a
    _dual_table: f_a joins unless it lies in the subalgebra of A^ that the
    kept ones generate. Exact: every step is on integer indices.

    The kept f_a's words of length >= 1 are basis elements f_s, their
    indices S closed semi-naively under T[g, s] for kept g; the subalgebra
    they generate is span(eps, f_S), eps the counit. A further f_a lies in
    it iff a is in S or a is the only index outside S where eps is nonzero;
    the first index that does not joins. The set is certified, with no rank
    cutoff, when no index is left: |S| = d, or |S| = d - 1 and eps is
    nonzero on the missing index.
    """
    d = h.dim
    reached = np.zeros(d + 1, dtype=bool)
    reached[d] = True  # T's 0
    on_counit = np.append(h.counit != 0, False)
    gens: list[int] = []
    while True:
        outside = ~reached
        if np.count_nonzero(outside & on_counit) == 1:
            outside &= ~on_counit
        a = int(outside.argmax())
        if not outside[a]:
            return np.array(gens, dtype=int)
        gens.append(a)
        fresh = np.append(table[a, reached], a)
        while len(fresh):
            mark = np.zeros(d + 1, dtype=bool)
            mark[fresh] = True
            mark &= ~reached
            reached |= mark
            fresh = table[np.array(gens)[:, None], np.flatnonzero(mark)].reshape(-1)


def _table_associator(table: np.ndarray, gens) -> float:
    """Coassociativity's residual on a _dual_table, y over the generators
    gens of A^: 1.0 if (f_x f_y) f_z != f_x (f_y f_z) for some x, y, z, else
    0.0. Each side is one f_k or 0, so this is the dense residual."""
    d = len(table) - 1
    every = np.arange(d)
    left = table[table[:d, gens][:, :, None], every]
    right = table[every[:, None, None], table[gens, :d]]
    return float(not np.array_equal(left, right))


# haar_solve assembles the 2 d invariance rows of this many indices i at a time.
HAAR_BLOCK = 8


def haar_solve(h: HopfData) -> np.ndarray:
    """Solve for the invariant state directly; cross-checks the stored haar.

    The invariance system has 2 d^2 rows; they are assembled in blocks of
    HAAR_BLOCK indices, and each block is folded into the triangular factor
    R of a running QR, which has the system's singular values and right
    singular vectors in O(d^2) memory.
    """
    d = h.dim
    # (eta (x) id) Delta(e_i) = eta(e_i) 1 and the (id (x) eta) mirror: row
    # (i, k) of the first system is comult[i, :, k] - unit[k] e_i, row (i, j)
    # of the second comult[i, j, :] - unit[j] e_i.
    r = np.zeros((0, d), dtype=complex)
    for lo in range(0, d, HAAR_BLOCK):
        part = np.arange(lo, min(lo + HAAR_BLOCK, d))
        at = slice(*np.searchsorted(h.comult[0], [lo * d * d, (part[-1] + 1) * d * d]))
        i, j, k = np.unravel_index(h.comult[0][at] - lo * d * d, (len(part), d, d))
        rows = np.zeros((2, len(part), d, d), dtype=complex)
        rows[0, i, k, j] = rows[1, i, j, k] = h.comult[1][at]
        rows[:, np.arange(len(part)), :, part] -= h.unit
        r = np.linalg.qr(np.vstack([r, rows.reshape(-1, d)]), mode="r")
    ns = nullspace(r, rtol=TOL_DEGENERATE)
    if ns.shape[0] != 1:
        raise NoUniqueHaar(f"invariant-functional space has dimension {ns.shape[0]}")
    eta = ns[0]
    scale = complex(eta @ h.unit)
    if abs(scale) < TOL_BUILD:
        raise NoUniqueHaar("invariant functional vanishes on the unit")
    return eta / scale


def is_kac(h: HopfData) -> bool:
    """Kac type iff the antipode is involutive."""
    return max_abs(h.antipode @ h.antipode - np.eye(h.dim)) < TOL_VERIFY


def function_algebra(g: FiniteGroup) -> HopfData:
    """C(G): pointwise functions on a finite group, basis of delta functions."""
    n = g.order
    a, eye = np.arange(n), np.eye(n)
    mult = (a * (n * n + n + 1), np.ones(n, dtype=complex))
    # Delta(delta_i) = sum over ab = i of delta_a (x) delta_b
    comult = (np.sort((g.mult * n * n + a[:, None] * n + a).reshape(-1)),
              np.ones(n * n, dtype=complex))
    # S(delta_i) = delta_{i^{-1}}
    return HopfData(mult, np.ones(n), comult, eye[g.identity], eye[:, g.inv], eye,
                    np.full(n, 1.0 / n))


def group_algebra(g: FiniteGroup) -> HopfData:
    """C[G]: the group algebra, cocommutative dual model."""
    n = g.order
    a, eye = np.arange(n), np.eye(n)
    mult = (((a[:, None] * n + a) * n + g.mult).reshape(-1), np.ones(n * n, dtype=complex))
    comult = (a * (n * n + n + 1), np.ones(n, dtype=complex))
    # S(lambda_g) = lambda_g^* = lambda_{g^{-1}}; the Haar state is the unit's coefficient
    return HopfData(mult, eye[g.identity], comult, np.ones(n), eye[:, g.inv],
                    eye[:, g.inv], eye[g.identity])


def product_algebra(base: HopfData, lam: FiniteGroup, alpha_mats: np.ndarray) -> HopfData:
    """The Hopf algebra of G x| Lambda0 on the basis e_i (x) delta_r, indexed
    r * d + i, from the base and the matrices alpha_mats[r] of alpha*_r:
    mult, unit, star and haar / |Lambda0| are the base's in every block r,
    S(e_i (x) delta_r) = alpha*_r(S e_i) (x) delta_{r^{-1}} and
    Delta(e_i (x) delta_r) = sum_s [(id (x) alpha*_s) Delta(e_i)]_{13}
                                   (delta_s (x) delta_{s^{-1} r})_{24}."""
    d, n = base.dim, lam.order
    dd = d * n
    r = np.arange(n)
    off = r[:, None] * d
    full = (dd, dd, dd)
    i, j, k = np.unravel_index(base.mult[0], (d, d, d))
    mult = (np.ravel_multi_index((off + i, off + j, off + k), full).reshape(-1),
            np.tile(base.mult[1], n))
    # twisted[i, j, s d + l] = sum_k comult[i, j, k] alpha_mats[s, l, k], every
    # s at once, as one sparse contraction with keys raveled base dd
    i, j, k = np.unravel_index(base.comult[0], (d, d, d))
    alpha = alpha_mats.reshape(dd, d)
    sl, col = np.nonzero(alpha)
    keys, vals = _contract("ijk,lk->ijl",
                           (np.ravel_multi_index((i, j, k), full), base.comult[1]),
                           (sl * dd + col, alpha[sl, col]), defaultdict(lambda: dd))
    keys, vals = keys[vals != 0], vals[vals != 0]
    i, j, sl = np.unravel_index(keys, full)
    s, l = np.divmod(sl, d)
    t = lam.mult[lam.inv[s]]  # t[:, r] = s^{-1} r
    keys = np.ravel_multi_index(((off + i).T, (s * d + j)[:, None], t * d + l[:, None]),
                                full).reshape(-1)
    order = np.argsort(keys)
    comult = (keys[order], np.repeat(vals, n)[order])

    star = np.zeros((n, d, n, d), dtype=complex)
    star[r, :, r] = base.star
    antipode = np.zeros((n, d, n, d), dtype=complex)
    antipode[lam.inv, :, r] = alpha_mats @ base.antipode
    counit = np.zeros((n, d), dtype=complex)
    counit[lam.identity] = base.counit
    return HopfData(mult, np.tile(base.unit, n), comult, counit.reshape(-1),
                    antipode.reshape(dd, dd), star.reshape(dd, dd),
                    np.tile(base.haar / n, n))


def automorphism_residuals(h: HopfData, mats: np.ndarray) -> np.ndarray:
    """For each matrix mats[r] of a stack, its residual as a unital
    *-algebra automorphism of h intertwining the comultiplication.

    The identities of every r are joined together: the stacked nonzeros
    carry the letter r, ranging over len(mats), which leads each output.
    """
    d, n = h.dim, len(mats)
    size, shape = defaultdict(lambda: d, r=n), (n, d, d, d)
    a, mult, comult = _nonzeros(mats), h.mult, h.comult
    worst = np.maximum(max_abs_each(mats @ h.unit - h.unit),
                       max_abs_each(h.counit @ mats - h.counit))
    # multiplicativity: alpha(e_i e_j) = alpha(e_i) alpha(e_j)
    worst = np.maximum(worst, _residual(
        _join("ijk,rpk->rijp", mult, a, size),
        _join("ribp,rbj->rijp", _contract("rai,abp->ribp", a, mult, size), a, size), shape))
    # star compatibility: M @ star = star @ conj(M)
    worst = np.maximum(worst, max_abs_each(mats @ h.star - h.star @ np.conj(mats)))
    # comultiplication: (M (x) M) Delta = Delta M
    return np.maximum(worst, _residual(
        _join("rikp,rqk->ripq", _contract("ijk,rpj->rikp", comult, a, size), a, size),
        _join("rki,kpq->ripq", a, comult, size), shape))


def action_from_group_hom(h: HopfData, lam: FiniteGroup, hom, kind: str) -> np.ndarray:
    """The antihomomorphism r -> alpha*_r as one read-only (|Lambda|, d, d)
    array, slice r the matrix of alpha*_r, built from per-element maps.

    kind 'permutation': hom[r] permutes the basis of C(G) or C[Gamma] as
    alpha_r permutes G or Gamma, r -> alpha_r a homomorphism into the group's
    automorphisms; alpha*_r is the pullback, moving basis vector g to
    hom[r^{-1}](g).
    kind 'matrix': hom[r] is the matrix of alpha*_r itself.
    Each alpha*_r must be a Hopf *-automorphism fixing the Haar state, and
    alpha*_(rs) = alpha*_s alpha*_r; the first r, or (r, s) in row-major
    order, that fails raises.
    """
    d = h.dim
    if kind == "permutation":
        # hom[r^{-1}] = (hom[r])^{-1} when hom is a homomorphism, which the
        # antihomomorphism check below enforces
        try:
            perms = [int_array(p) for p in hom]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"action must list integer permutations: {exc}") from exc
        if len(perms) != lam.order:
            raise NotAutomorphism("need one permutation per acting group element")
        for r, p in enumerate(perms):
            if p.shape != (d,) or not np.array_equal(np.sort(p), np.arange(d)):
                raise NotAutomorphism(f"action entry {r} does not permute 0..{d - 1}")
        mats = np.stack([np.eye(d, dtype=complex)[:, perms[r]] for r in lam.inv])
    elif kind == "matrix":
        mats = [np.asarray(m, dtype=complex) for m in hom]
        if len(mats) != lam.order:
            raise NotAutomorphism("need one matrix per acting group element")
        if any(m.shape != (d, d) for m in mats):
            raise NotAutomorphism(f"action matrices must be {d} x {d}")
        mats = np.stack(mats)
    else:
        raise ValidationError(f"unknown action kind {kind!r}")

    # each check's first failure, if any, is where argmax finds its first True
    res = automorphism_residuals(h, mats)
    r = np.argmax(res > TOL_VERIFY)
    if res[r] > TOL_VERIFY:
        raise NotAutomorphism(f"alpha*_{r} fails the automorphism check ({res[r]:.2e})")
    # res[r, s] = |alpha*_(rs) - alpha*_s alpha*_r|
    res = np.abs(mats[lam.mult] - mats[None] @ mats[:, None]).max(axis=(2, 3))
    r, s = np.unravel_index(np.argmax(res > TOL_VERIFY), res.shape)
    if res[r, s] > TOL_VERIFY:
        raise NotAntihomomorphism(
            f"alpha*_(rs) != alpha*_s alpha*_r at ({r}, {s}) ({res[r, s]:.2e})")
    # Haar invariance under every alpha*_r (uniqueness of the Haar state)
    res = max_abs_each(h.haar @ mats - h.haar)
    r = np.argmax(res > TOL_VERIFY)
    if res[r] > TOL_VERIFY:
        raise NotAutomorphism(f"haar not invariant under alpha*_{r} ({res[r]:.2e})")
    mats.flags.writeable = False
    return mats
