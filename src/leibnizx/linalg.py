"""Exact rational linear algebra: sparse vectors, the one pivot reducer,
echelon forms, canonical subspaces and linear maps.

Every verification in the library bottoms out here, so everything is exact
(no floats anywhere) and canonical: two subspaces are equal iff their
reduced-echelon bases are identical.

Vectors are sparse ``dict[coord, scalar]`` with no zero entries stored.  The
coordinate type is anything hashable; an elimination order is supplied as a
key function (natural order for plain integer coordinates).  Every stored
matrix-like object uses the same format: a :class:`LinearMap` is a tuple of
sparse columns, a structure-constant cell ``t[i][j]`` (``leibniz``,
``assoc``) is a sparse vector, and :meth:`Subspace.coords` returns one.
:func:`qvec` puts a vector into that normal form: no zeros, and each value
in the normal form of ``scalars.exact``, an ``int`` when it is integral and
a ``Q`` otherwise.  :func:`vec_add_scaled` keeps it, so the integral
coefficients that nearly every computation meets never become ``Q``.

Elimination runs in ``int`` only.  An :class:`Echelon` keeps primitive
integer rows; a vector entering it or a :class:`Subspace` has its
denominators cleared once.  Where results leave (canonical rows,
``Subspace.rows``, the residues of ``reduce_vec`` and :func:`residue`),
:func:`rational` divides by the common denominator and builds a ``Q`` only
for an entry it does not divide.  RREF with pivot 1 is
unique, so those are the same as with rational elimination.

The kernel other modules build on:

* :func:`vec_add_scaled` is the one add-and-drop-zero loop;
* :func:`reduce_by_pivots` is the one elimination loop, shared by
  :class:`Echelon`, :class:`Subspace` and :func:`quotient_basis`;
* :func:`lincomb` forms a linear combination of linear maps in one pass.

The storage of a :class:`LinearMap` is private to this module: other
modules read a map through ``col``, ``apply``, ``compose`` and ``lincomb``
and build one with ``from_cols``, ``zero`` or ``identity``.
"""

from functools import cached_property
from math import gcd

from .scalars import Q, exact

# ---------------------------------------------------------------------------
# sparse vector helpers


def vec_add_scaled(dst, src, c):
    """dst += c*src in place, dropping zeros; each value it writes is in
    the normal form of ``exact``."""
    for k, x in src.items():
        y = dst.get(k, 0) + c * x
        if y == 0:
            dst.pop(k, None)
        elif type(y) is int:
            dst[k] = y
        else:
            dst[k] = exact(y)
    return dst


def qvec(v, n):
    """v in the normal form of stored vectors (map columns, structure
    constants): values normalized by ``exact``, no zero stored.  Raises
    ValueError for a coordinate outside range(n) and TypeError for an
    inexact value such as a float."""
    out = {}
    for k, x in v.items():
        if type(x) is not int:
            x = exact(x)
        if x:
            out[k] = x
    if out and not (min(out) >= 0 and max(out) < n):
        raise ValueError("coordinate outside range(%d)" % n)
    return out


def _natural(c):
    return c


def int_vec(v):
    """(w, den): w = den * v has integer entries, den > 0 the least common
    denominator.  Rejects inexact coefficients such as floats."""
    if all(type(x) is int for x in v.values()):
        return dict(v), 1
    den = 1
    for x in v.values():
        try:
            d = x.denominator
        except AttributeError:
            raise TypeError("inexact coefficient %r" % (x,)) from None
        if d != 1:
            den = den // gcd(den, d) * d
    if den == 1:
        return {k: x.numerator for k, x in v.items()}, 1
    return {k: x.numerator * (den // x.denominator)
            for k, x in v.items()}, den


def rational(v, d=1):
    """The vector v / d of an integer vector v and integer d != 0, in
    normal form: an ``int`` entry where d divides it, a ``Q`` elsewhere."""
    if d == 1:
        return dict(v)
    out = {}
    for k, x in v.items():
        q, r = divmod(x, d)
        out[k] = Q(x, d) if r else q
    return out


def reduce_by_pivots(v, rows, keyf=_natural):
    """Reduce the integer vector v in place modulo integer echelon rows
    ``{pivot: row}``, each with a positive coefficient at its pivot: while
    a coordinate of v is a pivot, take the minimal one under keyf and set
    v <- a*v - b*row, with a/b the row's and v's pivot coefficients over
    their gcd.  Returns the product d > 0 of those factors a, so that v
    ends as d times the residue of the vector it started as."""
    d = 1
    while True:
        hit = None
        hitk = None
        for c in v:
            if c in rows:
                k = keyf(c)
                if hitk is None or k < hitk:
                    hit, hitk = c, k
        if hit is None:
            return d
        row = rows[hit]
        a, b = row[hit], v[hit]
        if a != 1:
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                for c in v:
                    v[c] *= a
                d *= a
        vec_add_scaled(v, row, -b)


def residue(v, rows, keyf=_natural):
    """Residue of the rational vector v modulo integer echelon rows
    ``{pivot: row}``, in normal form; it lies on the non-pivot
    coordinates."""
    w, den = int_vec(v)
    return rational(w, den * reduce_by_pivots(w, rows, keyf))


def quotient_basis(n, rows, keyf=_natural):
    """Complement of the span of integer echelon rows ``{pivot: row}`` in
    K^n.

    Returns (the non-pivot coordinates, LinearMap K^n -> K^c) where the map
    sends v to the coordinates of its residue modulo the rows; the residue
    lies on the non-pivot coordinates, whatever the order keyf.
    """
    comp = tuple(i for i in range(n) if i not in rows)
    pos = {c: i for i, c in enumerate(comp)}
    cols = []
    for j in range(n):
        res = residue({j: 1}, rows, keyf)
        cols.append({pos[c]: x for c, x in res.items()})
    return comp, LinearMap.from_cols(len(comp), cols)


def _primitive(v, piv):
    """v divided by its content, with a positive coefficient at piv."""
    g = gcd(*v.values())
    if v[piv] < 0:
        g = -g
    if g == 1:
        return v
    return {k: x // g for k, x in v.items()}


# ---------------------------------------------------------------------------
# echelon forms


class Echelon:
    """Forward-reduced echelon basis of a growing span of sparse vectors.

    ``keyf`` orders the coordinates; the pivot of each row is its minimal
    coordinate under ``keyf``.  ``rows`` maps pivots to primitive integer
    rows: entries are ``int`` with gcd 1 and the pivot coefficient is
    positive (not scaled to 1).  Rows are reduced against the pivots known
    at insertion time only; ``canonical_rows`` back-substitutes to full
    RREF over Q.
    """

    def __init__(self, keyf=_natural):
        self.keyf = keyf
        self.rows = {}  # pivot coord -> primitive integer row dict

    def __len__(self):
        return len(self.rows)

    def reduce(self, v):
        """A nonzero integer multiple of v's residue modulo the current
        span, as a fresh dict ({} iff v lies in the span)."""
        w = int_vec(v)[0]
        reduce_by_pivots(w, self.rows, self.keyf)
        return w

    def insert(self, v):
        """Reduce v and adjoin it if independent.  Returns the new pivot
        coordinate, or None if v was already in the span."""
        v = self.reduce(v)
        if not v:
            return None
        piv = min(v, key=self.keyf)
        self.rows[piv] = _primitive(v, piv)
        return piv

    def contains(self, v):
        return not self.reduce(v)

    def canonical_rows(self):
        """Fully back-substituted rows over Q, pivot coefficient 1, sorted
        by pivot order, in normal form."""
        keyf = self.keyf
        done = {}
        # later pivots first, so each row meets only finished rows
        for piv in sorted(self.rows, key=keyf, reverse=True):
            row = dict(self.rows[piv])
            reduce_by_pivots(row, done, keyf)
            done[piv] = _primitive(row, piv)
        return [rational(done[p], done[p][p]) for p in sorted(done, key=keyf)]


# ---------------------------------------------------------------------------
# canonical subspaces of K^n


class Subspace:
    """Row space of a reduced-echelon matrix over Q, ambient dimension fixed.

    The basis is canonical (ascending pivots, fully reduced), so equality of
    subspaces is literal equality of bases.
    """

    def __init__(self, ambient_dim, rows=()):
        self.ambient_dim = ambient_dim
        self.rows = tuple(rows)  # tuple of sparse dicts, canonical RREF
        self.pivots = tuple(min(r) for r in self.rows)
        # integer copies of the rows, for reduction
        self._introws = {p: int_vec(r)[0]
                         for p, r in zip(self.pivots, self.rows)}

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        ech = Echelon()
        for v in vectors:
            if max(v, default=-1) >= ambient_dim:
                raise ValueError("coordinate out of ambient range")
            ech.insert(v)
        return cls(ambient_dim, ech.canonical_rows())

    @classmethod
    def full(cls, n):
        return cls(n, [{i: 1} for i in range(n)])

    @property
    def dim(self):
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim,
                     tuple(tuple(sorted(r.items())) for r in self.rows)))

    def __repr__(self):
        return "Subspace(dim %d in K^%d)" % (self.dim, self.ambient_dim)

    def reduce_vec(self, v):
        """Residue of v modulo this subspace."""
        return residue(v, self._introws)

    def contains_vec(self, v):
        return not self.reduce_vec(v)

    def contains(self, other):
        self._check_ambient(other)
        return all(self.contains_vec(r) for r in other.rows)

    def coords(self, v):
        """Sparse coordinates of v in the canonical basis, in row order;
        raises if v is not inside.

        With an RREF basis the coordinate along each row is just the entry
        of v at that row's pivot, so only v's support is looked up.
        """
        row_of = self._row_of
        out = {}
        w = {}
        for i, c in sorted((row_of[k], c) for k, c in v.items()
                           if c != 0 and k in row_of):
            out[i] = c
            vec_add_scaled(w, self.rows[i], c)
        if w != {k: x for k, x in v.items() if x != 0}:
            raise ValueError("vector not in subspace")
        return out

    @cached_property
    def _row_of(self):
        return {p: i for i, p in enumerate(self.pivots)}

    def sum(self, other):
        self._check_ambient(other)
        return Subspace.from_vectors(self.ambient_dim,
                                     list(self.rows) + list(other.rows))

    def intersect(self, other):
        """Zassenhaus: echelonize [a|a] and [b|0]; rows with zero left half
        carry the intersection in their right half."""
        self._check_ambient(other)
        n = self.ambient_dim
        ech = Echelon()
        for a in self.rows:
            v = dict(a)
            for k, x in a.items():
                v[n + k] = x
            ech.insert(v)
        for b in other.rows:
            ech.insert(dict(b))
        out = []
        for row in ech.canonical_rows():
            if min(row) >= n:
                out.append({k - n: x for k, x in row.items()})
        return Subspace.from_vectors(n, out)

    def complement_pivots(self):
        """Indices of the canonical complement coordinates."""
        pivset = set(self.pivots)
        return tuple(i for i in range(self.ambient_dim) if i not in pivset)

    def quotient_basis(self):
        """Complement basis and the projection-to-quotient-coordinates map.

        Returns (complement coordinate indices, LinearMap ambient -> K^c)
        with projection(v) = coordinates of v mod this subspace.
        """
        return quotient_basis(self.ambient_dim, self._introws)

    def _check_ambient(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch: %d vs %d"
                             % (self.ambient_dim, other.ambient_dim))


def zero_subspace(n):
    return Subspace(n, ())


# ---------------------------------------------------------------------------
# linear maps


class LinearMap:
    """Matrix over Q stored as its columns: column j is the image of the
    j-th basis vector, a sparse vector in the normal form of ``qvec``.
    Build one with ``from_cols``, ``zero`` or ``identity``; only this module
    reads the storage."""

    __slots__ = ("rows", "cols", "_columns")

    def __init__(self, rows, columns):
        self.rows = rows
        self.cols = len(columns)
        self._columns = columns

    @classmethod
    def zero(cls, rows, cols):
        return cls.from_cols(rows, [{}] * cols)

    @classmethod
    def identity(cls, n):
        return cls.from_cols(n, [{i: 1} for i in range(n)])

    @classmethod
    def from_cols(cls, rows, cols_vectors):
        """Build from a list of image columns given as sparse dicts."""
        return cls(rows, tuple(qvec(v, rows) for v in cols_vectors))

    def col(self, j):
        return dict(self._columns[j])

    def apply(self, v):
        """Apply to a sparse vector, returning a sparse vector."""
        out = {}
        columns = self._columns
        for j, c in v.items():
            if c != 0:
                vec_add_scaled(out, columns[j], c)
        return out

    def compose(self, other):
        """self o other."""
        if self.cols != other.rows:
            raise ValueError("composition dimension mismatch")
        return LinearMap.from_cols(self.rows,
                                   [self.apply(c) for c in other._columns])

    def __matmul__(self, other):
        return self.compose(other)

    def add(self, other):
        return lincomb((self, other), {0: 1, 1: 1}, self.rows, self.cols)

    def scale(self, c):
        return lincomb((self,), {0: exact(c)}, self.rows, self.cols)

    def __eq__(self, other):
        return (isinstance(other, LinearMap) and self.rows == other.rows
                and self._columns == other._columns)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(v.items()) for v in self._columns)))

    def __repr__(self):
        return "LinearMap(%d x %d)" % (self.rows, self.cols)

    def is_zero(self):
        return not any(self._columns)

    def kernel(self):
        """Kernel as a canonical Subspace of the source."""
        ech = Echelon()
        n = self.cols
        for j in range(n):
            # vector (column image | unit tracking part); coords n.. track j
            w = self.col(j)
            w[self.rows + j] = 1
            ech.insert(w)
        out = []
        for row in ech.canonical_rows():
            if min(row) >= self.rows:
                out.append({k - self.rows: x for k, x in row.items()})
        return Subspace.from_vectors(n, out)

    def image(self):
        return Subspace.from_vectors(self.rows, self._columns)

    def rank(self):
        """The number of rows an echelon basis of the columns keeps; no
        canonical basis is back-substituted."""
        ech = Echelon()
        for v in self._columns:
            ech.insert(v)
        return len(ech)

    def restrict(self, sub):
        """Restriction to a subspace of the source, in its canonical
        coordinates: columns are images of the subspace basis rows."""
        if sub.ambient_dim != self.cols:
            raise ValueError("subspace not in source space")
        return LinearMap.from_cols(self.rows, [self.apply(r) for r in sub.rows])


def lincomb(mats, coeffs, rows, cols):
    """sum_k coeffs[k] * mats[k] as a rows x cols LinearMap, in one pass.

    ``coeffs`` is a sparse dict and ``mats`` anything indexed by its keys
    (a sequence or a dict); empty coefficients give the zero map.
    """
    acc = [{} for _ in range(cols)]
    for k, c in coeffs.items():
        m = mats[k]
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError("shape mismatch")
        for a, v in zip(acc, m._columns):
            vec_add_scaled(a, v, c)
    return LinearMap.from_cols(rows, acc)
