"""Finite permutation groups with fully enumerated element sets.

Groups are closed exhaustively (no stabilizer chains): a group stores the
sorted 0-based image bytes of all its elements, composed by bytes.translate,
and every structural query below walks them as element indices, which keeps
all results auditable at desk scale.  Closure refuses groups larger than a
configurable cap, or of a degree over ``MAX_DEGREE``.

``close`` only closes input generators, by whole left cosets grown from the
largest of their cyclic subgroups, each coset one translate.  Every subgroup
of a closed group (a search hit, a Sylow subgroup climbed by normalizers, a
join of Sylow subgroups, which is how Hall subgroups of composite order are
found, a pi-core) is grown on that group's element indices by one routine,
``_grow``, Dimino's method from a subgroup, as an (element-index set,
generator indices) pair, the form Hall subgroups and classes are handed out in.
Centralizer orders are counted on element indices too, with no subgroup grown.

Tables are built by their first reader and kept: the conjugation rows, entry
by entry, for the Hall orbit walk and the classes alike by the one fill
``_fill_rows``; the classes; the power walk of each element read, whose
length is its order, the one source of element orders; the Hall set, per
Hall order, so the Sylow sets the joins read, per prime power.

``WORK`` counts the work where it is done, always: ``close.calls`` and
``close.elements``, ``grow.calls`` and ``grow.cosets``, ``rows.filled``,
``power_walk.built``, ``hall.subgroups``, and in hall.py ``hall.orbits_read``.
"""

from __future__ import annotations

from math import ceil, gcd, log2
from struct import Struct
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from .arith import PiSet, factorize, pi_part
from .perm import Permutation

#: Default ceiling for exhaustive element enumeration.
DEFAULT_ELEMENT_CAP = 10080
#: Largest cap the command line admits: the order of S8, whose closure and
#: classes take about 0.1 s and 21 MB of a process, and 30 MB with the power
#: walk of every element, which a Hall search or ``element_orders`` keeps; a
#: larger cap is refused before closure.
MAX_CAP = 40320
#: Largest degree: each point of an element's image bytes must fit in a byte.
MAX_DEGREE = 256
_POINTS = bytes(range(MAX_DEGREE))
#: Work done in this process, by counter name; see the module docstring.
WORK: Dict[str, int] = {}


class CapExceededError(RuntimeError):
    """Closure grew past the configured element cap."""


class PermGroup:
    """A finite permutation group stored as the canonically sorted image bytes
    of its elements, each read by its element index.

    Invariant: ``generators`` generate the group.  Membership reads the element
    index."""

    __slots__ = ("degree", "generators", "_images", "_index", "_rows", "_classes", "_walks",
                 "_halls")

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 images: Iterable[bytes]) -> None:
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "_images", tuple(sorted(images)))
        for name in ("_index", "_rows", "_classes"):
            object.__setattr__(self, name, None)
        for name in ("_walks", "_halls"):
            object.__setattr__(self, name, {})

    @property
    def order(self) -> int:
        return len(self._images)

    @property
    def identity(self) -> Permutation:
        """The first element: the canonical sort puts the lexicographic minimum first."""
        return Permutation._from_bytes(self._images[0])

    def __contains__(self, g: Permutation) -> bool:
        return g.degree == self.degree and g._bytes() in self._ensure_index()

    def fingerprint(self) -> Tuple[bytes, ...]:
        """The 0-based image bytes of each element index; the canonical sort key."""
        return self._images

    def _ensure_index(self) -> Dict[bytes, int]:
        """Element index keyed by image bytes; computed once per group."""
        if self._index is None:
            object.__setattr__(self, "_index", {t: i for i, t in enumerate(self._images)})
        return self._index

    def _subgroup(self, members: Iterable[int], gens: Sequence[int]) -> "PermGroup":
        """The subgroup on the element indices ``members``, generated by the
        elements at ``gens``; the trivial subgroup by the identity."""
        images = self._images
        return PermGroup(self.degree, [Permutation._from_bytes(images[i]) for i in gens or (0,)],
                         [images[i] for i in members])

    def element_orders(self) -> Tuple[int, ...]:
        """Element orders, by element index: the lengths of their power walks."""
        return tuple(len(self.power_walk(i)) for i in range(self.order))

    def power_index(self, i: int, d: int) -> int:
        """Index of x^d for x the element at index i, read off :meth:`power_walk`."""
        walk = self._walks.get(i) or self.power_walk(i)
        return walk[d % len(walk)]

    def power_walk(self, i: int) -> List[int]:
        """The indices of x^0, x^1, ..., x^(k-1) for x at index i of order k,
        so the element indices of <x>; made on the first call for i and kept."""
        walk = self._walks.get(i)
        if walk is None:
            index, y = self._ensure_index(), self._images[i]
            walk, x = [0], _table(y)
            while j := index[y]:  # the identity has index 0
                walk.append(j)
                y = y.translate(x)
            self._walks[i] = walk
            WORK["power_walk.built"] = WORK.get("power_walk.built", 0) + 1
        return walk

    def power_counts(self, weights: Mapping[int, int], d: int) -> Dict[int, int]:
        """The total of weights[i] per index of x^d, x the element at index i,
        over the element indices i of ``weights``, read off their power walks."""
        walks, counts = self._walks, {}
        for i, w in weights.items():
            walk = walks.get(i) or self.power_walk(i)
            j = walk[d % len(walk)]
            counts[j] = counts.get(j, 0) + w
        return counts

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PermGroup) and self.degree == other.degree
                and self.fingerprint() == other.fingerprint())

    def __hash__(self) -> int:
        return hash((self.degree, self.fingerprint()))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PermGroup is immutable")

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, order={self.order}, gens=[{gens}])"


def close(generators: Sequence[Permutation], *, degree: Optional[int] = None,
          cap: int = DEFAULT_ELEMENT_CAP) -> PermGroup:
    """Close a generating set into the full generated group.

    ``degree`` is required for an empty generating set.  Raises
    :class:`CapExceededError` once the closure grows past ``cap``.
    """
    gens = list(generators)
    deg = gens[0].degree if gens else degree
    if deg is None:
        raise ValueError("degree is required for an empty generating set")
    if any(g.degree != deg for g in gens):
        raise ValueError("generators must share one degree")
    if degree is not None and degree != deg:
        raise ValueError(f"declared degree {degree} != generator degree {deg}")
    if deg > MAX_DEGREE:
        raise ValueError(f"degree {deg} is over the limit {MAX_DEGREE} of byte images")

    # Dimino's method on image bytes, with the moves by descending order: grow
    # <g1..gi> from H = <g1..g(i-1)>, first the power walk of g1, by whole left
    # cosets y H, y = g r for a representative r and a move g not in H, each
    # one translate of H's joined images by y's table, split by one unpack.
    ident, one, walks = Permutation.identity(deg), _POINTS[:deg], []
    for g in dict.fromkeys(map(Permutation._bytes, gens)):
        walk, table = [one], _table(g)
        while g != one:
            if len(walk) == cap:
                raise _cap_exceeded(cap)
            walk.append(g)
            g = g.translate(table)
        walks.append(walk)
    walks.sort(key=len, reverse=True)
    elements = walks[0] if walks else [one]
    seen, moves = set(elements), [_table(g) for g in elements[1:2]]
    for walk in walks[1:]:
        if walk[-1] in seen:
            continue
        moves.append(_table(walk[1]))
        joined, size, reps = b"".join(elements), len(elements), [one]
        unpack = Struct(f"{deg}s" * size).unpack
        for r in reps:
            for table_g in moves:
                y = r.translate(table_g)
                if y not in seen:
                    if len(elements) + size > cap:
                        raise _cap_exceeded(cap)
                    coset = unpack(joined.translate(_table(y)))
                    seen.update(coset)
                    elements += coset
                    reps.append(y)
    WORK["close.calls"] = WORK.get("close.calls", 0) + 1
    WORK["close.elements"] = WORK.get("close.elements", 0) + len(elements)
    return PermGroup(deg, gens or [ident], elements)


def _cap_exceeded(cap: int) -> CapExceededError:
    """The refusal of a closure past ``cap`` elements."""
    return CapExceededError(f"closure exceeds the element cap {cap}; "
                            "the group is too large for exhaustive mode")


def _table(g: bytes) -> bytes:
    """The translate table of left multiplication t -> g t on image bytes."""
    return g + _POINTS[len(g):]


Found = Tuple[FrozenSet[int], Tuple[int, ...]]
_TRIVIAL: Found = (frozenset({0}), ())


def _grow(index: Dict[bytes, int], images: Sequence[bytes], S: FrozenSet[int],
          moves: Sequence[bytes], limit: int, least: int = 0) -> Optional[FrozenSet[int]]:
    """Dimino's step on the element indices of a closed group, given by its
    ``index`` and ``images``: the subgroup <S, moves>, grown from the subgroup
    S by left cosets y S, y = g r for a coset representative r and a move g,
    given as the translate table of t -> g t.  The cosets reached make up
    <S, moves> when S is generated by some of the moves and a subgroup normal
    in <S, moves>, such as the trivial one, or S itself in a Sylow climb.
    None past ``limit`` elements or at a new element below ``least``."""
    WORK["grow.calls"] = WORK.get("grow.calls", 0) + 1
    seen = set(S)
    reps = [images[0]]
    for r in reps:
        for g in moves:
            y = r.translate(g)
            if index[y] not in seen:
                table_y = _table(y)
                coset = [index[images[c].translate(table_y)] for c in S]
                if len(seen) + len(coset) > limit or least and min(coset) < least:
                    WORK["grow.cosets"] = WORK.get("grow.cosets", 0) + len(reps) - 1
                    return None
                seen.update(coset)
                reps.append(y)
    WORK["grow.cosets"] = WORK.get("grow.cosets", 0) + len(reps) - 1
    return frozenset(seen)


def _join(index: Dict[bytes, int], images: Sequence[bytes], S: FrozenSet[int],
          elements: Iterable[int], limit: int) -> Optional[Found]:
    """Dimino's method from a subgroup S that is normal in the group, such as
    the trivial one: <S, elements> and the elements added, in order.  Each element
    not yet inside grows the subgroup by :func:`_grow`, moved by the elements
    added so far.  None past ``limit`` elements."""
    added, moves = [], []
    for i in elements:
        if i not in S:
            added.append(i)
            moves.append(_table(images[i]))
            grown = _grow(index, images, S, moves, limit)
            if grown is None:
                return None
            S = grown
    return S, tuple(added)


def centralizer_order(G: PermGroup, members: Iterable[int], targets: Sequence[int]) -> int:
    """How many elements of G at the indices ``members`` commute with every
    element at ``targets``, compared as image bytes; nothing is grown.  With
    ``members`` a subgroup N and ``targets`` generating a subgroup S, |C_N(S)|."""
    images = G.fingerprint()
    # t x and x t on image bytes, for each target t.
    sides = [(images[t], _table(images[t])) for t in targets]
    return sum(all(x.translate(table_t) == t.translate(_table(x)) for t, table_t in sides)
               for x in map(images.__getitem__, members))


def subgroups_of_order(G: PermGroup, m: int) -> List[PermGroup]:
    """All subgroups of G of order exactly ``m``, by canonical backtracking.

    Generating sets grow element-by-element in the canonical element order,
    and each closure grows from its parent's by left cosets.  A branch is
    pruned when its closure order fails to divide ``m``, exceeds ``m``, or
    when the new generator is not the least new element (one canonical
    generating chain per subgroup); so is an element whose order, the length
    of its power walk, does not divide m.  Any group of order m is generated
    by at most ceil(log2 m) elements, so chains are short."""
    if m < 1 or G.order % m:
        raise ValueError(f"{m} does not divide the group order {G.order}")
    if m == 1:
        return [G._subgroup(*_TRIVIAL)]
    if m == G.order:
        return [G]
    index, images, walks = G._ensure_index(), G.fingerprint(), G._walks
    max_gens, found, chains = ceil(log2(m)), [], [(_TRIVIAL[0], (), 1)]
    while chains:
        clo, gens, start = chains.pop()
        moves = [_table(images[g]) for g in gens]
        for e in range(start, G.order):
            if e in clo or m % len(walks.get(e) or G.power_walk(e)):
                continue
            # A new element below e means the chain is not canonical.
            new = _grow(index, images, clo, moves + [_table(images[e])], m, e)
            if new is None or m % len(new):
                continue
            if len(new) == m:
                found.append((new, gens + (e,)))
            elif len(gens) + 1 < max_gens:
                chains.append((new, gens + (e,), e + 1))
    found.sort(key=lambda pair: sorted(pair[0]))
    return [G._subgroup(S, gens) for S, gens in found]


def hall_subgroups(G: PermGroup, n: int) -> Tuple[Tuple[Found, ...], Callable[[], list]]:
    """The subgroups of Hall order ``n``, as a tuple of index-form pairs sorted
    like :func:`subgroups_of_order`, and a function computing one (size,
    N_G(K) element-index set) per orbit.  G keeps both by n, for every prime
    set of that order; the function reads G's order, not G, so forms no cycle.

    Each contains a Sylow p-subgroup of G for every p dividing n, and these
    are conjugate, so each is conjugate to one containing P, a Sylow subgroup
    at n's largest prime power (:func:`_sylow_start`): in any finite group,
    they are the conjugation orbits of P's joins of order n with a Sylow
    subgroup per other prime (:func:`_sylow_joins`), none if no join has it,
    and P's alone at a prime power n.  Each orbit is walked once, from its
    first hit K, on G's conjugation rows filled at its members only.  The
    function grows N_G(K) from K, normal in it, by the walk's Schreier
    generators to |N_G(K)| = |G| / |orbit|; it is G for a lone, normal K."""
    if n < 1 or G.order % n or gcd(n, G.order // n) != 1:
        raise ValueError(f"{n} is not a Hall order of a group of order {G.order}")
    if n in G._halls:
        return G._halls[n]
    index, images, order = G._ensure_index(), G.fingerprint(), G.order
    if n in (1, order):
        whole = frozenset(range(order))
        gens = tuple(index[g._bytes()] for g in G.generators)
        G._halls[n] = (_TRIVIAL if n == 1 else (whole, gens),), lambda: [(1, whole)]
        WORK["hall.subgroups"] = WORK.get("hall.subgroups", 0) + 1
        return G._halls[n]
    q, p = max((p ** k, p) for p, k in factorize(n).items())
    P = _sylow_start(G, q, p)
    halls, walks = {}, []  # the Hall subgroups, each with its conjugated generators
    for K, gens in [P] if q == n else _sylow_joins(G, n, P):
        if K in halls:
            continue
        # u[T], with u[T] K u[T]^-1 = T, is the image bytes g u[S] for the S and
        # the generator g (its translate table maps t to g t) that first reached T.
        halls[K], orbit, u, edges = gens, [K], {K: images[0]}, []
        for S in orbit:
            for g, _, row in _fill_rows(G, S):
                T = frozenset(map(row.__getitem__, S))
                if T in halls:
                    edges.append((u[T], g, u[S]))
                else:
                    halls[T] = tuple(map(row.__getitem__, halls[S]))
                    u[T] = u[S].translate(g)
                    orbit.append(T)
        walks.append((K, len(orbit), edges))

    def normalizer(K: FrozenSet[int], size: int, edges: list) -> FrozenSet[int]:
        # An edge S -> T = g S g^-1 to a T met before gives the Schreier generator
        # u[T]^-1 g u[S] of N_G(K).  K is normal in N_G(K), so Dimino's step may
        # grow from the last N by every one that grew it so far.
        N = K if size > 1 else frozenset(range(order))
        moves, target = [], order // size
        for u_T, g, u_S in edges:
            if len(N) == target:
                break
            s = index[u_S.translate(g).translate(bytes.maketrans(u_T, images[0]))]
            if s not in N:
                moves.append(_table(images[s]))
                N = _grow(index, images, N, moves, target)
        return N
    G._halls[n] = (tuple(sorted(halls.items(), key=lambda pair: sorted(pair[0]))),
                   lambda: [(size, normalizer(K, size, edges)) for K, size, edges in walks])
    WORK["hall.subgroups"] = WORK.get("hall.subgroups", 0) + len(halls)
    return G._halls[n]


def _sylow_start(G: PermGroup, q: int, p: int) -> Found:
    """A Sylow p-subgroup of G at q, the p-part of |G|: the first of G's kept
    Sylow set at q, else a climb to order q from the largest cyclic p-part
    <g^(k/p^j)> of a generator g of order k, read off g's power walk.  Below
    q, p divides |N_G(Q) : Q| for the p-subgroup Q (Sylow), so some x outside
    Q with x^p in Q normalizes Q: the first by element index grows Q to
    <Q, x>, of order p |Q|."""
    if q in G._halls:
        return G._halls[q][0][0]
    index, images, (Q, gens) = G._ensure_index(), G.fingerprint(), _TRIVIAL
    for g in G.generators:
        walk = G.power_walk(index[g._bytes()])
        step = len(walk) // gcd(len(walk), q)
        if len(walk) // step > len(Q):
            Q, gens = frozenset(walk[::step]), (walk[step],)
            if len(Q) == q:
                return Q, gens
    while len(Q) < q:
        for x in range(1, G.order):
            table_x, y = _table(images[x]), images[x]
            for _ in range(p - 1):
                y = y.translate(table_x)
            if x in Q or index[y] not in Q:
                continue
            # x a x^-1 on image bytes: x^-1 translated by a's table, then by x's.
            x_inverse = bytes.maketrans(images[x], images[0])[:G.degree]
            if all(index[x_inverse.translate(_table(images[a])).translate(table_x)] in Q
                   for a in gens):
                Q, gens = _grow(index, images, Q, [table_x], q), gens + (x,)
                break
    return Q, gens


def _sylow_joins(G: PermGroup, n: int, P: Found) -> Iterator[Found]:
    """Yield the subgroups of Hall order ``n`` above the Sylow subgroup P, each
    generated by one of G's Sylow subgroups per prime, as joins <P, Q_1, ...>
    depth first over G's kept Sylow sets by ascending size.  A prime whose
    power divides |J| is passed over; a join is pruned past n elements, at an
    order not dividing n, when met before at its depth, or before it is grown
    if a product of generators of J and Q has an order not dividing n."""
    index, images, walks = G._ensure_index(), G.fingerprint(), G._walks
    powers = sorted(p ** k for p, k in factorize(n).items() if p ** k != len(P[0]))
    sylows = sorted(((q, hall_subgroups(G, q)[0]) for q in powers), key=lambda s: len(s[1]))
    tried = [set() for _ in sylows]

    def extend(J: FrozenSet[int], gens: Tuple[int, ...], depth: int) -> Iterator[Found]:
        while depth < len(sylows) and len(J) % sylows[depth][0] == 0:
            depth += 1
        if depth == len(sylows):
            yield J, gens  # |J| divides n and has each of its prime powers
            return
        tables = [_table(images[a]) for a in gens]
        for _, q_gens in sylows[depth][1]:
            if any(n % len(walks.get(ab) or G.power_walk(ab)) for ab in
                   (index[images[b].translate(t)] for t in tables for b in q_gens)):
                continue
            joined = _grow(index, images, J, tables + [_table(images[b]) for b in q_gens], n)
            if joined is not None and not n % len(joined) and joined not in tried[depth]:
                tried[depth].add(joined)
                yield from extend(joined, gens + q_gens, depth + 1)

    try:
        yield from extend(*P, 0)
    finally:
        del extend  # break the self-reference even if the caller stops early


def _conjugation_rows(G: PermGroup) -> List[Tuple[bytes, bytes, list]]:
    """Once per group, a triple (g's translate table, g^-1's image bytes, row
    x -> g x g^-1 on element indices, None until filled) per distinct
    generator g but the identity, which moves nothing."""
    if G._rows is None:
        ident = G.fingerprint()[0]
        gens = [g for g in dict.fromkeys(map(Permutation._bytes, G.generators)) if g != ident]
        object.__setattr__(G, "_rows", [(_table(g), bytes.maketrans(g, ident)[:G.degree],
                                         [None] * G.order) for g in gens])
    return G._rows


def _fill_rows(G: PermGroup, xs: Iterable[int]) -> List[Tuple[bytes, bytes, list]]:
    """G's conjugation rows, each entry filled in place at the element indices
    ``xs``, a collection: g x g^-1 is g^-1 translated by x's table, then by g's.
    Once G's classes exist, every entry is filled."""
    if G._classes is not None:
        return G._rows
    index, images, tail = G._index or G._ensure_index(), G._images, _POINTS[G.degree:]
    filled = 0
    for table_g, g_inverse, row in G._rows or _conjugation_rows(G):
        for x in xs:
            if row[x] is None:
                row[x] = index[g_inverse.translate(images[x] + tail).translate(table_g)]
                filled += 1
    WORK["rows.filled"] = WORK.get("rows.filled", 0) + filled
    return G._rows


def conjugacy_classes(G: PermGroup) -> Tuple[Tuple[int, ...], ...]:
    """Conjugacy classes as ascending element-index tuples, identity class
    first; computed once per group."""
    if G._classes is not None:
        return G._classes
    rows, n = _fill_rows(G, range(G.order)), G.order
    seen = bytearray(n)
    classes: List[Tuple[int, ...]] = []
    for i in range(n):
        if seen[i]:
            continue
        seen[i], orbit = 1, [i]
        for y in orbit:
            for _, _, row in rows:
                z = row[y]
                if not seen[z]:
                    seen[z] = 1
                    orbit.append(z)
        orbit.sort()
        classes.append(tuple(orbit))
    object.__setattr__(G, "_classes", tuple(classes))
    return G._classes


def _core(G: PermGroup, part: int, base: Found) -> Found:
    """Largest normal subgroup M >= ``base`` whose index |M|/|base| divides
    ``part``, |G|_pi or |G|/|G|_pi (each order here divides |G|, so that is a
    pi- or pi'-number), joined from ``base`` one class x^G at a time when
    <core, x^G> passes.  A class failing on its own fails in any larger join:
    <base, x^G> lies in it, and its index divides the join's; so does one
    whose x has order k modulo the core with part % k != 0, since k divides
    |<core, x^G> : core|, and it is not tried (nor is one with k = 1).

    Subgroups are (element-index set, generator indices) pairs.  A join is
    Dimino's method from the core, which is normal in G, so only the class
    elements move its cosets."""
    index, images = G._ensure_index(), G.fingerprint()
    core, gens = base
    limit = len(core) * gcd(G.order // len(core), part)
    for cls in (G._classes or conjugacy_classes(G))[1:]:
        k = next(k for k, j in enumerate(G.power_walk(cls[0]) + [0]) if k and j in core)
        if k > 1 and part % k == 0:
            joined = _join(index, images, core, cls, limit)
            if joined and part % (len(joined[0]) // len(base[0])) == 0:
                core, gens = joined[0], gens + joined[1]
    return core, gens


def is_pi_separable(G: PermGroup, pi: PiSet) -> bool:
    """Whether the upper pi-series 1 <= O_pi(G) <= O_pi,pi'(G) <= ... reaches G.

    Every term is a normal subgroup of G, grown from the one before by the
    cores of index dividing |G|_pi and |G|/|G|_pi in turn (a core cannot grow
    the term it just made), so G's classes, computed once here, serve every
    level.  G is not pi-separable when neither core grows the last term."""
    conjugacy_classes(G)
    n = pi_part(G.order, pi)
    base, side, stalled = _TRIVIAL, 0, 0
    while len(base[0]) < G.order and stalled < 2:
        M = _core(G, (n, G.order // n)[side], base)
        stalled = stalled + 1 if len(M[0]) == len(base[0]) else 0
        base, side = M, 1 - side
    return len(base[0]) == G.order


class FiniteAction:
    """A left action of a group on the points 0..size-1, as a table."""

    __slots__ = ("size", "_rows")

    def __init__(self, size: int, rows: Dict[Permutation, Tuple[int, ...]]) -> None:
        self.size = size
        self._rows = rows

    @classmethod
    def build(cls, group: PermGroup, size: int,
              func: Callable[[Permutation, int], int]) -> "FiniteAction":
        """Tabulate the action generated by ``func``'s rows on the generators.

        ``func(g, i)`` is the index of g's image of point i.  It is read only
        on the identity, which must fix every point, and on the distinct
        generators; every other row comes by breadth-first search with
        row(s h) = row(s) o row(h).  An edge reaching a filled row with a
        different composed row raises, so the table is a valid action.
        """
        ident = group.identity
        rows = {ident: tuple(range(size))}
        if tuple(func(ident, i) for i in range(size)) != rows[ident]:
            raise ValueError("identity does not fix every point")
        gen_rows = [(s, tuple(func(s, i) for i in range(size)))
                    for s in dict.fromkeys(group.generators)]
        queue = [ident]
        for h in queue:
            hrow = rows[h]
            for s, srow in gen_rows:
                g = s * h
                row = tuple(map(srow.__getitem__, hrow))
                known = rows.get(g)
                if known is None:
                    rows[g] = row
                    queue.append(g)
                elif known != row:
                    raise ValueError("action table violates act(g, act(h, x)) == act(gh, x)")
        if len(rows) != group.order:
            raise AssertionError("generators do not generate the element list")
        return cls(size, rows)

    def act(self, g: Permutation, i: int) -> int:
        return self._rows[g][i]

    def fixed_count(self, g: Permutation) -> int:
        row = self._rows[g]
        return sum(1 for i, v in enumerate(row) if v == i)
