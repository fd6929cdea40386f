"""Finite permutation groups with fully enumerated element sets.

Groups are closed exhaustively (no stabilizer chains): every structural query
below walks the complete element list, which keeps all results auditable at
desk scale.  Closure refuses groups larger than a configurable cap.
"""

from __future__ import annotations

from math import ceil, gcd, log2
from operator import attrgetter, itemgetter
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from .arith import PiSet, divisors, factorize, prime_divisors
from .perm import Permutation

#: Default ceiling for exhaustive element enumeration.
DEFAULT_ELEMENT_CAP = 10080


class CapExceededError(RuntimeError):
    """Closure grew past the configured element cap."""


class NotASubgroupError(ValueError):
    """An operand was expected to lie inside the ambient group."""


class PermGroup:
    """A finite permutation group with its complete, canonically sorted element list.

    Invariant: ``generators`` generate ``elements``.  Membership reads the element
    index, and ``is_subgroup_of``/``is_normal_in`` test generators only."""

    __slots__ = ("degree", "generators", "elements", "_index", "_orders", "_classes", "_walks")

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 elements: Sequence[Permutation]) -> None:
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "elements", tuple(sorted(elements, key=attrgetter("images"))))
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "_orders", None)
        object.__setattr__(self, "_classes", None)
        object.__setattr__(self, "_walks", {})

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        # Canonical sort puts the identity first: its image tuple is the
        # lexicographic minimum.
        return self.elements[0]

    def __contains__(self, g: Permutation) -> bool:
        return g.images in self._ensure_index()

    def element_set(self) -> FrozenSet[Permutation]:
        """The elements as a frozenset, built on every call."""
        return frozenset(self.elements)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(g in other for g in self.generators)

    def is_normal_in(self, other: "PermGroup") -> bool:
        return self.is_subgroup_of(other) and all(
            g * k * g.inverse() in self for g in other.generators for k in self.generators)

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1:])

    def is_cyclic(self) -> bool:
        return self.order in self.element_orders()

    def fingerprint(self) -> Tuple[Tuple[int, ...], ...]:
        """Sorted element-image tuples; the canonical dedup / ordering key."""
        return tuple(g.images for g in self.elements)

    def _ensure_index(self) -> Dict[Tuple[int, ...], int]:
        """Element index keyed by image tuple; computed once per group."""
        if self._index is None:
            object.__setattr__(self, "_index",
                               {g.images: i for i, g in enumerate(self.elements)})
        return self._index

    def element_orders(self) -> Tuple[int, ...]:
        """Element orders, indexed like ``elements``; computed once per group."""
        if self._orders is None:
            object.__setattr__(self, "_orders", tuple(g.order() for g in self.elements))
        return self._orders

    def power_index(self, i: int, d: int) -> int:
        """Index of ``elements[i] ** d``, read off the walk x^0, x^1, ... of <x>
        for x = elements[i], made on the first call for i and kept."""
        walk = self._walks.get(i)
        if walk is None:
            index, y = self._ensure_index(), self.elements[i].images
            walk, times_x = [0], _times(y)
            while j := index[y]:  # the identity has index 0
                walk.append(j)
                y = times_x(y)
            self._walks[i] = walk
        return walk[d % len(walk)]

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
    if gens:
        deg = gens[0].degree
        if any(g.degree != deg for g in gens):
            raise ValueError("generators must share one degree")
        if degree is not None and degree != deg:
            raise ValueError(f"declared degree {degree} != generator degree {deg}")
    else:
        if degree is None:
            raise ValueError("degree is required for an empty generating set")
        deg = degree

    # Dimino's method on image tuples: grow <g1..gi> from H = <g1..g(i-1)>
    # by whole right cosets H y, y = r * g for a coset representative r.
    ident = Permutation.identity(deg)
    moves = [(g, _times(g)) for g in dict.fromkeys(g.images for g in gens)]
    seen = {ident.images}
    for i, (g, _) in enumerate(moves):
        if g in seen:
            continue
        prev, reps = list(seen), [ident.images]
        for r in reps:
            for _, times_g in moves[:i + 1]:
                y = times_g(r)
                if y not in seen:
                    if len(seen) + len(prev) > cap:
                        raise CapExceededError(
                            f"closure exceeds the element cap {cap}; "
                            "the group is too large for exhaustive mode")
                    seen.update(map(_times(y), prev))
                    reps.append(y)
    elems = [Permutation._trusted(t) for t in sorted(seen)]
    return PermGroup(deg, gens or [ident], elems)


def _times(g: Tuple[int, ...]) -> Callable[[Tuple[int, ...]], Tuple[int, ...]]:
    """Right multiplication t -> t * g on image tuples."""
    return itemgetter(*[v - 1 for v in g]) if len(g) > 1 else tuple


def trivial_group(degree: int) -> PermGroup:
    ident = Permutation.identity(degree)
    return PermGroup(degree, [ident], [ident])


def group_from_elements(degree: int, elements: Iterable[Permutation]) -> PermGroup:
    """Wrap an already-closed element set, picking a small generating set greedily."""
    elems = sorted(set(elements), key=attrgetter("images"))
    gens: List[Permutation] = []
    span = trivial_group(degree)
    try:
        for g in elems:
            if g not in span:
                gens.append(g)
                span = close(gens, cap=len(elems))
                if span.order == len(elems):
                    break
    except CapExceededError:
        pass
    if span.elements != tuple(elems):
        raise ValueError("element set is not closed under the group operation")
    return PermGroup(degree, gens or span.generators, elems)


def centralizer(G: PermGroup, s: "Permutation | PermGroup") -> PermGroup:
    """Subgroup of G commuting with a permutation or with a whole subgroup.

    The target only has to act on the same points, not lie inside G: the
    coprime-action checks take fixed points in a normal subgroup N of
    elements living outside N.
    """
    if isinstance(s, Permutation):
        targets: Sequence[Permutation] = [s]
        degree = s.degree
    else:
        targets = s.generators
        degree = s.degree
    if degree != G.degree:
        raise NotASubgroupError(
            f"centralizer target degree {degree} != group degree {G.degree}")
    elems = [g for g in G.elements if all(g * t == t * g for t in targets)]
    return group_from_elements(G.degree, elems)


def subgroups_of_order(G: PermGroup, m: int) -> List[PermGroup]:
    """All subgroups of G of order exactly ``m``, by canonical backtracking.

    Generating sets grow element-by-element in the canonical element order,
    and each closure grows from its parent's by right cosets.  A branch is
    pruned when its closure order fails to divide ``m``, exceeds ``m``, or
    when the new generator is not the least new element (one canonical
    generating chain per subgroup).  Any group of order m is generated by at
    most ceil(log2 m) elements, so chains are short.
    """
    if m < 1 or G.order % m:
        raise ValueError(f"{m} does not divide the group order {G.order}")
    if m == 1:
        return [trivial_group(G.degree)]
    if m == G.order:
        return [G]
    return _sorted_subgroups(G, _subgroup_search(G, m))


def hall_subgroups(G: PermGroup, n: int) -> List[PermGroup]:
    """The subgroups of Hall order ``n``, sorted like :func:`subgroups_of_order`.

    Each contains a Sylow p-subgroup of G for every p dividing n, and the
    Sylow p-subgroups are conjugate, so each is conjugate to one containing
    P, the search's first hit at n's largest prime power.  They are the
    conjugation orbits of the search's hits above P, in every finite group;
    no hit means there is none.  At a prime-power n the only hit is P."""
    if n < 1 or G.order % n or gcd(n, G.order // n) != 1:
        raise ValueError(f"{n} is not a Hall order of a group of order {G.order}")
    if n == 1:
        return [trivial_group(G.degree)]
    if n == G.order:
        return [G]
    q = max(p ** k for p, k in factorize(n).items())
    P = next(_subgroup_search(G, q))
    # Element-index sets of the conjugates, each with its conjugated generators.
    orbit = dict([P] if q == n else _subgroup_search(G, n, P))
    queue = list(orbit)
    rows = _conjugation_rows(G)
    for S in queue:
        for row in rows:
            T = frozenset(map(row.__getitem__, S))
            if T not in orbit:
                orbit[T] = tuple(map(row.__getitem__, orbit[S]))
                queue.append(T)
    return _sorted_subgroups(G, orbit.items())


_Found = Tuple[FrozenSet[int], Tuple[int, ...]]


def _sorted_subgroups(G: PermGroup, found: Iterable[_Found]) -> List[PermGroup]:
    """Subgroups from (element-index set, generator indices) pairs, by fingerprint."""
    elems = G.elements
    return sorted((PermGroup(G.degree, [elems[i] for i in gens], [elems[i] for i in sorted(S)])
                   for S, gens in found), key=PermGroup.fingerprint)


def _subgroup_search(G: PermGroup, m: int,
                     seed: _Found = (frozenset({0}), ())) -> Iterator[_Found]:
    """Yield the subgroups of order ``m`` containing the subgroup ``seed``, as
    (element-index set, generator indices) pairs in canonical chain order.
    A chain adds to the seed's generators, one at a time, the least element
    outside the subgroup generated so far."""
    index, orders = G._ensure_index(), G.element_orders()
    images = [x.images for x in G.elements]
    candidates = [i for i in range(1, G.order) if m % orders[i] == 0]
    base, base_gens = seed
    max_gens = len(base_gens) + ceil(log2(m // len(base)))

    def closure(clo: FrozenSet[int], moves: List[Callable], e: int) -> Optional[FrozenSet[int]]:
        # <clo, e> for clo = <gens>, moves the right multiplications by gens and
        # then e, grown from clo by right cosets clo * y, y = r * g, composed on
        # image tuples; None past m elements or at a new element below e (not
        # canonical).
        seen = set(clo)
        reps = [images[0]]
        for r in reps:
            for times_g in moves:
                y = times_g(r)
                if index[y] not in seen:
                    times_y = _times(y)
                    coset = [index[times_y(images[c])] for c in clo]
                    if len(seen) + len(coset) > m or min(coset) < e:
                        return None
                    seen.update(coset)
                    reps.append(y)
        return frozenset(seen)

    def extend(clo: FrozenSet[int], gens: Tuple[int, ...], start: int) -> Iterator[_Found]:
        moves = [_times(images[g]) for g in gens]
        for pos in range(start, len(candidates)):
            e = candidates[pos]
            if e in clo:
                continue
            new = closure(clo, moves + [_times(images[e])], e)
            if new is None or m % len(new):
                continue
            if len(new) == m:
                # Unseeded, the canonical chain is the greedy generating set
                # that group_from_elements would pick from the sorted elements.
                yield new, gens + (e,)
            elif len(gens) + 1 < max_gens:
                yield from extend(new, gens + (e,), pos + 1)

    try:
        yield from extend(base, base_gens, 0)
    finally:
        del extend  # break the self-reference even if the caller stops early


def _conjugation_rows(G: PermGroup) -> List[List[int]]:
    """One row x -> g x g^-1 on element indices per distinct generator g, with
    g x g^-1 = g o (x o g^-1) on image tuples.  The identity moves nothing;
    skipping it also keeps degree 1 off itemgetter's single-index form."""
    index, rows = G._ensure_index(), []
    for g in dict.fromkeys(G.generators):
        if g != G.identity:
            shifted, times_ginv = (0,) + g.images, _times(g.inverse().images)
            rows.append([index[itemgetter(*times_ginv(x.images))(shifted)]
                         for x in G.elements])
    return rows


def conjugacy_classes(G: PermGroup) -> Tuple[Tuple[Permutation, ...], ...]:
    """Conjugacy classes as canonically sorted element tuples, identity class
    first; computed once per group."""
    if G._classes is not None:
        return G._classes
    elems, rows = G.elements, _conjugation_rows(G)
    seen = bytearray(len(elems))
    classes: List[Tuple[Permutation, ...]] = []
    for i in range(len(elems)):
        if seen[i]:
            continue
        seen[i] = 1
        orbit = [i]
        for y in orbit:
            for row in rows:
                z = row[y]
                if not seen[z]:
                    seen[z] = 1
                    orbit.append(z)
        orbit.sort()
        classes.append(tuple([elems[j] for j in orbit]))
    object.__setattr__(G, "_classes", tuple(classes))
    return G._classes


def _core(G: PermGroup, keep: Callable[[int], bool], base: PermGroup) -> PermGroup:
    """Largest normal subgroup M >= ``base`` whose index |M|/|base| satisfies
    the divisor-closed ``keep``, joined from ``base`` one class x^G at a time
    when <core, x^G> passes.  A class failing on its own fails in any larger
    join, since <base, x^G> lies in it and its index divides the join's."""
    limit = base.order * max(d for d in divisors(G.order // base.order) if keep(d))
    core = base
    for cls in (G._classes or conjugacy_classes(G))[1:]:
        if cls[0] not in core:
            try:
                M = close(core.generators + cls, cap=limit)
            except CapExceededError:
                continue
            if keep(M.order // base.order):
                core = M
    return core


def _pi_keeps(pi: PiSet) -> Tuple[Callable[[int], bool], Callable[[int], bool]]:
    """Order tests of the pi-core and of the pi'-core."""
    return (lambda n: pi.issuperset(prime_divisors(n)),
            lambda n: pi.isdisjoint(prime_divisors(n)))


def core_pi(G: PermGroup, pi: PiSet) -> PermGroup:
    """Largest normal subgroup whose order is supported on the primes in pi."""
    return _core(G, _pi_keeps(pi)[0], trivial_group(G.degree))


def core_pi_complement(G: PermGroup, pi: PiSet) -> PermGroup:
    """Largest normal subgroup whose order avoids every prime in pi."""
    return _core(G, _pi_keeps(pi)[1], trivial_group(G.degree))


def is_pi_separable(G: PermGroup, pi: PiSet) -> bool:
    """Whether the upper pi-series 1 <= O_pi(G) <= O_pi,pi'(G) <= ... reaches G.

    Every term is a normal subgroup of G, grown from the one before by the
    pi- and pi'-cores in turn (a core cannot grow the term it just made), so
    G's classes, computed once here, serve every level.  G is not
    pi-separable when neither core grows the last term."""
    conjugacy_classes(G)
    keeps = _pi_keeps(pi)
    base, side, stalled = trivial_group(G.degree), 0, 0
    while base.order < G.order and stalled < 2:
        M = _core(G, keeps[side], base)
        stalled = stalled + 1 if M.order == base.order else 0
        base, side = M, 1 - side
    return base.order == G.order


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
