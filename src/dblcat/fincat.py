"""Finite categories, functors, natural transformations, limits and comma
categories, all represented by explicit tables and decided by exhaustive
enumeration.

Objects and morphisms are interned string identifiers.  The order in which
they are listed is a total order that every enumeration below respects, so
all constructions are deterministic.

One mechanism keeps a value computed from an instance: ``derived``
computes it on its first read and stores it on the instance, such as a
category's indexes, a functor's or a profunctor's hash, a profunctor's
elements or a cell's key.  Every FinCategory indexes its morphisms by both
endpoints (``hom``), by target (``into``) and by source (``out_of``), so
a category that is only counted, such as a tabulation's, indexes none.
Each index lists morphisms in the interned order, so iterating an index
visits exactly the morphisms, and in the order, that a filtered scan of
``morphisms`` would.

A table that an instance may be built without is read the same way:
``first_read`` puts an ``OnFirstRead`` on the class for each table it
names, ``FinCategory.table`` here, the action tables of ``prof`` and
``spanfin``, and the top boundary and components of a ``prof.Cell``, and
``deferred`` makes an instance without them, which builds each on its
first read.  An instance built with its tables is of the same class and
never reaches the descriptor.  One rule, ``equal_before_read``, compares
them, an unread instance with one built with its tables included.
``category_of_elements`` defers its composition table, and
``tab.tabulate`` and ``tab.comma_object`` their defining cells, with the
unit of their category, so ``dcat comma`` and ``dcat tabulate
--skip-verify``, which read a tabulation or comma object for its objects
and arrows, build none of them.

One search, ``backtrack``, backs every enumerator: ``all_functors``,
``all_natural_transformations``, ``all_cones`` and ``find_isomorphism``
here, ``prof.cells_between``, the families of ``prof.rhom`` and
``spanfin.all_internal_transformations``.  It files its checks by the
last position each reads (``file_checks``), then searches (``search``);
``all_functors`` and ``find_isomorphism`` file the composite checks of
their arrow phase (``FunctorNetwork``) once per enumeration and search
them once per object map, and ``kan.RanProblem.competitors`` extends the
same network with the components of a cell.  The generate-then-test
loops it replaced are oracles in ``tests/helpers.py``:
``all_functors_oracle``,
``all_natural_transformations_oracle``, ``all_cones_oracle``,
``limit_oracle``, ``find_isomorphism_oracle``, ``cells_between_oracle``,
``rhom_families_oracle`` and ``internal_transformations_oracle``.

``lift_counts`` is the two-dimensional stage of both tabulation
verifiers, in functors and natural transformations only.

Functors, natural transformations and cones hash their images listed
along the source (``source.objects``, then ``source.morphisms``), which
equal values list alike, so nothing is sorted; a functor keeps its hash
(``derived``).
Memos and groupings (``filed``) key by these objects.

One memo per decision: ``decision`` marks an entry point that decides a
property, and ``construction`` a function that one decision builds once
per distinct arguments, such as ``identity_functor``, ``compose_functors``,
``all_functors`` and ``all_natural_transformations`` here, the units,
composites and naturality plans of ``prof``, and the units of ``spanfin``.
The memo is dropped when the outermost decision returns or raises.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from functools import partial, wraps
from itertools import combinations
from operator import attrgetter


class NoLimit(Exception):
    """The target category lacks the limit of the given diagram."""


class OnFirstRead:
    """A table attribute of a ``first_read`` class, as a non-data
    descriptor that ``first_read`` puts on the class.  A read finds the
    table in the instance ``__dict__`` first, as an instance built with
    its tables always does, and reaches ``__get__`` only when it is
    missing: on the first read of a table of an instance made by
    ``deferred``, whose ``_tables`` hook builds it, given the attribute's
    name, and keeps it there.  Once every table that the class names in
    ``first_read`` is built, the hook is dropped with the data it holds.
    The class's ``__eq__`` is ``equal_before_read``."""

    def __init__(self, attr):
        self.attr = attr

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        kept = obj.__dict__
        table = kept[self.attr] = obj._tables(self.attr)
        if kept.keys() >= obj._first_read:
            del kept["_tables"]
        return table


class derived:
    """A value derived from an instance, computed on its first read and
    stored on the instance by ``object.__setattr__``, which a frozen
    dataclass allows, where every later read finds it.  It is
    ``functools.cached_property`` without the lock that CPython 3.11's
    takes on each first read, which costs more than most values here take
    to compute, and without writing ``obj.__dict__``, which on CPython
    3.11 moves an instance's attributes into a dict for good and slows
    every later read of them.  dblcat runs one decision at a time, in one
    thread."""

    def __init__(self, func):
        self.func, self.attr, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.attr, value)
        return value


def equal_before_read(self, other):
    """The ``__eq__`` of a ``first_read`` class: ``self is other`` before
    any table is read, then the compared fields in declaration order,
    those built with the instance before its tables, which come last and
    are read only when the others are equal.  An instance made by
    ``deferred`` is of the same class as one built with its tables, so
    the two compare.  Two representable profunctors that record equal
    ``_represents``, (C, f, g), are equal unread."""
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    rep = getattr(self, "_represents", None)
    if rep is not None and rep == getattr(other, "_represents", None):
        return True
    built, tables = self._compared
    return built(self) == built(other) and tables(self) == tables(other)


def first_read(*tables):
    """Mark a dataclass whose fields ``tables``, the last that its equality
    compares, an instance made by ``deferred`` builds on their first read:
    the class holds an ``OnFirstRead`` per table, its ``__eq__`` is
    ``equal_before_read``, which reads the getters kept here as
    ``_compared``, and its ``_tables`` is None, as an instance's is once
    it has every table."""
    def mark(cls):
        names = tuple(f.name for f in fields(cls) if f.compare)
        cls._first_read, cls._tables, cls.__eq__ = frozenset(tables), None, \
            equal_before_read
        cls._compared = (attrgetter(*[n for n in names if n not in tables]),
                         attrgetter(*tables))
        for attr in tables:
            setattr(cls, attr, OnFirstRead(attr))
        return cls
    return mark


def deferred(cls, tables, **fields):
    """An instance of the ``first_read`` dataclass ``cls``, built with
    ``fields`` and without the tables it names: ``tables(attr)``, kept as
    its ``_tables`` hook, builds the table ``attr`` on its first read
    (``OnFirstRead``)."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields, _tables=tables)
    return obj


# the constructions of the running decision, if any: one memo per process,
# as dblcat runs one decision at a time
_memo = None
_name = attrgetter("name")


def decision(decide):
    """Mark ``decide`` as a decision: while it runs, each construction is
    built once per distinct arguments.  A decision called inside another
    shares the outer one's memo, which is dropped when the outermost
    decision returns or raises, so nothing outlives a decision."""
    @wraps(decide)
    def decided(*args, **kwargs):
        global _memo
        if _memo is not None:
            return decide(*args, **kwargs)
        _memo = {}
        try:
            return decide(*args, **kwargs)
        finally:
            _memo = None

    return decided


def construction(build):
    """Mark ``build`` as a construction: within a decision, it is built
    once per distinct arguments, keyed by each argument's name and value,
    so that equal arguments share a result and its names stay exact.  A
    hit returns the same object, which callers must not mutate.  Outside
    any decision it is a plain call.  Each build calls ``__wrapped__``, so
    a test can count builds by replacing it."""
    @wraps(build)
    def built(*args):
        memo = _memo
        if memo is None:
            return built.__wrapped__(*args)
        key = (built, *map(_name, args), *args)
        try:
            return memo[key]
        except KeyError:
            found = memo[key] = built.__wrapped__(*args)
            return found

    return built


@first_read("table")
@dataclass(frozen=True, eq=True)
class FinCategory:
    """A finite category with a total composition table.

    ``src``/``tgt`` assign endpoints to morphisms, ``identities`` maps each
    object to its identity morphism and ``table[(g, f)]`` is the composite
    ``g . f`` (``f`` first), defined exactly when ``tgt[f] == src[g]``.
    A category made by ``deferred`` (``category_of_elements``) builds its
    table on its first read (``OnFirstRead``) and keeps it in the instance
    ``__dict__``, where a category built with its table keeps it.

    Equality (``equal_before_read``) compares objects, morphisms, ``src``,
    ``tgt``, identities and the table.  The hash is ``(objects,
    morphisms)``.

    ``hom(a, b)``, ``into(b)`` and ``out_of(a)`` read the indexes
    ``_hom``, ``_into`` and ``_out_of``, each ``derived`` by ``_index``
    from ``src`` and ``tgt``, which must not change afterwards, on its
    first read.  Each lists morphisms in the interned order of
    ``morphisms``.  The indexes are not fields: they take no part in
    equality, hashing or repr.
    """

    name: str = field(compare=False)
    objects: tuple
    morphisms: tuple
    src: dict
    tgt: dict
    identities: dict
    table: dict

    @derived
    def _hom(self):
        ms = self.morphisms
        # .get, here and below: validate_category reports endpoints that
        # are missing
        return _index(zip(map(self.src.get, ms), map(self.tgt.get, ms)), ms)

    @derived
    def _into(self):
        return _index(map(self.tgt.get, self.morphisms), self.morphisms)

    @derived
    def _out_of(self):
        return _index(map(self.src.get, self.morphisms), self.morphisms)

    def __hash__(self):
        return hash((self.objects, self.morphisms))

    def identity(self, obj):
        return self.identities[obj]

    def is_identity(self, m):
        return self.identities.get(self.src[m]) == m

    def compose(self, g, f):
        """Composite ``g . f``, with ``f`` applied first."""
        if self.tgt[f] != self.src[g]:
            raise ValueError(f"morphisms not composable: {g} . {f}")
        return self.table[(g, f)]

    def hom(self, a, b):
        """Morphisms a -> b, in the interned order."""
        return self._hom.get((a, b), ())

    def into(self, b):
        """Morphisms with target b, in the interned order."""
        return self._into.get(b, ())

    def out_of(self, a):
        """Morphisms with source a, in the interned order."""
        return self._out_of.get(a, ())

    def composable_pairs(self):
        """Every pair (g, f) with ``tgt[f] == src[g]``: g in the interned
        order, then f in the interned order."""
        return [(g, f) for g in self.morphisms for f in self.into(self.src[g])]


def _index(keys, morphisms):
    """The ``morphisms`` filed under their ``keys``, each key's in the
    interned order."""
    index = {}
    for k, m in zip(keys, morphisms):
        index.setdefault(k, []).append(m)
    return {k: tuple(v) for k, v in index.items()}


def validate_category(cat):
    """Check the category axioms; returns a list of violations (empty for a
    valid category).  The violations come in the order of a check of every
    pair of morphisms (``helpers.validate_category_oracle``): identities,
    endpoints, then the composites g . f, g and then f in the interned
    order, then unit laws and associativity.  The composites checked are
    those of the composable pairs, read from the ``into`` index, and those
    the table defines: a row g whose table defines a pair that is not
    composable is checked against every f.  No other pair can be at
    fault."""
    problems = []
    table = cat.table
    for o in cat.objects:
        i = cat.identities.get(o)
        if i is None:
            problems.append(f"object {o} has no identity")
        elif cat.src.get(i) != o or cat.tgt.get(i) != o:
            problems.append(f"identity of {o} is not an endomorphism")
    for m in cat.morphisms:
        if cat.src.get(m) not in cat.objects or cat.tgt.get(m) not in cat.objects:
            problems.append(f"morphism {m} has endpoints outside the category")
    src, tgt, known = cat.src, cat.tgt, set(cat.morphisms)
    stray = {g for g, f in table if tgt.get(f) != src.get(g)}
    for g in cat.morphisms:
        a = src.get(g)
        for f in cat.morphisms if g in stray else cat.into(a):
            defined = (g, f) in table
            composable = tgt.get(f) == a
            if composable and not defined:
                problems.append(f"composite {g} . {f} missing")
            elif defined and not composable:
                problems.append(f"composite {g} . {f} defined but not composable")
            elif defined:
                h = table[(g, f)]
                if h not in known:
                    problems.append(f"composite {g} . {f} = {h} unknown")
                elif cat.src[h] != cat.src[f] or cat.tgt[h] != cat.tgt[g]:
                    problems.append(f"composite {g} . {f} = {h} ill-typed")
    for f in cat.morphisms:
        if cat.src.get(f) in cat.identities:
            i = cat.identities[cat.src[f]]
            if table.get((f, i)) != f:
                problems.append(f"right unit law fails for {f}")
        if cat.tgt.get(f) in cat.identities:
            i = cat.identities[cat.tgt[f]]
            if table.get((i, f)) != f:
                problems.append(f"left unit law fails for {f}")
    for h in cat.morphisms:
        for g in cat.into(cat.src.get(h)):
            for f in cat.into(cat.src.get(g)):
                try:
                    left = table[(table[(h, g)], f)]
                    right = table[(h, table[(g, f)])]
                except KeyError:
                    continue
                if left != right:
                    problems.append(f"associativity fails on ({h}, {g}, {f})")
    return problems


def make_category(name, objects, arrows, composites=None):
    """Build a FinCategory from generators-with-all-composites data.

    ``arrows`` maps a non-identity morphism id to ``(src, tgt)``;
    ``composites`` maps pairs ``(g, f)`` to their composite id (identity
    composites are filled in automatically).
    """
    objects, morphisms, src, tgt, identities = _presented(objects, arrows)
    table = _unit_entries(identities, arrows)
    if composites:
        table.update(composites)
    return FinCategory(name, objects, morphisms, src, tgt, identities, table)


def _presented(objects, arrows):
    """The objects, morphisms (identities ``1_<o>`` first, then
    ``arrows``), ``src``, ``tgt`` and identities of the category with these
    objects and non-identity ``arrows``."""
    objects = tuple(objects)
    identities = {o: f"1_{o}" for o in objects}
    src = {}
    tgt = {}
    for o in objects:
        src[identities[o]] = o
        tgt[identities[o]] = o
    for m, (a, b) in arrows.items():
        src[m] = a
        tgt[m] = b
    morphisms = tuple(identities[o] for o in objects) + tuple(arrows)
    return objects, morphisms, src, tgt, identities


def _unit_entries(identities, arrows):
    """The entries of a composition table that an identity takes part in:
    i . i for each identity i, then m . 1 and 1 . m for each arrow m."""
    table = {(i, i): i for i in identities.values()}
    for m, (a, b) in arrows.items():
        table[(m, identities[a])] = m
        table[(identities[b], m)] = m
    return table


@dataclass(frozen=True, eq=True)
class Functor:
    name: str = field(compare=False)
    source: FinCategory
    target: FinCategory
    obj: dict
    mor: dict

    @derived
    def _hash(self):
        return hash((*map(self.obj.get, self.source.objects),
                     *map(self.mor.get, self.source.morphisms)))

    def __hash__(self):
        return self._hash

    def __call__(self, m):
        return self.mor[m]

    def validate(self):
        problems = []
        cat, dst = self.source, self.target
        for a in cat.objects:
            if self.obj.get(a) not in dst.objects:
                problems.append(f"object {a} not mapped into target")
        for m in cat.morphisms:
            fm = self.mor.get(m)
            if fm not in dst.morphisms:
                problems.append(f"morphism {m} not mapped into target")
                continue
            if dst.src[fm] != self.obj[cat.src[m]] or dst.tgt[fm] != self.obj[cat.tgt[m]]:
                problems.append(f"image of {m} has wrong endpoints")
        if problems:        # the laws below compose the images
            return problems
        for o in cat.objects:
            if self.mor.get(cat.identity(o)) != dst.identity(self.obj[o]):
                problems.append(f"identity of {o} not preserved")
        for g, f in cat.composable_pairs():
            if self.mor.get(cat.compose(g, f)) != dst.compose(self.mor[g], self.mor[f]):
                problems.append(f"composition not preserved on ({g}, {f})")
        return problems


@construction
def identity_functor(cat):
    return Functor(f"Id_{cat.name}", cat, cat,
                   {o: o for o in cat.objects},
                   {m: m for m in cat.morphisms})


@construction
def compose_functors(g, f):
    """Composite functor ``g . f`` (``f`` applied first)."""
    if f.target != g.source:
        raise ValueError("functors not composable")
    return Functor(f"{g.name}.{f.name}", f.source, g.target,
                   {a: g.obj[f.obj[a]] for a in f.source.objects},
                   {m: g.mor[f.mor[m]] for m in f.source.morphisms})


@dataclass(frozen=True, eq=True)
class NatTransf:
    """Natural transformation between parallel functors, as a component table."""

    source: Functor
    target: Functor
    components: dict

    def __hash__(self):
        return hash(tuple(map(self.components.get, self.source.source.objects)))

    def __call__(self, a):
        return self.components[a]

    def validate(self):
        problems = []
        f, g = self.source, self.target
        cat, dst = f.source, f.target
        for a in cat.objects:
            c = self.components.get(a)
            if c is None or dst.src.get(c) != f.obj[a] or dst.tgt.get(c) != g.obj[a]:
                problems.append(f"component at {a} ill-typed")
        if problems:        # the squares below compose the components
            return problems
        for m in cat.morphisms:
            a, b = cat.src[m], cat.tgt[m]
            if dst.compose(self.components[b], f.mor[m]) != \
                    dst.compose(g.mor[m], self.components[a]):
                problems.append(f"naturality fails at {m}")
        return problems


@dataclass(frozen=True, eq=True)
class Cone:
    """Cone from an apex to a diagram: one leg per diagram object."""

    diagram: Functor
    apex: str
    legs: dict

    def __hash__(self):
        return hash((self.apex,
                     *map(self.legs.get, self.diagram.source.objects)))

    def validate(self):
        problems = []
        d = self.diagram
        shape, dst = d.source, d.target
        for i in shape.objects:
            leg = self.legs.get(i)
            if leg is None or dst.src.get(leg) != self.apex or dst.tgt.get(leg) != d.obj[i]:
                problems.append(f"leg at {i} ill-typed")
        if problems:        # the cone conditions compose the legs
            return problems
        for v in shape.morphisms:
            i, j = shape.src[v], shape.tgt[v]
            if dst.compose(d.mor[v], self.legs[i]) != self.legs[j]:
                problems.append(f"cone condition fails at {v}")
        return problems


def backtrack(domains, pairs=(), triples=()):
    """Every tuple with one value from each of ``domains`` that passes
    every check, lazily and in lexicographic order: ``search`` on the
    checks as ``file_checks`` files them.

    A pair check ``(i, o, allowed)`` passes when ``pick[o] in
    allowed[pick[i]]``, a triple check ``(i, k, o, table)`` when
    ``table[pick[i], pick[k]] == pick[o]``.  Each is tested as soon as the
    last position it reads is bound, so no assignment failing it is
    extended: chronological backtracking on a network of binary and
    ternary relations (Mackworth 1977, "Consistency in networks of
    relations").
    """
    return search(domains, file_checks(pairs, triples))


def file_checks(pairs=(), triples=()):
    """The checks of a search, filed by the last position each reads: a
    dict from position to its pair and triple checks.  A caller that runs
    one network of checks over many domains files it once."""
    filed = {}
    for check in pairs:
        filed.setdefault(max(check[0], check[1]), ([], []))[0].append(check)
    for check in triples:
        filed.setdefault(max(check[0], check[1], check[2]),
                         ([], []))[1].append(check)
    return filed


def search(domains, filed):
    """``backtrack`` on checks filed by ``file_checks``, which must read no
    position beyond ``domains``."""
    size = len(domains)
    if size == 0:
        yield ()
        return
    unchecked = ((), ())
    pick, values = [None] * size, [None] * size
    n = 0
    values[0] = iter(domains[0])    # the untried rest of each domain
    while n >= 0:
        pairs_n, triples_n = filed.get(n, unchecked)
        for y in values[n]:
            pick[n] = y
            for i, o, allowed in pairs_n:
                if pick[o] not in allowed[pick[i]]:
                    break
            else:
                for i, k, o, table in triples_n:
                    if table[pick[i], pick[k]] != pick[o]:
                        break
                else:
                    break           # y passes
        else:
            n -= 1                  # n is exhausted: back up
            continue
        if n == size - 1:
            yield tuple(pick)
        else:
            n += 1
            values[n] = iter(domains[n])


def all_cones(diagram):
    """Every cone over the diagram: apexes in the object order of the
    target, then legs in the lexicographic order of their hom-sets along
    the shape's objects.  The condition d(v) . leg_i == leg_j of each
    non-identity v : i -> j is a pair check on the two legs."""
    shape, dst = diagram.source, diagram.target
    objs = shape.objects
    pos = {i: n for n, i in enumerate(objs)}
    arrows = [(pos[shape.src[v]], pos[shape.tgt[v]], diagram.mor[v])
              for v in shape.morphisms if not shape.is_identity(v)]
    cones = []
    for m in dst.objects:
        homs = [dst.hom(m, diagram.obj[i]) for i in objs]
        if all(homs):
            cones += [Cone(diagram, m, dict(zip(objs, legs))) for legs in
                      backtrack(homs, [(i, o, {leg: (dst.table[(dv, leg)],)
                                               for leg in homs[i]})
                                       for i, o, dv in arrows])]
    return cones


def mediating_morphisms(terminal, cone, stop=None):
    """Morphisms apex(cone) -> apex(terminal) commuting with all legs, in
    hom order; with ``stop``, at most that many."""
    dst = terminal.diagram.target
    found = []
    for t in dst.hom(cone.apex, terminal.apex):
        if all(dst.compose(terminal.legs[i], t) == cone.legs[i]
               for i in terminal.diagram.source.objects):
            found.append(t)
            if len(found) == stop:
                break
    return found


def is_terminal(cand, cones):
    """Whether every one of ``cones`` factors through ``cand`` by exactly
    one mediating morphism; each count stops at its second mediator."""
    return all(len(mediating_morphisms(cand, c, stop=2)) == 1 for c in cones)


def limit(diagram):
    """The first terminal cone over the diagram in the order of
    ``all_cones``, or raise NoLimit."""
    cones = all_cones(diagram)
    for cand in cones:
        if is_terminal(cand, cones):
            return cand
    raise NoLimit(f"no limit of {diagram.name}")


def category_of_elements(name, ac, bc, triples, act_right, act_left):
    """The category ``name`` of the ``triples`` (a, x, b), in the order
    given, with ids ``(a,x,b)``.  An arrow (u, v) : (a1, x1, b1) ->
    (a2, x2, b2) is a pair u : a1 -> a2 in A, v : b1 -> b2 in B with
    ``act_right(a1, b1, x1, v) == act_left(u, a2, b2, x2)``.

    Arrows are named ``[u,v]:s->t`` and listed by source triple, then
    target triple, then u and v in hom order.  Each triple is moved once
    per acting arrow: x . v for each v out of its B-endpoint, filed under
    v's target and x . v, and u . x for each u into its A-endpoint, filed
    under u's source.  The arrows from t1 to t2 are then a join: each u
    into a2 out of a1 meets the v out of b1 that move x1 where u moves x2.
    The targets are those whose endpoints both of t1's reach, read once
    from ``out_of`` per pair of them.  Identities are implicit;
    composites are componentwise.

    The category is built with its objects and arrows, and without its
    indexes, each built on its first read (``derived``), or its
    composition table, which ``_elements_table`` builds on its first read
    (``OnFirstRead``), in the order ``make_category`` and
    ``composable_pairs`` give.  Returns the category, its projections
    ``pl_<name>`` to A and ``pr_<name>`` to B, and the triple of each
    object id.
    """
    ids = [f"({a},{x},{b})" for a, x, b in triples]
    asrc, btgt, into_a, out_of_b = ac.src, bc.tgt, ac.into, bc.out_of
    rights, lefts = [], []      # per triple, its moves
    for a, x, b in triples:
        moved = {}
        for v in out_of_b(b):
            moved.setdefault((btgt[v], act_right(a, b, x, v)), []).append(v)
        rights.append(moved)
        moved = {}
        for u in into_a(a):
            moved.setdefault(asrc[u], []).append((u, act_left(u, a, b, x)))
        lefts.append(moved)
    from_a = {a: {ac.tgt[u] for u in ac.out_of(a)} for a in ac.objects}
    from_b = {b: {btgt[v] for v in out_of_b(b)} for b in bc.objects}
    objects, _, src, tgt, identities = _presented(ids, {})
    pl_obj = {o: a for o, (a, _, _) in zip(ids, triples)}
    pr_obj = {o: b for o, (_, _, b) in zip(ids, triples)}
    pl_mor = {identities[o]: ac.identities[pl_obj[o]] for o in objects}
    pr_mor = {identities[o]: bc.identities[pr_obj[o]] for o in objects}
    reach = {}      # (a1, b1) -> the triples both endpoints reach
    arrows = []
    for k1, (a1, _, b1) in enumerate(triples):
        if (a1, b1) not in reach:
            ra, rb = from_a[a1], from_b[b1]
            reach[(a1, b1)] = [k for k, (a, _, b) in enumerate(triples)
                               if a in ra and b in rb]
        s, right = ids[k1], rights[k1]
        unit = ac.identities[a1], bc.identities[b1]
        for k2 in reach[(a1, b1)]:
            t, b2 = ids[k2], triples[k2][2]
            for u, moved in lefts[k2][a1]:
                for v in right.get((b2, moved), ()):
                    if k1 == k2 and (u, v) == unit:
                        continue
                    m = f"[{u},{v}]:{s}->{t}"
                    arrows.append(m)
                    src[m], tgt[m], pl_mor[m], pr_mor[m] = s, t, u, v
    cat = deferred(FinCategory, partial(_elements_table, ac, bc, identities,
                                        arrows, src, tgt, pl_mor, pr_mor),
                   name=name, objects=objects,
                   morphisms=(*identities.values(), *arrows), src=src,
                   tgt=tgt, identities=identities)
    return (cat, Functor(f"pl_{name}", cat, ac, pl_obj, pl_mor),
            Functor(f"pr_{name}", cat, bc, pr_obj, pr_mor),
            dict(zip(ids, triples)))


def _elements_table(ac, bc, identities, arrows, src, tgt, pl, pr, attr):
    """The composition table of a ``category_of_elements`` with these
    ``arrows``, endpoints and projections: the unit entries, then each
    arrow m2 after each arrow into its source, in ``composable_pairs``
    order, as the morphism whose endpoints and projections are the
    composite's."""
    index = {(o, o, pl[i], pr[i]): i for o, i in identities.items()}
    into = {o: [] for o in identities}      # (arrow, source, u, v), in order
    for m in arrows:
        s, t, u, v = src[m], tgt[m], pl[m], pr[m]
        index[(s, t, u, v)] = m
        into[t].append((m, s, u, v))
    table = _unit_entries(identities, {m: (src[m], tgt[m]) for m in arrows})
    # composable by construction, so the tables are read unchecked; a
    # composite missing from the index raises KeyError
    atable, btable = ac.table, bc.table
    for m2 in arrows:
        s2, t2, u2, v2 = src[m2], tgt[m2], pl[m2], pr[m2]
        for m1, s1, u1, v1 in into[s2]:
            table[(m2, m1)] = index[(s1, t2, atable[(u2, u1)],
                                     btable[(v2, v1)])]
    return table


@dataclass(frozen=True, eq=True)
class CommaCategory:
    category: FinCategory
    proj_left: Functor
    proj_right: Functor
    # canonical component f(proj_left x) -> g(proj_right x), per object x
    components: dict


def comma_category(f, g):
    """The comma category of ``f : C -> E`` and ``g : D -> E``.

    Objects are the triples (c, u, d) with ``u : f c -> g d``, listed by c,
    then d, then u in hom order; morphisms are the pairs (p, q) with
    g(q) . u == u2 . f(p), listed as ``category_of_elements`` lists them.
    """
    if f.target != g.target:
        raise ValueError("comma requires a common target")
    ccat, dcat, ecat = f.source, g.source, f.target
    triples = [(c, u, d) for c in ccat.objects for d in dcat.objects
               for u in ecat.hom(f.obj[c], g.obj[d])]
    # every pair composed below is composable by construction, so the
    # table is read unchecked
    cat, pl, pr, triple = category_of_elements(
        f"{f.name}/{g.name}", ccat, dcat, triples,
        lambda c, d, u, q: ecat.table[(g.mor[q], u)],
        lambda p, c, d, u: ecat.table[(u, f.mor[p])])
    return CommaCategory(cat, pl, pr, {o: t[1] for o, t in triple.items()})


def is_connected(cat):
    """Nonempty, and one component in the undirected object graph."""
    if not cat.objects:
        return False
    seen = {cat.objects[0]}
    frontier = [cat.objects[0]]
    while frontier:
        o = frontier.pop()
        neighbours = [cat.tgt[m] for m in cat.out_of(o)] + \
            [cat.src[m] for m in cat.into(o)]
        for b in neighbours:
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return len(seen) == len(cat.objects)


@construction
def all_functors(a, m):
    """Every functor a -> m, named F0, F1, ... in a fixed order.

    The order is lexicographic: first in the object map, listed along
    ``a.objects`` with values in ``m.objects`` order, then in the images of
    the non-identity arrows, listed along ``a.morphisms`` with values in
    hom order.  Witness names such as ``F3`` depend on it.  ``obj`` and
    ``mor`` are keyed in that listing order, identities first in ``mor``.
    An object map is dropped as soon as some arrow between two bound
    objects has an empty hom-set in m.
    """
    net = FunctorNetwork(a, m)
    return [Functor(f"F{n}", a, m, obj, mor) for n, (obj, mor) in
            enumerate(_functor_maps(a, net, [m.objects] * len(a.objects),
                                    net.reach))]


class FunctorNetwork:
    """The checks of a search for the functors a -> m, in two phases.

    The object phase binds the images of ``a.objects``; ``reach`` holds a
    pair check per arrow between two distinct objects, which says that
    the target's image is reachable from the source's.  The arrow phase
    binds the images of ``arrows``, the identities along ``a.objects``
    and then the other arrows along ``a.morphisms``, each within its
    hom-set (``homs``), with a triple check per composite g . f = h of
    non-identity arrows in ``composites`` (the unit laws cover the rest);
    ``at`` is each arrow's position.  Both phases depend on a and m alone,
    so a search that enumerates functors, or binds more positions after
    their arrows, files them once for every object map.
    """

    def __init__(self, a, m):
        pos = {o: n for n, o in enumerate(a.objects)}
        reach = {v: {m.tgt[u] for u in m.out_of(v)} for v in m.objects}
        self.reach = [(pos[a.src[x]], pos[a.tgt[x]], reach)
                      for x in a.morphisms if a.src[x] != a.tgt[x]]
        nonids = [x for x in a.morphisms if not a.is_identity(x)]
        self.arrows = tuple(a.identity(o) for o in a.objects) + tuple(nonids)
        at = self.at = {x: n for n, x in enumerate(self.arrows)}
        self.composites = [
            (at[g], at[f], at[a.table[(g, f)]], m.table)
            for g in nonids for f in a.into(a.src[g]) if not a.is_identity(f)]
        self._ends = [(pos[a.src[x]], pos[a.tgt[x]]) for x in nonids]
        self._units = {v: (m.identity(v),) for v in m.objects}
        self._hom = m.hom

    def homs(self, images):
        """The domains of the arrow phase for the object images listed
        along ``a.objects``."""
        units, hom = self._units, self._hom
        return [units[v] for v in images] + \
            [hom(images[s], images[t]) for s, t in self._ends]


def _functor_maps(a, net, domains, pairs, arrow_pairs=()):
    """Lazily, in the order of ``all_functors``, the object and arrow maps
    of the functors a -> m whose object map along ``a.objects`` passes
    ``backtrack(domains, pairs)``, their arrows bound by a second search
    on ``net``, a ``FunctorNetwork(a, m)``, whose composite checks and the
    pair checks ``arrow_pairs`` on its positions are filed once per
    enumeration."""
    comps = file_checks(arrow_pairs, net.composites)
    for images in backtrack(domains, pairs):
        obj = dict(zip(a.objects, images))
        for mors in search(net.homs(images), comps):
            yield obj, dict(zip(net.arrows, mors))


def filed(items, key):
    """``items`` grouped under ``key(item)``, each group in item order."""
    groups = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


@construction
def all_natural_transformations(f, g):
    """Every natural transformation f => g between parallel functors, in
    the lexicographic order of the components listed along the source's
    objects, each in hom order.  The square g(x) . c_a == c_b . f(x) of
    each non-identity x : a -> b is a pair check on the components at a
    and b."""
    cat, table = f.source, f.target.table
    pos = {a: n for n, a in enumerate(cat.objects)}
    homs = [f.target.hom(f.obj[a], g.obj[a]) for a in cat.objects]
    squares = [(pos[cat.src[x]], pos[cat.tgt[x]], f.mor[x], g.mor[x])
               for x in cat.morphisms if not cat.is_identity(x)]
    squares = [(i, o, {c: [c2 for c2 in homs[o]
                           if table[(c2, fx)] == table[(gx, c)]]
                       for c in homs[i]}) for i, o, fx, gx in squares]
    return [NatTransf(f, g, dict(zip(cat.objects, comps)))
            for comps in backtrack(homs, squares)]


def lift_counts(configs, left, right, proj_left, proj_right):
    """The two-dimensional stage of a tabulation over a probe X: for each
    ordered pair (phi, psi) of ``configs`` (phi_a, phi_b, fac, at), the
    number of lifts of each square from phi to psi, in order.  ``at[x]``
    keys phi's element at each object x of X in J's actions:
    ``left[(u, *at[x])]`` and ``right[(*at[x], v)]``.  The 2-cells are
    natural transformations.  The squares (xi_a, xi_b) are a join over the
    objects of X: each xi_b is filed under phi(x) moved right by xi_b(x)
    and looked up by psi(x) moved left by xi_a(x); by psi's naturality and
    the action laws, the square at an object gives those at its arrows.  A
    lift xi : fac1 => fac2 is filed under its components' projections, so
    a square counts its lifts with one lookup."""
    pl, pr = proj_left.mor.get, proj_right.mor.get
    for phi_a, phi_b, fac1, phi_at in configs:
        objs = fac1.source.objects
        for psi_a, psi_b, fac2, psi_at in configs:
            xi_as = all_natural_transformations(phi_a, psi_a)
            if not xi_as:
                continue
            xi_bs = filed(all_natural_transformations(phi_b, psi_b),
                          lambda xi_b: tuple([
                              right[(*phi_at[x], xi_b(x))] for x in objs]))
            squares = [(xi_a, xi_b) for xi_a in xi_as
                       for xi_b in xi_bs.get(tuple([
                           left[(xi_a(x), *psi_at[x])] for x in objs]), ())]
            lifts = filed(all_natural_transformations(fac1, fac2)
                          if squares else (),
                          lambda xi: (tuple([pl(xi(x)) for x in objs]),
                                      tuple([pr(xi(x)) for x in objs])))
            for xi_a, xi_b in squares:
                yield len(lifts.get((tuple(map(xi_a, objs)),
                                     tuple(map(xi_b, objs))), ()))


def find_isomorphism(a, b):
    """A pair of mutually inverse functors a <-> b, or None: the first
    functor in the order of ``all_functors`` that is bijective with a
    functorial inverse.  Its object map is bound as a bijection that keeps
    the number of arrows each way between every two objects, and every two
    distinct parallel arrows take distinct images, so each hom-set maps
    bijectively: every functor found is an isomorphism."""
    if len(a.objects) != len(b.objects) or len(a.morphisms) != len(b.morphisms):
        return None

    def arrows(cat, x, y):
        return len(cat.hom(x, y)), len(cat.hom(y, x))

    # per count of arrows each way, each v of b to the w != v at that count
    related = {}
    for v in b.objects:
        for w in b.objects:
            if w != v:
                related.setdefault(arrows(b, v, w), defaultdict(set))[v].add(w)
    objs = a.objects
    doms = [[w for w in b.objects if len(b.hom(w, w)) == len(a.hom(o, o))]
            for o in objs]
    pairs = [(i, k, related.get(arrows(a, objs[i], o), defaultdict(set)))
             for k, o in enumerate(objs) for i in range(k)]
    net = FunctorNetwork(a, b)
    others = {y: set(b.hom(b.src[y], b.tgt[y])) - {y} for y in b.morphisms}
    distinct = [(net.at[x], net.at[y], others) for p in objs for q in objs
                for x, y in combinations(a.hom(p, q), 2)]
    for obj, mor in _functor_maps(a, net, doms, pairs, distinct):
        iso = Functor("iso", a, b, obj, mor)
        inverse = functor_inverse(iso)
        if inverse is not None:
            return iso, inverse
    return None


def functor_inverse(f):
    """The inverse of f if f is an isomorphism of categories, else None:
    the inverted tables, when f is bijective and they make a functor."""
    if len(set(f.obj.values())) != len(f.target.objects) or \
            len(set(f.mor.values())) != len(f.target.morphisms) or \
            len(f.source.objects) != len(f.target.objects) or \
            len(f.source.morphisms) != len(f.target.morphisms):
        return None
    inv = Functor(f"{f.name}~", f.target, f.source,
                  {v: k for k, v in f.obj.items()},
                  {v: k for k, v in f.mor.items()})
    return None if inv.validate() else inv
