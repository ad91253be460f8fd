"""Finite categories, functors, natural transformations, limits and comma
categories, all represented by explicit tables and decided by exhaustive
enumeration.

Objects and morphisms are interned string identifiers.  The order in which
they are listed is a total order that every enumeration below respects, so
all constructions are deterministic.

Every FinCategory indexes its morphisms once, when it is built: by both
endpoints (``hom``), by target (``into``) and by source (``out_of``).  Each
index lists morphisms in the interned order, so iterating an index visits
exactly the morphisms, and in the order, that a filtered scan of
``morphisms`` would.

One search, ``backtrack``, backs every enumerator: ``all_functors``,
``all_natural_transformations``, ``all_cones`` and ``find_isomorphism``
here, ``prof.cells_between``, the families of ``prof.rhom`` and
``spanfin.all_internal_transformations``.  It files its checks by the
last position each reads (``file_checks``), then searches (``search``);
``all_functors`` and ``find_isomorphism`` file the composite checks of
their arrow phase once per enumeration and search them once per object
map.  The generate-then-test loops it replaced are oracles in
``tests/helpers.py``: ``all_functors_oracle``,
``all_natural_transformations_oracle``, ``all_cones_oracle``,
``limit_oracle``, ``find_isomorphism_oracle``, ``cells_between_oracle``,
``rhom_families_oracle`` and ``internal_transformations_oracle``.

Functors, natural transformations and cones hash their images listed
along the source (``source.objects``, then ``source.morphisms``), which
equal values list alike, so nothing is sorted; a functor keeps its hash.
Memos and groupings (``filed``) key by these objects.

One memo per decision: ``decision`` marks an entry point that decides a
property, and ``construction`` a function that one decision builds once
per distinct arguments, such as ``all_functors`` here and the units,
composites and cell searches of ``prof``.  The memo is dropped when the
outermost decision returns or raises.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import wraps
from operator import attrgetter


class NoLimit(Exception):
    """The target category lacks the limit of the given diagram."""


@dataclass(frozen=True, eq=True)
class FinCategory:
    """A finite category with a stored total composition table.

    ``src``/``tgt`` assign endpoints to morphisms, ``identities`` maps each
    object to its identity morphism and ``table[(g, f)]`` is the composite
    ``g . f`` (``f`` first), defined exactly when ``tgt[f] == src[g]``.

    ``hom(a, b)``, ``into(b)`` and ``out_of(a)`` read indexes built once by
    ``__post_init__`` from ``src`` and ``tgt``, which must not change
    afterwards.  Each lists morphisms in the interned order of
    ``morphisms``.  The indexes are derived data: they take no part in
    equality, hashing or repr.
    """

    name: str = field(compare=False)
    objects: tuple
    morphisms: tuple
    src: dict
    tgt: dict
    identities: dict
    table: dict
    _hom: dict = field(init=False, compare=False, repr=False)
    _into: dict = field(init=False, compare=False, repr=False)
    _out_of: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        hom, into, out_of = {}, {}, {}
        for m in self.morphisms:
            # .get: validate_category reports endpoints that are missing
            a, b = self.src.get(m), self.tgt.get(m)
            hom.setdefault((a, b), []).append(m)
            into.setdefault(b, []).append(m)
            out_of.setdefault(a, []).append(m)
        for attr, index in (("_hom", hom), ("_into", into), ("_out_of", out_of)):
            object.__setattr__(self, attr,
                               {k: tuple(v) for k, v in index.items()})

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


def validate_category(cat):
    """Exhaustively check the category axioms; returns a list of violations
    (empty for a valid category)."""
    problems = []
    for o in cat.objects:
        i = cat.identities.get(o)
        if i is None:
            problems.append(f"object {o} has no identity")
        elif cat.src.get(i) != o or cat.tgt.get(i) != o:
            problems.append(f"identity of {o} is not an endomorphism")
    for m in cat.morphisms:
        if cat.src.get(m) not in cat.objects or cat.tgt.get(m) not in cat.objects:
            problems.append(f"morphism {m} has endpoints outside the category")
    for g in cat.morphisms:
        for f in cat.morphisms:
            defined = (g, f) in cat.table
            composable = cat.tgt.get(f) == cat.src.get(g)
            if composable and not defined:
                problems.append(f"composite {g} . {f} missing")
            elif defined and not composable:
                problems.append(f"composite {g} . {f} defined but not composable")
            elif defined:
                h = cat.table[(g, f)]
                if h not in cat.morphisms:
                    problems.append(f"composite {g} . {f} = {h} unknown")
                elif cat.src[h] != cat.src[f] or cat.tgt[h] != cat.tgt[g]:
                    problems.append(f"composite {g} . {f} = {h} ill-typed")
    for f in cat.morphisms:
        if cat.src.get(f) in cat.identities:
            i = cat.identities[cat.src[f]]
            if cat.table.get((f, i)) != f:
                problems.append(f"right unit law fails for {f}")
        if cat.tgt.get(f) in cat.identities:
            i = cat.identities[cat.tgt[f]]
            if cat.table.get((i, f)) != f:
                problems.append(f"left unit law fails for {f}")
    for h in cat.morphisms:
        for g in cat.into(cat.src.get(h)):
            for f in cat.into(cat.src.get(g)):
                try:
                    left = cat.table[(cat.table[(h, g)], f)]
                    right = cat.table[(h, cat.table[(g, f)])]
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
    table = {}
    for m in morphisms:
        table[(m, identities[src[m]])] = m
        table[(identities[tgt[m]], m)] = m
    if composites:
        table.update(composites)
    return FinCategory(name, objects, morphisms, src, tgt, identities, table)


@dataclass(frozen=True, eq=True)
class Functor:
    name: str = field(compare=False)
    source: FinCategory
    target: FinCategory
    obj: dict
    mor: dict

    def __hash__(self):
        # computed once, kept in the instance __dict__ rather than a field
        try:
            return self._hash
        except AttributeError:
            src = self.source
            object.__setattr__(self, "_hash", hash((
                *map(self.obj.get, src.objects),
                *map(self.mor.get, src.morphisms))))
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


def identity_functor(cat):
    return Functor(f"Id_{cat.name}", cat, cat,
                   {o: o for o in cat.objects},
                   {m: m for m in cat.morphisms})


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
    target triple, then u and v in hom order; the objects reachable from
    each endpoint are read once from ``out_of``, and the targets that both
    endpoints reach are listed once per pair of them.  Identities
    are implicit; composites are componentwise.  Each arrow is indexed
    under (source id, target id, u, v), and each identity under (s, s,
    1_a, 1_b), so that a composite is one lookup of its components; the
    table is filled along each arrow m2 and the arrows into its source,
    in ``composable_pairs`` order.  Returns the category, its projections
    ``pl_<name>`` to A and ``pr_<name>`` to B, and the triple of each
    object id.
    """
    ids = {t: f"({t[0]},{t[1]},{t[2]})" for t in triples}
    from_a = {a: {ac.tgt[u] for u in ac.out_of(a)} for a in ac.objects}
    from_b = {b: {bc.tgt[v] for v in bc.out_of(b)} for b in bc.objects}
    reach = {}      # (a1, b1) -> the triples both endpoints reach
    arrows, pair, index = {}, {}, {}
    into = {i: [] for i in ids.values()}    # (arrow, source, u, v), in order
    for t1 in triples:
        a1, x1, b1 = t1
        if (a1, b1) not in reach:
            ra, rb = from_a[a1], from_b[b1]
            reach[(a1, b1)] = [t for t in triples
                               if t[0] in ra and t[2] in rb]
        s = ids[t1]
        for t2 in reach[(a1, b1)]:
            a2, x2, b2 = t2
            t = ids[t2]
            for u in ac.hom(a1, a2):
                for v in bc.hom(b1, b2):
                    if act_right(a1, b1, x1, v) != act_left(u, a2, b2, x2):
                        continue
                    if t1 == t2 and ac.is_identity(u) and bc.is_identity(v):
                        continue
                    m = f"[{u},{v}]:{s}->{t}"
                    arrows[m] = (s, t)
                    pair[m] = (u, v)
                    index[(s, t, u, v)] = m
                    into[t].append((m, s, u, v))
    cat = make_category(name, ids.values(), arrows)   # composites below
    for (a, _, b), s in ids.items():
        index[(s, s, ac.identities[a], bc.identities[b])] = cat.identities[s]
    # composable by construction, so the tables are read unchecked; a
    # composite missing from the index raises KeyError
    table, atable, btable = cat.table, ac.table, bc.table
    for m2, (s2, t2) in arrows.items():
        u2, v2 = pair[m2]
        for m1, s1, u1, v1 in into[s2]:
            table[(m2, m1)] = index[(s1, t2, atable[(u2, u1)],
                                     btable[(v2, v1)])]
    pl_obj = {ids[t]: t[0] for t in triples}
    pr_obj = {ids[t]: t[2] for t in triples}
    pl_mor = {cat.identity(o): ac.identity(pl_obj[o]) for o in cat.objects}
    pr_mor = {cat.identity(o): bc.identity(pr_obj[o]) for o in cat.objects}
    for m, (u, v) in pair.items():
        pl_mor[m], pr_mor[m] = u, v
    return (cat, Functor(f"pl_{name}", cat, ac, pl_obj, pl_mor),
            Functor(f"pr_{name}", cat, bc, pr_obj, pr_mor),
            {i: t for t, i in ids.items()})


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
    cat, pl, pr, triple = category_of_elements(
        f"{f.name}/{g.name}", ccat, dcat, triples,
        lambda c, d, u, q: ecat.compose(g.mor[q], u),
        lambda p, c, d, u: ecat.compose(u, f.mor[p]))
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
    pos = {o: n for n, o in enumerate(a.objects)}
    reach = {v: {m.tgt[u] for u in m.out_of(v)} for v in m.objects}
    pairs = [(pos[a.src[x]], pos[a.tgt[x]], reach) for x in a.morphisms
             if a.src[x] != a.tgt[x]]
    return [Functor(f"F{n}", a, m, obj, mor) for n, (obj, mor) in
            enumerate(_functor_maps(a, m, [m.objects] * len(pos), pairs))]


def _functor_maps(a, m, domains, pairs):
    """Lazily, in the order of ``all_functors``, the object and arrow maps
    of the functors a -> m whose object map along ``a.objects`` passes
    ``backtrack(domains, pairs)``.  A second search binds the arrows, each
    within its hom-set, with a triple check per composite g . f = h of
    non-identity arrows (the unit laws cover the rest).  Those checks are
    the same for every object map, so they are filed once per
    enumeration."""
    nonids = [x for x in a.morphisms if not a.is_identity(x)]
    arrows = [a.identity(o) for o in a.objects] + nonids
    pos = {x: n for n, x in enumerate(arrows)}
    comps = file_checks(triples=[
        (pos[g], pos[f], pos[a.table[(g, f)]], m.table)
        for g in nonids for f in a.into(a.src[g]) if not a.is_identity(f)])
    ends = [(a.src[x], a.tgt[x]) for x in nonids]
    units = {v: (m.identity(v),) for v in m.objects}
    for images in backtrack(domains, pairs):
        obj = dict(zip(a.objects, images))
        homs = [units[v] for v in images]
        homs += [m.hom(obj[s], obj[t]) for s, t in ends]
        for mors in search(homs, comps):
            yield obj, dict(zip(arrows, mors))


def remembering(search):
    """``search`` with each result kept, per argument tuple, for as long as
    the returned function lives."""
    memo = {}

    def remembered(*args):
        try:
            return memo[args]       # one lookup: keys may be slow to compare
        except KeyError:
            found = memo[args] = search(*args)
            return found

    return remembered


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


def find_isomorphism(a, b):
    """A pair of mutually inverse functors a <-> b, or None: the first
    functor in the order of ``all_functors`` that is bijective with a
    functorial inverse.  Its object map is bound as a bijection that keeps
    the number of arrows each way between every two objects."""
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
    for obj, mor in _functor_maps(a, b, doms, pairs):
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
