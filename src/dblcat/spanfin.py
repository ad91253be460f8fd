"""Internal profunctors and transformations in finite sets, and the
span-level tabulation construction.

An internal category in finite sets is a ``FinCategory``: the span
objects <- morphisms -> objects given by ``src`` and ``tgt``, with unit
``identities`` and multiplication ``table``; an internal functor is a
``Functor``.  Profunctors are two-sided action spans and transformations
are equivariant maps of apexes.  Everything is tabulated, so pullbacks of
the underlying sets are computed explicitly and every universal property
is replayed by enumeration.  The arrows of a tabulation are the pullback
of the two action spans; ``pullback`` is a join over the fibers of its
second map.  Nothing here is built by ``prof`` or ``tab``, so the two
procedures check each other, and this module imports nothing from
``prof``.  No ``dcat`` command composes at span level: the span-level
composite, a coequalizer of the slides on a pullback, lives in
``tests/helpers.py`` with the validators of internal profunctors and
transformations.  A unit (``unit_internal_prof``, a
``fincat.construction``) builds each action on its first read
(``fincat.OnFirstRead``), so the defining transformation of a tabulation
leaves the unit of its category unbuilt.  ``verify_internal_tabulation``
takes its 2-cells between functors as natural transformations, so it
builds the units of its probes only, and shares its two-dimensional stage,
``fincat.lift_counts``, with ``tab.verify_tabulation``; its independent
twin is ``verify_internal_tabulation_oracle`` in ``tests/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .fincat import (FinCategory, Functor, all_functors,
                     all_natural_transformations, backtrack, compose_functors,
                     construction, decision, deferred, derived, filed,
                     first_read, lift_counts)
from . import zoo


# ---------------------------------------------------------------------------
# finite-set plumbing


def pullback(xs, f, ys, g):
    """The pullback of f : X -> Z and g : Y -> Z: pairs with a common
    image, with the two projections.  A join: each x meets the ys filed
    over f(x), so element order follows (X, Y)."""
    over = filed(ys, g.get)
    apex = []
    p1, p2 = {}, {}
    for x in xs:
        for y in over.get(f[x], ()):
            e = f"({x},{y})"
            apex.append(e)
            p1[e], p2[e] = x, y
    return tuple(apex), p1, p2


# ---------------------------------------------------------------------------
# internal categories and functors


def from_fincat(cat):
    """A finite category is already a category internal to finite sets:
    returns ``cat`` itself.  Kept because ``bench/workloads.py`` calls it."""
    return cat


def all_internal_functors(a, b):
    """Every internal functor a -> b: the ordinary functors, in the order
    and with the names of ``all_functors``.  A function of its own because
    ``bench/layers.py`` traces the span-level searches under this name."""
    return all_functors(a, b)


# ---------------------------------------------------------------------------
# internal profunctors and transformations


@first_read("l", "r")
@dataclass(frozen=True, eq=True)
class InternalProfunctor:
    """A two-sided action span between internal categories: heteromorphism
    set het with endpoint maps d0 (into source objects) and d1 (into target
    objects), left action l[(a, j)] and right action r[(j, b)].  ``fiber``
    reads het filed by endpoints, ``derived`` on its first read as a
    ``FinCategory``'s indexes are.  A unit builds each action on its first
    read, and equality is ``fincat.equal_before_read``."""

    name: str = field(compare=False)
    source: FinCategory
    target: FinCategory
    het: tuple
    d0: dict
    d1: dict
    l: dict
    r: dict

    @derived
    def _fibers(self):
        # .get: an element missing an endpoint is filed under None, for
        # validate_internal_profunctor in tests/helpers.py to report
        return filed(self.het, lambda y: (self.d0.get(y), self.d1.get(y)))

    def __hash__(self):
        return hash((self.het, self.source, self.target))

    def fiber(self, a, b):
        """The heteromorphisms from a to b, in het order."""
        return self._fibers.get((a, b), ())


@construction
def unit_internal_prof(c):
    """A category acting on its own arrows from both sides, each action
    built on its first read (``_unit_action``)."""
    return deferred(InternalProfunctor, partial(_unit_action, c),
                    name=f"1_{c.name}", source=c, target=c, het=c.morphisms,
                    d0=dict(c.src), d1=dict(c.tgt))


def _unit_action(c, side):
    """The ``side`` ("l" or "r") action of the unit of ``c``:
    ``l[(x, j)] = j . x``, listed by x, then j out of x's target, and
    ``r[(j, y)] = y . j``, listed by j, then y out of j's target."""
    table, out_of, tgt = c.table, c.out_of, c.tgt
    if side == "l":
        return {(x, j): table[(j, x)] for x in c.morphisms
                for j in out_of(tgt[x])}
    return {(j, y): table[(y, j)] for j in c.morphisms
            for y in out_of(tgt[j])}


def prof_bridge(p):
    """An ordinary profunctor as an internal one: the heteromorphism set is
    the disjoint union of the fibers."""
    a, b = p.source, p.target
    het = []
    d0, d1 = {}, {}
    locate = {}
    for x, y, j in p.elements():
        e = f"({x}|{j}|{y})"
        het.append(e)
        d0[e] = x
        d1[e] = y
        locate[e] = (x, y, j)
    l, r = {}, {}
    for e in het:
        x, y, j = locate[e]
        for u in a.into(x):
            l[(u, e)] = f"({a.src[u]}|{p.act_left(u, x, y, j)}|{y})"
        for v in b.out_of(y):
            r[(e, v)] = f"({x}|{p.act_right(x, y, j, v)}|{b.tgt[v]})"
    return InternalProfunctor(f"br_{p.name}", a, b, tuple(het), d0, d1, l, r)


@dataclass(frozen=True, eq=True)
class InternalTransformation:
    """An equivariant map of heteromorphism sets over a pair of internal
    functors."""

    name: str = field(compare=False)
    hsrc: InternalProfunctor
    htgt: InternalProfunctor
    vsrc: Functor
    vtgt: Functor
    map: dict

    @derived
    def key(self):
        """The images along ``hsrc.het``, as equal transformations list
        them."""
        return tuple(map(self.map.get, self.hsrc.het))

    def __hash__(self):
        return hash(self.key)


def all_internal_transformations(j, k, f, g):
    """Every transformation J -> K over (f, g), named t0, t1, ... in the
    lexicographic order of their images listed along j.het.

    A ``fincat.backtrack`` search: the elements of j.het are bound in
    order, each to an element of its fiber of k.het in k.het order.  Each
    entry of J's action tables gives an equation, t(v) == f(u) . t(x) for
    a left action and t(v) == t(x) . g(w) for a right one, read off K's
    tables as a pair check from x to v."""
    pos = {x: i for i, x in enumerate(j.het)}
    fibers = [k.fiber(f.obj[j.d0[x]], g.obj[j.d1[x]]) for x in j.het]
    # the equations of identity arrows hold by the unit laws: left out
    equations = [(pos[x], pos[v], {y: (k.l[(f.mor[u], y)],)
                                   for y in fibers[pos[x]]})
                 for (u, x), v in j.l.items() if not j.source.is_identity(u)]
    equations += [(pos[x], pos[v], {y: (k.r[(y, g.mor[w])],)
                                    for y in fibers[pos[x]]})
                  for (x, w), v in j.r.items() if not j.target.is_identity(w)]
    return [InternalTransformation(f"t{n}", j, k, f, g,
                                   dict(zip(j.het, images)))
            for n, images in enumerate(backtrack(fibers, equations))]


# ---------------------------------------------------------------------------
# the vertical-transformation correspondence


def transf_object_part(t):
    """Restrict a transformation out of a unit profunctor to objects."""
    x = t.hsrc.source
    return {o: t.map[x.identities[o]] for o in x.objects}


def transf_from_object_part(x, k, f, g, phi0):
    """Rebuild the transformation unit(X) -> K over (f, g) whose object
    part is phi0, or None when phi0 is not compatible with the actions."""
    for a in x.morphisms:
        if k.l[(f.mor[a], phi0[x.tgt[a]])] != k.r[(phi0[x.src[a]], g.mor[a])]:
            return None
    m = {a: k.l[(f.mor[a], phi0[x.tgt[a]])] for a in x.morphisms}
    return InternalTransformation(f"lift", unit_internal_prof(x), k, f, g, m)


# ---------------------------------------------------------------------------
# the span-level tabulation


@dataclass(frozen=True, eq=True)
class InternalTabulation:
    j: InternalProfunctor
    category: FinCategory
    proj_left: Functor
    proj_right: Functor
    cell: InternalTransformation    # unit(T) -> J over the projections

    def __hash__(self):
        return hash(self.j)


def internal_tabulate(j):
    """The tabulation of an internal profunctor, entirely at the level of
    spans: objects are the heteromorphisms, arrows the pullback of the two
    action maps, structure induced on representatives."""
    a, b = j.source, j.target
    # the right-action span J x_B0 B -> J and the left-action span
    # A x_A0 J -> J, keyed by their names
    racts = {f"({x},{y})": (x, y) for x in j.het for y in b.out_of(j.d1[x])}
    over = filed(j.het, j.d0.get)
    lacts = {f"({u},{x})": (u, x) for u in a.morphisms
             for x in over.get(a.tgt[u], ())}
    arrs, p1, p2 = pullback(racts, {e: j.r[k] for e, k in racts.items()},
                            lacts, {e: j.l[k] for e, k in lacts.items()})
    parts = {w: racts[p1[w]] + lacts[p2[w]] for w in arrs}
    e = {x: f"(({x},{b.identities[j.d1[x]]}),({a.identities[j.d0[x]]},{x}))"
         for x in j.het}
    cat = FinCategory(f"<{j.name}>", tuple(j.het), arrs,
                      {w: parts[w][0] for w in arrs},
                      {w: parts[w][3] for w in arrs}, e, {})
    # composites go in after construction: no index reads the table
    table, atable, btable = cat.table, a.table, b.table
    for w2, w1 in cat.composable_pairs():
        x1, y1, u1, _ = parts[w1]
        _, y2, u2, x2 = parts[w2]
        table[(w2, w1)] = \
            f"(({x1},{btable[(y2, y1)]}),({atable[(u2, u1)]},{x2}))"
    pl = Functor(f"pl<{j.name}>", cat, a, {x: j.d0[x] for x in j.het},
                 {w: parts[w][2] for w in arrs})
    pr = Functor(f"pr<{j.name}>", cat, b, {x: j.d1[x] for x in j.het},
                 {w: parts[w][1] for w in arrs})
    cell = InternalTransformation(f"pi<{j.name}>", unit_internal_prof(cat), j,
                                  pl, pr, {w: j.r[racts[p1[w]]] for w in arrs})
    return InternalTabulation(j, cat, pl, pr, cell)


def factor_through_tabulation(t, phi_a, phi_b, phi0):
    """The explicit section of a configuration whose transformation has
    object part phi0 (``transf_object_part``): objects go to phi0, arrows
    to the square assembled from the two whiskers."""
    x = phi_a.source
    mor = {h: f"(({phi0[x.src[h]]},{phi_b.mor[h]}),"
              f"({phi_a.mor[h]},{phi0[x.tgt[h]]}))" for h in x.morphisms}
    return Functor("fac", x, t.category,
                   {o: phi0[o] for o in x.objects}, mor)


@decision
def verify_internal_tabulation(t, probes=None):
    """Replay both universal properties and opcartesianness of the
    defining transformation over a probe set.  A decision, so each search
    is built once; its two-dimensional stage is ``fincat.lift_counts`` on
    J's actions, keyed by each configuration's element at each object."""
    if probes is None:
        probes = zoo.tabulation_probes()
    j = t.j
    a, b = j.source, j.target
    pi = t.cell.map.get
    checked = {"one_dimensional": 0, "two_dimensional": 0, "opcartesian": 0}

    # each functor into T is filed once under what the checks compare, maps
    # listed along X's arrows as ``InternalTransformation.key`` lists them,
    # so that a configuration counts its hits with one lookup
    factored = []       # per probe, its configurations and factorizations
    for x in probes:
        ux = unit_internal_prof(x)
        factored.append([])
        into_t = filed(all_internal_functors(x, t.category), lambda f: (
            compose_functors(t.proj_left, f), compose_functors(t.proj_right, f),
            tuple(pi(f.mor[h]) for h in x.morphisms)))
        into_b = all_internal_functors(x, b)
        for phi_a in all_internal_functors(x, a):
            for phi_b in into_b:
                for phi in all_internal_transformations(ux, j, phi_a, phi_b):
                    hits = into_t.get((phi_a, phi_b, phi.key), [])
                    if len(hits) != 1:
                        return False, {"stage": "one-dimensional",
                                       "probe": x.name, "count": len(hits)}
                    phi0 = transf_object_part(phi)
                    explicit = factor_through_tabulation(t, phi_a, phi_b, phi0)
                    if explicit.obj != hits[0].obj or \
                            explicit.mor != hits[0].mor:
                        return False, {"stage": "one-dimensional",
                                       "probe": x.name,
                                       "reason": "explicit section differs"}
                    factored[-1].append((phi_a, phi_b, hits[0], {
                        o: (e,) for o, e in phi0.items()}))
                    checked["one_dimensional"] += 1

    for x, configs in zip(probes, factored):
        for hits in lift_counts(configs, j.l, j.r, t.proj_left,
                                t.proj_right):
            if hits != 1:
                return False, {"stage": "two-dimensional",
                               "probe": x.name, "count": hits}
            checked["two_dimensional"] += 1

    # opcartesianness of the defining transformation: a cell out of unit(T)
    # over (f . pl, g . pr) is a natural transformation chi : f . pl =>
    # g . pr, sending w to g.pr(w) . chi(src w), and exactly one cell out
    # of J, filed under the map it induces, must induce it
    tsrc, arrows = t.category.src, t.category.morphisms
    for c in probes:
        k, ctable = unit_internal_prof(c), c.table
        from_b = all_internal_functors(b, c)
        for f in all_internal_functors(a, c):
            for g in from_b:
                fa = compose_functors(f, t.proj_left)
                gb = compose_functors(g, t.proj_right)
                chis = all_natural_transformations(fa, gb)
                cells = filed(
                    all_internal_transformations(j, k, f, g) if chis else [],
                    lambda cp: tuple(map(cp.map.get, t.cell.key)))
                for chi in chis:
                    hits = cells.get(tuple([ctable[(gb.mor[w], chi(tsrc[w]))]
                                            for w in arrows]), [])
                    if len(hits) != 1:
                        return False, {"stage": "opcartesian",
                                       "probe": c.name, "count": len(hits)}
                    # the factorization is the object part of chi
                    if any(hits[0].map[x] != chi(x) for x in j.het):
                        return False, {"stage": "opcartesian",
                                       "probe": c.name,
                                       "reason": "object-part formula differs"}
                    checked["opcartesian"] += 1
    return True, checked
