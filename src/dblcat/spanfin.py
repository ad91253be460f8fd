"""Internal profunctors and transformations in finite sets, and the
span-level tabulation construction.

An internal category in finite sets is a ``FinCategory``: the span
objects <- morphisms -> objects given by ``src`` and ``tgt``, with unit
``identities`` and multiplication ``table``; an internal functor is a
``Functor``.  Profunctors are two-sided action spans and transformations
are equivariant maps of apexes.  Everything is tabulated, so pullbacks and
coequalizers of the underlying sets are computed explicitly and every
universal property is replayed by enumeration.  Profunctors, composites
and tabulations are built here from those pullbacks and coequalizers, not
by ``prof`` and ``tab``, so the two procedures check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fincat import (FinCategory, Functor, all_functors, backtrack,
                     compose_functors, filed)
from .prof import UnionFind
from . import zoo


# ---------------------------------------------------------------------------
# finite-set plumbing


def pullback(xs, f, ys, g):
    """The pullback of f : X -> Z and g : Y -> Z: pairs with a common
    image, with the two projections.  Element order follows (X, Y)."""
    apex = []
    p1, p2 = {}, {}
    for x in xs:
        for y in ys:
            if f[x] != g[y]:
                continue
            e = f"({x},{y})"
            apex.append(e)
            p1[e] = x
            p2[e] = y
    return tuple(apex), p1, p2


def coequalizer(xs, p, q, ys):
    """The coequalizer of p, q : X -> Y: the quotient of Y identifying
    p(x) with q(x), with representatives least in the Y order."""
    uf = UnionFind()
    for y in ys:
        uf.add(y)
    for x in xs:
        uf.union(p[x], q[x])
    order = {y: i for i, y in enumerate(ys)}
    members = {}
    for y in ys:
        members.setdefault(uf.find(y), []).append(y)
    proj = {}
    for block in members.values():
        rep = min(block, key=order.get)
        for y in block:
            proj[y] = rep
    reps = tuple(sorted(set(proj.values()), key=order.get))
    return reps, proj


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


@dataclass(frozen=True, eq=True)
class InternalProfunctor:
    """A two-sided action span between internal categories: heteromorphism
    set het with endpoint maps d0 (into source objects) and d1 (into target
    objects), left action l[(a, j)] and right action r[(j, b)]."""

    name: str = field(compare=False)
    source: FinCategory
    target: FinCategory
    het: tuple
    d0: dict
    d1: dict
    l: dict
    r: dict

    def __hash__(self):
        return hash((self.het, self.source, self.target))


def validate_internal_profunctor(p):
    problems = []
    a, b = p.source, p.target
    for j in p.het:
        if p.d0.get(j) not in a.objects or p.d1.get(j) not in b.objects:
            problems.append(f"endpoints of {j} missing")
    for x in a.morphisms:
        for j in p.het:
            defined = (x, j) in p.l
            composable = a.tgt[x] == p.d0[j]
            if composable != defined:
                problems.append(f"left action wrong on ({x}, {j})")
            elif defined:
                j2 = p.l[(x, j)]
                if p.d0.get(j2) != a.src[x] or p.d1.get(j2) != p.d1[j]:
                    problems.append(f"left action ill-typed on ({x}, {j})")
    for j in p.het:
        for y in b.morphisms:
            defined = (j, y) in p.r
            composable = p.d1[j] == b.src[y]
            if composable != defined:
                problems.append(f"right action wrong on ({j}, {y})")
            elif defined:
                j2 = p.r[(j, y)]
                if p.d0.get(j2) != p.d0[j] or p.d1.get(j2) != b.tgt[y]:
                    problems.append(f"right action ill-typed on ({j}, {y})")
    for j in p.het:
        if p.l.get((a.identities[p.d0[j]], j)) != j or \
                p.r.get((j, b.identities[p.d1[j]])) != j:
            problems.append(f"unit actions fail at {j}")
    for x1 in a.morphisms:
        for x2 in a.out_of(a.tgt[x1]):
            for j in p.het:
                if a.tgt[x2] != p.d0[j]:
                    continue
                if p.l[(x1, p.l[(x2, j)])] != p.l[(a.table[(x2, x1)], j)]:
                    problems.append(f"left action not associative on ({x1}, {x2}, {j})")
    for j in p.het:
        for y1 in b.out_of(p.d1[j]):
            for y2 in b.out_of(b.tgt[y1]):
                if p.r[(p.r[(j, y1)], y2)] != p.r[(j, b.table[(y2, y1)])]:
                    problems.append(f"right action not associative on ({j}, {y1}, {y2})")
    for x in a.morphisms:
        for j in p.het:
            if a.tgt[x] != p.d0[j]:
                continue
            for y in b.out_of(p.d1[j]):
                if p.r[(p.l[(x, j)], y)] != p.l[(x, p.r[(j, y)])]:
                    problems.append(f"actions do not commute on ({x}, {j}, {y})")
    return problems


def unit_internal_prof(c):
    """A category acting on its own arrows from both sides."""
    l = {(x, j): c.table[(j, x)] for x in c.morphisms
         for j in c.out_of(c.tgt[x])}
    r = {(j, y): c.table[(y, j)] for j in c.morphisms
         for y in c.out_of(c.tgt[j])}
    return InternalProfunctor(f"1_{c.name}", c, c, c.morphisms,
                              dict(c.src), dict(c.tgt), l, r)


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


def internal_prof_compose(j, h):
    """Composite of internal profunctors by pullback-then-coequalizer:
    composable pairs modulo sliding middle arrows across."""
    if j.target != h.source:
        raise ValueError("internal profunctors not composable")
    b = j.target
    pairs, p1, p2 = pullback(j.het, j.d1, h.het, h.d0)
    # each (x, y, z) identifies the pair (x . y, z) with (x, y . z)
    slides = [(x, y, z) for x in j.het for y in b.out_of(j.d1[x])
              for z in h.het if b.tgt[y] == h.d0[z]]
    het, proj = coequalizer(
        slides, {s: f"({j.r[s[:2]]},{s[2]})" for s in slides},
        {s: f"({s[0]},{h.l[s[1:]]})" for s in slides}, pairs)
    d0 = {e: j.d0[p1[e]] for e in het}
    d1 = {e: h.d1[p2[e]] for e in het}
    l = {(u, e): proj[f"({j.l[(u, p1[e])]},{p2[e]})"] for e in het
         for u in j.source.into(d0[e])}
    r = {(e, v): proj[f"({p1[e]},{h.r[(p2[e], v)]})"] for e in het
         for v in h.target.out_of(d1[e])}
    return InternalProfunctor(f"({j.name}*{h.name})", j.source, h.target,
                              het, d0, d1, l, r), proj


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

    def __hash__(self):
        return hash(tuple(map(self.map.get, self.hsrc.het)))


def validate_internal_transformation(t):
    problems = []
    j, k, f, g = t.hsrc, t.htgt, t.vsrc, t.vtgt
    for x in j.het:
        tx = t.map.get(x)
        if tx not in k.het:
            problems.append(f"{x} not mapped into the target")
            continue
        if k.d0[tx] != f.obj[j.d0[x]] or k.d1[tx] != g.obj[j.d1[x]]:
            problems.append(f"image of {x} ill-typed")
    if problems:
        return problems
    for (u, x), v in j.l.items():
        if t.map[v] != k.l[(f.mor[u], t.map[x])]:
            problems.append(f"left naturality fails on ({u}, {x})")
    for (x, w), v in j.r.items():
        if t.map[v] != k.r[(t.map[x], g.mor[w])]:
            problems.append(f"right naturality fails on ({x}, {w})")
    return problems


def all_internal_transformations(j, k, f, g):
    """Every transformation J -> K over (f, g), named t0, t1, ... in the
    lexicographic order of their images listed along j.het.

    A ``fincat.backtrack`` search: the elements of j.het are bound in
    order, each to an element of its fiber of k.het in k.het order.  Each
    entry of J's action tables gives an equation, t(v) == f(u) . t(x) for
    a left action and t(v) == t(x) . g(w) for a right one, read off K's
    tables as a pair check from x to v."""
    pos = {x: i for i, x in enumerate(j.het)}
    by_ends = {}
    for y in k.het:
        by_ends.setdefault((k.d0[y], k.d1[y]), []).append(y)
    fibers = [by_ends.get((f.obj[j.d0[x]], g.obj[j.d1[x]]), ())
              for x in j.het]
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
    # right-action span J x_B0 B -> J and left-action span A x_A0 J -> J
    racts = [(x, y) for x in j.het for y in b.out_of(j.d1[x])]
    lacts = [(u, x) for u in a.morphisms for x in j.het if a.tgt[u] == j.d0[x]]
    arrs = []
    parts = {}
    for (x1, y) in racts:
        for (u, x2) in lacts:
            if j.r[(x1, y)] != j.l[(u, x2)]:
                continue
            w = f"(({x1},{y}),({u},{x2}))"
            arrs.append(w)
            parts[w] = (x1, y, u, x2)
    e = {x: f"(({x},{b.identities[j.d1[x]]}),({a.identities[j.d0[x]]},{x}))"
         for x in j.het}
    cat = FinCategory(f"<{j.name}>", tuple(j.het), tuple(arrs),
                      {w: parts[w][0] for w in arrs},
                      {w: parts[w][3] for w in arrs}, e, {})
    # composites go in after construction: no index reads the table
    for w2, w1 in cat.composable_pairs():
        x1, y1, u1, _ = parts[w1]
        _, y2, u2, x2 = parts[w2]
        cat.table[(w2, w1)] = \
            f"(({x1},{b.table[(y2, y1)]}),({a.table[(u2, u1)]},{x2}))"
    pl = Functor(f"pl<{j.name}>", cat, a, {x: j.d0[x] for x in j.het},
                 {w: parts[w][2] for w in arrs})
    pr = Functor(f"pr<{j.name}>", cat, b, {x: j.d1[x] for x in j.het},
                 {w: parts[w][1] for w in arrs})
    cell = InternalTransformation(f"pi<{j.name}>", unit_internal_prof(cat), j,
                                  pl, pr,
                                  {w: j.r[(parts[w][0], parts[w][1])]
                                   for w in arrs})
    return InternalTabulation(j, cat, pl, pr, cell)


def factor_through_tabulation(t, phi_a, phi_b, phi):
    """The explicit section: objects go to the object part of phi, arrows
    to the square assembled from the two whiskers."""
    x = phi.hsrc.source
    phi0 = transf_object_part(phi)
    mor = {h: f"(({phi0[x.src[h]]},{phi_b.mor[h]}),"
              f"({phi_a.mor[h]},{phi0[x.tgt[h]]}))" for h in x.morphisms}
    return Functor("fac", x, t.category,
                   {o: phi0[o] for o in x.objects}, mor)


def verify_internal_tabulation(t, probes=None):
    """Replay both universal properties and opcartesianness of the
    defining transformation over a probe set."""
    if probes is None:
        probes = zoo.tabulation_probes()
    j = t.j
    a, b = j.source, j.target
    ua, ub = unit_internal_prof(a), unit_internal_prof(b)
    ut = unit_internal_prof(t.category)
    checked = {"one_dimensional": 0, "two_dimensional": 0, "opcartesian": 0}

    # each candidate is filed once under what the checks compare, maps
    # keyed as frozensets of their items, so that a configuration counts
    # its hits with one lookup
    factored = []       # per probe, its configurations and factorizations
    for x in probes:
        ux = unit_internal_prof(x)
        factored.append([])
        into_t = filed(all_internal_functors(x, t.category), lambda f: (
            compose_functors(t.proj_left, f), compose_functors(t.proj_right, f),
            frozenset((h, t.cell.map[w]) for h, w in f.mor.items())))
        into_b = all_internal_functors(x, b)
        for phi_a in all_internal_functors(x, a):
            for phi_b in into_b:
                for phi in all_internal_transformations(ux, j, phi_a, phi_b):
                    hits = into_t.get(
                        (phi_a, phi_b, frozenset(phi.map.items())), [])
                    if len(hits) != 1:
                        return False, {"stage": "one-dimensional",
                                       "probe": x.name, "count": len(hits)}
                    explicit = factor_through_tabulation(t, phi_a, phi_b, phi)
                    if explicit.obj != hits[0].obj or \
                            explicit.mor != hits[0].mor:
                        return False, {"stage": "one-dimensional",
                                       "probe": x.name,
                                       "reason": "explicit section differs"}
                    factored[-1].append((phi_a, phi_b, phi, hits[0],
                                         transf_object_part(phi)))
                    checked["one_dimensional"] += 1

    for x, configs in zip(probes, factored):
        ux = unit_internal_prof(x)
        for (phi_a, phi_b, phi, fac1, phi0) in configs:
            for (psi_a, psi_b, psi, fac2, psi0) in configs:
                squares = [
                    (xi_a, xi_b)
                    for xi_a in all_internal_transformations(ux, ua, phi_a, psi_a)
                    for xi_b in all_internal_transformations(ux, ub, phi_b, psi_b)
                    if all(j.l[(xi_a.map[h], psi0[x.tgt[h]])] ==
                           j.r[(phi0[x.src[h]], xi_b.map[h])]
                           for h in x.morphisms)]
                lifts = filed(
                    all_internal_transformations(ux, ut, fac1, fac2)
                    if squares else [],
                    lambda xi: tuple(
                        frozenset((h, p.mor[w]) for h, w in xi.map.items())
                        for p in (t.proj_left, t.proj_right)))
                for xi_a, xi_b in squares:
                    hits = lifts.get((frozenset(xi_a.map.items()),
                                      frozenset(xi_b.map.items())), [])
                    if len(hits) != 1:
                        return False, {"stage": "two-dimensional",
                                       "probe": x.name, "count": len(hits)}
                    checked["two_dimensional"] += 1

    # opcartesianness of the defining transformation: cells out of unit(T)
    # over factored boundaries correspond to cells out of J, each cell
    # filed under the map it induces out of unit(T)
    for c in probes:
        k = unit_internal_prof(c)
        from_b = all_internal_functors(b, c)
        for f in all_internal_functors(a, c):
            for g in from_b:
                fa = compose_functors(f, t.proj_left)
                gb = compose_functors(g, t.proj_right)
                chis = all_internal_transformations(ut, k, fa, gb)
                cells = filed(
                    all_internal_transformations(j, k, f, g) if chis else [],
                    lambda cp: frozenset((w, cp.map[y])
                                         for w, y in t.cell.map.items()))
                for chi in chis:
                    hits = cells.get(frozenset(chi.map.items()), [])
                    if len(hits) != 1:
                        return False, {"stage": "opcartesian",
                                       "probe": c.name, "count": len(hits)}
                    # the factorization is the object part of chi
                    if any(hits[0].map[x] != chi.map[t.category.identities[x]]
                           for x in j.het):
                        return False, {"stage": "opcartesian",
                                       "probe": c.name,
                                       "reason": "object-part formula differs"}
                    checked["opcartesian"] += 1
    return True, checked
