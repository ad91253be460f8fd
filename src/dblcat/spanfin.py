"""Internal categories, profunctors and transformations in finite sets,
and the span-level tabulation construction.

A category internal to finite sets is a span obj <- arr -> obj with a
multiplication and unit; profunctors are two-sided action spans and
transformations are equivariant maps of apexes.  Everything is tabulated,
so pullbacks and coequalizers of the underlying sets are computed
explicitly and every universal property is replayed by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fincat import FinCategory, all_functors
from .prof import UnionFind


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
# internal categories


@dataclass(frozen=True, eq=True)
class InternalCategory:
    """obj <- arr -> obj with unit e and multiplication m; m[(a1, a2)] is
    defined when d1[a1] == d0[a2] and composes a1 first."""

    name: str = field(compare=False)
    obj: tuple
    arr: tuple
    d0: dict
    d1: dict
    e: dict
    m: dict

    def __hash__(self):
        return hash((self.obj, self.arr))

    def compose(self, a1, a2):
        """a1 followed by a2."""
        return self.m[(a1, a2)]


def validate_internal_category(c):
    problems = []
    for o in c.obj:
        a = c.e.get(o)
        if a is None or c.d0.get(a) != o or c.d1.get(a) != o:
            problems.append(f"unit of {o} missing or not an endo-arrow")
    for a1 in c.arr:
        for a2 in c.arr:
            defined = (a1, a2) in c.m
            composable = c.d1.get(a1) == c.d0.get(a2)
            if composable != defined:
                problems.append(f"multiplication wrong on ({a1}, {a2})")
            elif defined:
                a = c.m[(a1, a2)]
                if c.d0.get(a) != c.d0[a1] or c.d1.get(a) != c.d1[a2]:
                    problems.append(f"multiplication ill-typed on ({a1}, {a2})")
    for a in c.arr:
        if c.m.get((c.e[c.d0[a]], a)) != a or c.m.get((a, c.e[c.d1[a]])) != a:
            problems.append(f"unit law fails at {a}")
    for a1 in c.arr:
        for a2 in c.arr:
            if c.d1[a1] != c.d0[a2]:
                continue
            for a3 in c.arr:
                if c.d1[a2] != c.d0[a3]:
                    continue
                m12, m23 = c.m.get((a1, a2)), c.m.get((a2, a3))
                if m12 is None or m23 is None:
                    continue        # already reported above
                left = c.m.get((m12, a3))
                right = c.m.get((a1, m23))
                if left is None or left != right:
                    problems.append(f"associativity fails on ({a1}, {a2}, {a3})")
    return problems


def to_fincat(c):
    """Reread an internal category as an ordinary finite category."""
    table = {(a2, a1): v for (a1, a2), v in c.m.items()}
    return FinCategory(c.name, c.obj, c.arr, dict(c.d0), dict(c.d1),
                       dict(c.e), table)


def from_fincat(cat):
    """Reread a finite category as a category internal to finite sets."""
    m = {(f, g): v for (g, f), v in cat.table.items()}
    return InternalCategory(cat.name, cat.objects, cat.morphisms,
                            dict(cat.src), dict(cat.tgt),
                            dict(cat.identities), m)


@dataclass(frozen=True, eq=True)
class InternalFunctor:
    name: str = field(compare=False)
    source: InternalCategory
    target: InternalCategory
    obj_map: dict
    arr_map: dict

    def __hash__(self):
        return hash((tuple(sorted(self.obj_map.items())),
                     tuple(sorted(self.arr_map.items()))))

    def validate(self):
        problems = []
        s, t = self.source, self.target
        for a in s.arr:
            fa = self.arr_map.get(a)
            if fa not in t.arr:
                problems.append(f"arrow {a} not mapped")
                continue
            if t.d0[fa] != self.obj_map[s.d0[a]] or t.d1[fa] != self.obj_map[s.d1[a]]:
                problems.append(f"image of {a} ill-typed")
        for o in s.obj:
            if self.arr_map.get(s.e[o]) != t.e[self.obj_map[o]]:
                problems.append(f"unit of {o} not preserved")
        for (a1, a2), v in s.m.items():
            if self.arr_map.get(v) != t.m[(self.arr_map[a1], self.arr_map[a2])]:
                problems.append(f"multiplication not preserved on ({a1}, {a2})")
        return problems


def internal_identity(c):
    return InternalFunctor(f"Id_{c.name}", c, c,
                           {o: o for o in c.obj}, {a: a for a in c.arr})


def internal_compose(g, f):
    return InternalFunctor(f"{g.name}.{f.name}", f.source, g.target,
                           {o: g.obj_map[f.obj_map[o]] for o in f.source.obj},
                           {a: g.arr_map[f.arr_map[a]] for a in f.source.arr})


def all_internal_functors(a, b):
    """Enumerate by reusing the ordinary-functor enumeration."""
    out = []
    for f in all_functors(to_fincat(a), to_fincat(b)):
        out.append(InternalFunctor(f.name, a, b, dict(f.obj), dict(f.mor)))
    return out


# ---------------------------------------------------------------------------
# internal profunctors and transformations


@dataclass(frozen=True, eq=True)
class InternalProfunctor:
    """A two-sided action span between internal categories: heteromorphism
    set het with endpoint maps d0 (into source objects) and d1 (into target
    objects), left action l[(a, j)] and right action r[(j, b)]."""

    name: str = field(compare=False)
    source: InternalCategory
    target: InternalCategory
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
        if p.d0.get(j) not in a.obj or p.d1.get(j) not in b.obj:
            problems.append(f"endpoints of {j} missing")
    for x in a.arr:
        for j in p.het:
            defined = (x, j) in p.l
            composable = a.d1[x] == p.d0[j]
            if composable != defined:
                problems.append(f"left action wrong on ({x}, {j})")
            elif defined:
                j2 = p.l[(x, j)]
                if p.d0.get(j2) != a.d0[x] or p.d1.get(j2) != p.d1[j]:
                    problems.append(f"left action ill-typed on ({x}, {j})")
    for j in p.het:
        for y in b.arr:
            defined = (j, y) in p.r
            composable = p.d1[j] == b.d0[y]
            if composable != defined:
                problems.append(f"right action wrong on ({j}, {y})")
            elif defined:
                j2 = p.r[(j, y)]
                if p.d0.get(j2) != p.d0[j] or p.d1.get(j2) != b.d1[y]:
                    problems.append(f"right action ill-typed on ({j}, {y})")
    for j in p.het:
        if p.l.get((a.e[p.d0[j]], j)) != j or p.r.get((j, b.e[p.d1[j]])) != j:
            problems.append(f"unit actions fail at {j}")
    for x1 in a.arr:
        for x2 in a.arr:
            if a.d1[x1] != a.d0[x2]:
                continue
            for j in p.het:
                if a.d1[x2] != p.d0[j]:
                    continue
                if p.l[(x1, p.l[(x2, j)])] != p.l[(a.m[(x1, x2)], j)]:
                    problems.append(f"left action not associative on ({x1}, {x2}, {j})")
    for j in p.het:
        for y1 in b.arr:
            if p.d1[j] != b.d0[y1]:
                continue
            for y2 in b.arr:
                if b.d1[y1] != b.d0[y2]:
                    continue
                if p.r[(p.r[(j, y1)], y2)] != p.r[(j, b.m[(y1, y2)])]:
                    problems.append(f"right action not associative on ({j}, {y1}, {y2})")
    for x in a.arr:
        for j in p.het:
            if a.d1[x] != p.d0[j]:
                continue
            for y in b.arr:
                if p.d1[j] != b.d0[y]:
                    continue
                if p.r[(p.l[(x, j)], y)] != p.l[(x, p.r[(j, y)])]:
                    problems.append(f"actions do not commute on ({x}, {j}, {y})")
    return problems


def unit_internal_prof(c):
    """A category acting on its own arrows from both sides."""
    l = {(x, j): c.m[(x, j)] for x in c.arr for j in c.arr
         if c.d1[x] == c.d0[j]}
    r = {(j, y): c.m[(j, y)] for j in c.arr for y in c.arr
         if c.d1[j] == c.d0[y]}
    return InternalProfunctor(f"1_{c.name}", c, c, c.arr,
                              dict(c.d0), dict(c.d1), l, r)


def prof_bridge(p):
    """An ordinary profunctor as an internal one: the heteromorphism set is
    the disjoint union of the fibers."""
    a = from_fincat(p.source)
    b = from_fincat(p.target)
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
        for u in p.source.into(x):
            l[(u, e)] = f"({a.d0[u]}|{p.act_left(u, x, y, j)}|{y})"
        for v in p.target.out_of(y):
            r[(e, v)] = f"({x}|{p.act_right(x, y, j, v)}|{b.d1[v]})"
    return InternalProfunctor(f"br_{p.name}", a, b, tuple(het), d0, d1, l, r)


def internal_prof_compose(j, h):
    """Composite of internal profunctors by pullback-then-coequalizer:
    composable pairs modulo sliding middle arrows across."""
    if j.target != h.source:
        raise ValueError("internal profunctors not composable")
    b = j.target
    pairs, p1, p2 = pullback(j.het, j.d1, h.het, h.d0)
    # each (x, y, z) identifies the pair (x . y, z) with (x, y . z)
    slides = [(x, y, z) for x in j.het for y in b.arr if j.d1[x] == b.d0[y]
              for z in h.het if b.d1[y] == h.d0[z]]
    het, proj = coequalizer(
        slides, {s: f"({j.r[s[:2]]},{s[2]})" for s in slides},
        {s: f"({s[0]},{h.l[s[1:]]})" for s in slides}, pairs)
    d0 = {e: j.d0[p1[e]] for e in het}
    d1 = {e: h.d1[p2[e]] for e in het}
    l = {(u, e): proj[f"({j.l[(u, p1[e])]},{p2[e]})"] for e in het
         for u in j.source.arr if j.source.d1[u] == d0[e]}
    r = {(e, v): proj[f"({p1[e]},{h.r[(p2[e], v)]})"] for e in het
         for v in h.target.arr if h.target.d0[v] == d1[e]}
    return InternalProfunctor(f"({j.name}*{h.name})", j.source, h.target,
                              het, d0, d1, l, r), proj


@dataclass(frozen=True, eq=True)
class InternalTransformation:
    """An equivariant map of heteromorphism sets over a pair of internal
    functors."""

    name: str = field(compare=False)
    hsrc: InternalProfunctor
    htgt: InternalProfunctor
    vsrc: InternalFunctor
    vtgt: InternalFunctor
    map: dict

    def __hash__(self):
        return hash((self.hsrc, self.htgt, tuple(sorted(self.map.items()))))


def validate_internal_transformation(t):
    problems = []
    j, k, f, g = t.hsrc, t.htgt, t.vsrc, t.vtgt
    for x in j.het:
        tx = t.map.get(x)
        if tx not in k.het:
            problems.append(f"{x} not mapped into the target")
            continue
        if k.d0[tx] != f.obj_map[j.d0[x]] or k.d1[tx] != g.obj_map[j.d1[x]]:
            problems.append(f"image of {x} ill-typed")
    if problems:
        return problems
    for (u, x), v in j.l.items():
        if t.map[v] != k.l[(f.arr_map[u], t.map[x])]:
            problems.append(f"left naturality fails on ({u}, {x})")
    for (x, w), v in j.r.items():
        if t.map[v] != k.r[(t.map[x], g.arr_map[w])]:
            problems.append(f"right naturality fails on ({x}, {w})")
    return problems


def all_internal_transformations(j, k, f, g):
    """Every transformation J -> K over (f, g), named t0, t1, ... in the
    lexicographic order of their images listed along j.het.

    A backtracking search with forward checking: the elements of j.het are
    bound in order, each to an element of its fiber of k.het in k.het
    order, and each naturality equation is tested as soon as both of its
    elements are bound."""
    pos = {x: i for i, x in enumerate(j.het)}
    by_ends = {}
    for y in k.het:
        by_ends.setdefault((k.d0[y], k.d1[y]), []).append(y)
    fibers = [by_ends.get((f.obj_map[j.d0[x]], g.obj_map[j.d1[x]]), [])
              for x in j.het]
    # t(v) == u . t(x) for left actions, t(v) == t(x) . w for right ones,
    # filed under the later of x and v
    lefts = [[] for _ in j.het]
    rights = [[] for _ in j.het]
    for (u, x), v in j.l.items():
        lefts[max(pos[x], pos[v])].append((v, f.arr_map[u], x))
    for (x, w), v in j.r.items():
        rights[max(pos[x], pos[v])].append((v, x, g.arr_map[w]))
    out = []
    t = {}

    def extend(i):
        if i == len(j.het):
            out.append(InternalTransformation(f"t{len(out)}", j, k, f, g,
                                              dict(t)))
            return
        for y in fibers[i]:
            t[j.het[i]] = y
            if all(t[v] == k.l[(fu, t[x])] for v, fu, x in lefts[i]) and \
                    all(t[v] == k.r[(t[x], gw)] for v, x, gw in rights[i]):
                extend(i + 1)

    extend(0)
    return out


# ---------------------------------------------------------------------------
# the vertical-transformation correspondence


def transf_object_part(t):
    """Restrict a transformation out of a unit profunctor to objects."""
    x = t.hsrc.source
    return {o: t.map[x.e[o]] for o in x.obj}


def transf_from_object_part(x, k, f, g, phi0):
    """Rebuild the transformation unit(X) -> K over (f, g) whose object
    part is phi0, or None when phi0 is not compatible with the actions."""
    for a in x.arr:
        if k.l[(f.arr_map[a], phi0[x.d1[a]])] != k.r[(phi0[x.d0[a]], g.arr_map[a])]:
            return None
    m = {a: k.l[(f.arr_map[a], phi0[x.d1[a]])] for a in x.arr}
    return InternalTransformation(f"lift", unit_internal_prof(x), k, f, g, m)


# ---------------------------------------------------------------------------
# the span-level tabulation


@dataclass(frozen=True, eq=True)
class InternalTabulation:
    j: InternalProfunctor
    category: InternalCategory
    proj_left: InternalFunctor
    proj_right: InternalFunctor
    cell: InternalTransformation    # unit(T) -> J over the projections

    def __hash__(self):
        return hash(self.j)


def internal_tabulate(j):
    """The tabulation of an internal profunctor, entirely at the level of
    spans: objects are the heteromorphisms, arrows the pullback of the two
    action maps, structure induced on representatives."""
    a, b = j.source, j.target
    # right-action span J x_B0 B -> J and left-action span A x_A0 J -> J
    racts = [(x, y) for x in j.het for y in b.arr if j.d1[x] == b.d0[y]]
    lacts = [(u, x) for u in a.arr for x in j.het if a.d1[u] == j.d0[x]]
    arrs = []
    parts = {}
    for (x1, y) in racts:
        for (u, x2) in lacts:
            if j.r[(x1, y)] != j.l[(u, x2)]:
                continue
            w = f"(({x1},{y}),({u},{x2}))"
            arrs.append(w)
            parts[w] = (x1, y, u, x2)
    d0 = {w: parts[w][0] for w in arrs}
    d1 = {w: parts[w][3] for w in arrs}
    e = {}
    for x in j.het:
        e[x] = f"(({x},{b.e[j.d1[x]]}),({a.e[j.d0[x]]},{x}))"
    m = {}
    for w1 in arrs:
        for w2 in arrs:
            if d1[w1] != d0[w2]:
                continue
            x1, y1, u1, mid = parts[w1]
            _, y2, u2, x2 = parts[w2]
            m[(w1, w2)] = f"(({x1},{b.m[(y1, y2)]}),({a.m[(u1, u2)]},{x2}))"
    cat = InternalCategory(f"<{j.name}>", tuple(j.het), tuple(arrs),
                           d0, d1, e, m)
    pl = InternalFunctor(f"pl<{j.name}>", cat, a,
                         {x: j.d0[x] for x in j.het},
                         {w: parts[w][2] for w in arrs})
    pr = InternalFunctor(f"pr<{j.name}>", cat, b,
                         {x: j.d1[x] for x in j.het},
                         {w: parts[w][1] for w in arrs})
    cell = InternalTransformation(f"pi<{j.name}>", unit_internal_prof(cat), j,
                                  pl, pr,
                                  {w: j.r[(parts[w][0], parts[w][1])]
                                   for w in arrs})
    return InternalTabulation(j, cat, pl, pr, cell)


def whisker_projection(p, xi, unit):
    """Post-compose a transformation into a unit profunctor with an
    internal functor out of that category; ``unit`` is
    ``unit_internal_prof(p.target)``, which callers build once."""
    src = xi.hsrc
    return InternalTransformation(
        f"({p.name}.{xi.name})", src, unit,
        internal_compose(p, xi.vsrc), internal_compose(p, xi.vtgt),
        {x: p.arr_map[xi.map[x]] for x in src.het})


def paste_onto_cell(cell, f):
    """Pre-compose a transformation out of unit(T) with a functor into T."""
    x = f.source
    return InternalTransformation(
        f"({cell.name}.{f.name})", unit_internal_prof(x), cell.htgt,
        internal_compose(cell.vsrc, f), internal_compose(cell.vtgt, f),
        {a: cell.map[f.arr_map[a]] for a in x.arr})


def factor_through_tabulation(t, phi_a, phi_b, phi):
    """The explicit section: objects go to the object part of phi, arrows
    to the square assembled from the two whiskers."""
    x = phi.hsrc.source
    j, a, b = t.j, t.j.source, t.j.target
    phi0 = transf_object_part(phi)
    arr_map = {}
    for h in x.arr:
        arr_map[h] = f"(({phi0[x.d0[h]]},{phi_b.arr_map[h]})," \
                     f"({phi_a.arr_map[h]},{phi0[x.d1[h]]}))"
    return InternalFunctor("fac", x, t.category,
                           {o: phi0[o] for o in x.obj}, arr_map)


def default_internal_probes():
    from . import zoo
    return [from_fincat(zoo.terminal_category()),
            from_fincat(zoo.walking_arrow()),
            from_fincat(zoo.parallel_pair())]


def verify_internal_tabulation(t, probes=None):
    """Replay both universal properties and opcartesianness of the
    defining transformation over a probe set."""
    if probes is None:
        probes = default_internal_probes()
    j = t.j
    a, b = j.source, j.target
    ua, ub = unit_internal_prof(a), unit_internal_prof(b)
    ut = unit_internal_prof(t.category)
    checked = {"one_dimensional": 0, "two_dimensional": 0, "opcartesian": 0}

    factored = {}
    for x in probes:
        ux = unit_internal_prof(x)
        into_t = all_internal_functors(x, t.category)
        for phi_a in all_internal_functors(x, a):
            for phi_b in all_internal_functors(x, b):
                for phi in all_internal_transformations(ux, j, phi_a, phi_b):
                    hits = [f for f in into_t
                            if internal_compose(t.proj_left, f) == phi_a
                            and internal_compose(t.proj_right, f) == phi_b
                            and paste_onto_cell(t.cell, f).map == phi.map]
                    if len(hits) != 1:
                        return False, {"stage": "one-dimensional",
                                       "probe": x.name, "count": len(hits)}
                    explicit = factor_through_tabulation(t, phi_a, phi_b, phi)
                    if explicit.obj_map != hits[0].obj_map or \
                            explicit.arr_map != hits[0].arr_map:
                        return False, {"stage": "one-dimensional",
                                       "probe": x.name,
                                       "reason": "explicit section differs"}
                    factored[(id(x), phi_a, phi_b, phi)] = hits[0]
                    checked["one_dimensional"] += 1

    for x in probes:
        ux = unit_internal_prof(x)
        pairs = [(k[1], k[2], k[3], v) for k, v in factored.items()
                 if k[0] == id(x)]
        for (phi_a, phi_b, phi, fac1) in pairs:
            phi0 = transf_object_part(phi)
            for (psi_a, psi_b, psi, fac2) in pairs:
                psi0 = transf_object_part(psi)
                squares = [
                    (xi_a, xi_b)
                    for xi_a in all_internal_transformations(ux, ua, phi_a, psi_a)
                    for xi_b in all_internal_transformations(ux, ub, phi_b, psi_b)
                    if all(j.l[(xi_a.map[h], psi0[x.d1[h]])] ==
                           j.r[(phi0[x.d0[h]], xi_b.map[h])] for h in x.arr)]
                lifts = (all_internal_transformations(ux, ut, fac1, fac2)
                         if squares else [])
                for xi_a, xi_b in squares:
                    hits = [xi for xi in lifts
                            if whisker_projection(t.proj_left, xi, ua).map == xi_a.map
                            and whisker_projection(t.proj_right, xi, ub).map == xi_b.map]
                    if len(hits) != 1:
                        return False, {"stage": "two-dimensional",
                                       "probe": x.name, "count": len(hits)}
                    checked["two_dimensional"] += 1

    # opcartesianness of the defining transformation: cells out of unit(T)
    # over factored boundaries correspond to cells out of J
    for c in probes:
        k = unit_internal_prof(c)
        for f in all_internal_functors(a, c):
            for g in all_internal_functors(b, c):
                fa = internal_compose(f, t.proj_left)
                gb = internal_compose(g, t.proj_right)
                chis = all_internal_transformations(ut, k, fa, gb)
                cells = all_internal_transformations(j, k, f, g) if chis else []
                for chi in chis:
                    hits = [cp for cp in cells
                            if all(cp.map[t.cell.map[w]] == chi.map[w]
                                   for w in t.category.arr)]
                    if len(hits) != 1:
                        return False, {"stage": "opcartesian",
                                       "probe": c.name, "count": len(hits)}
                    # the factorization is the object part of chi
                    if any(hits[0].map[x] != chi.map[t.category.e[x]]
                           for x in j.het):
                        return False, {"stage": "opcartesian",
                                       "probe": c.name,
                                       "reason": "object-part formula differs"}
                    checked["opcartesian"] += 1
    return True, checked
