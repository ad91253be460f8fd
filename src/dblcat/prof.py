"""Profunctors between finite categories, square cells, composition by
explicit coend quotients, companions/conjoints, restrictions/extensions and
the right hom.

A profunctor J : A -/-> B assigns to each pair of objects (a, b) a finite
fiber of heteromorphisms and carries a two-sided action: for u : a' -> a,
j in J(a, b) and v : b -> b' the element ``act(u, j, v)`` lives in
J(a', b').  All data is tabulated; every universal property below is
decided by finite enumeration.

Elements of a composite J * H are equivalence classes of pairs (j, h)
under sliding middle morphisms across the pair.  Pairs are enumerated in
naming order (middle object, left fiber position, right fiber position) and
each class is named after its least member in that order, so recomputing a
composite always yields the same tables.  ``hcompose``, the unitors and
``associator`` take a ``compose=`` argument; passing them one
``memo_compose()`` lets a computation compose each distinct pair once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .fincat import (FinCategory, Functor, compose_functors, identity_functor,
                     remembering)


@dataclass(frozen=True, eq=True)
class Profunctor:
    name: str = field(compare=False)
    source: FinCategory
    target: FinCategory
    fibers: dict          # (a, b) -> tuple of element ids
    action: dict          # (u, a, b, j, v) -> element id

    def __hash__(self):
        # computed once, kept in the instance __dict__ rather than a field
        if "_hash" not in self.__dict__:
            fibers = tuple(sorted((k, tuple(v)) for k, v in self.fibers.items()))
            object.__setattr__(self, "_hash", hash((self.source, self.target, fibers)))
        return self.__dict__["_hash"]

    def fiber(self, a, b):
        return self.fibers.get((a, b), ())

    def act(self, u, a, b, j, v):
        """Act by u : a' -> a on the left and v : b -> b' on the right."""
        return self.action[(u, a, b, j, v)]

    def act_left(self, u, a, b, j):
        return self.act(u, a, b, j, self.target.identity(b))

    def act_right(self, a, b, j, v):
        return self.act(self.source.identity(a), a, b, j, v)

    def elements(self):
        """All (a, b, j) triples in deterministic order."""
        for a in self.source.objects:
            for b in self.target.objects:
                for j in self.fiber(a, b):
                    yield a, b, j


def validate_profunctor(p):
    """Exhaustively check the fiber/action axioms."""
    problems = []
    ac, bc = p.source, p.target
    for (a, b) in p.fibers:
        if a not in ac.objects or b not in bc.objects:
            problems.append(f"fiber at ({a}, {b}) outside the boundary categories")
    for a, b, j in p.elements():
        for u in ac.into(a):
            for v in bc.out_of(b):
                out = p.action.get((u, a, b, j, v))
                if out is None:
                    problems.append(f"action missing on ({u}, {j}, {v})")
                elif out not in p.fiber(ac.src[u], bc.tgt[v]):
                    problems.append(f"action on ({u}, {j}, {v}) lands outside its fiber")
        if p.action.get((ac.identity(a), a, b, j, bc.identity(b))) != j:
            problems.append(f"identity action moves {j}")
    for a, b, j in p.elements():
        for u1 in ac.into(a):
            a1 = ac.src[u1]
            for v1 in bc.out_of(b):
                b1 = bc.tgt[v1]
                mid = p.action.get((u1, a, b, j, v1))
                if mid is None:
                    continue
                for u2 in ac.into(a1):
                    for v2 in bc.out_of(b1):
                        two_step = p.action.get((u2, a1, b1, mid, v2))
                        one_step = p.action.get((ac.compose(u1, u2), a, b, j,
                                                 bc.compose(v2, v1)))
                        if two_step != one_step:
                            problems.append(
                                f"action not functorial on ({u2};{u1}, {j}, {v1};{v2})")
    return problems


def unit_prof(cat):
    """The unit (hom) profunctor of a category."""
    fibers = {(a, b): cat.hom(a, b) for a in cat.objects for b in cat.objects
              if cat.hom(a, b)}
    table = cat.table     # every pair below is composable by construction
    action = {}
    for (a, b), elems in fibers.items():
        for j in elems:
            for u in cat.into(a):
                ju = table[(j, u)]
                for v in cat.out_of(b):
                    action[(u, a, b, j, v)] = table[(v, ju)]
    return Profunctor(f"1_{cat.name}", cat, cat, fibers, action)


def empty_prof(source, target):
    return Profunctor(f"0_{source.name}_{target.name}", source, target, {}, {})


def companion(f):
    """f_* : A -/-> C for f : A -> C, with f_*(a, c) = C(f a, c)."""
    ac, cc = f.source, f.target
    fibers = {(a, c): cc.hom(f.obj[a], c) for a in ac.objects
              for c in cc.objects if cc.hom(f.obj[a], c)}
    action = {}
    for (a, c), elems in fibers.items():
        for j in elems:
            for u in ac.into(a):
                ju = cc.compose(j, f.mor[u])
                for v in cc.out_of(c):
                    action[(u, a, c, j, v)] = cc.compose(v, ju)
    return Profunctor(f"{f.name}_*", ac, cc, fibers, action)


def conjoint(f):
    """f^* : C -/-> A for f : A -> C, with f^*(c, a) = C(c, f a)."""
    ac, cc = f.source, f.target
    fibers = {(c, a): cc.hom(c, f.obj[a]) for c in cc.objects
              for a in ac.objects if cc.hom(c, f.obj[a])}
    action = {}
    for (c, a), elems in fibers.items():
        for j in elems:
            for u in cc.into(c):
                ju = cc.compose(j, u)
                for v in ac.out_of(a):
                    action[(u, c, a, j, v)] = cc.compose(f.mor[v], ju)
    return Profunctor(f"{f.name}^*", cc, ac, fibers, action)


# ---------------------------------------------------------------------------
# cells


@dataclass(frozen=True, eq=True)
class Cell:
    """A square cell between profunctors.

    ``hsrc : A -/-> B`` on top, ``htgt : C -/-> D`` on the bottom,
    ``vsrc : A -> C`` and ``vtgt : B -> D`` on the sides; ``comp`` maps each
    (a, b, j) with j in hsrc(a, b) to an element of htgt(vsrc a, vtgt b).
    """

    name: str = field(compare=False)
    hsrc: Profunctor
    htgt: Profunctor
    vsrc: Functor
    vtgt: Functor
    comp: dict

    def __hash__(self):
        return hash((self.hsrc, self.htgt,
                     tuple(sorted(self.comp.items()))))

    def __call__(self, a, b, j):
        return self.comp[(a, b, j)]

    def is_horizontal(self):
        """Identity vertical boundaries."""
        f, g = self.vsrc, self.vtgt
        return all(f.obj[a] == a for a in f.source.objects) and \
            all(f.mor[m] == m for m in f.source.morphisms) and \
            all(g.obj[b] == b for b in g.source.objects) and \
            all(g.mor[m] == m for m in g.source.morphisms)


def validate_cell(c):
    problems = []
    j, k, f, g = c.hsrc, c.htgt, c.vsrc, c.vtgt
    if f.source != j.source or g.source != j.target:
        problems.append("vertical boundary sources do not match the top")
    if f.target != k.source or g.target != k.target:
        problems.append("vertical boundary targets do not match the bottom")
    if problems:
        return problems
    for a, b, x in j.elements():
        img = c.comp.get((a, b, x))
        if img is None:
            problems.append(f"component missing at ({a}, {b}, {x})")
        elif img not in k.fiber(f.obj[a], g.obj[b]):
            problems.append(f"component at ({a}, {b}, {x}) lands outside its fiber")
    if problems:
        return problems
    for a, b, x in j.elements():
        for u in j.source.into(a):
            for v in j.target.out_of(b):
                a2, b2 = j.source.src[u], j.target.tgt[v]
                lhs = c.comp[(a2, b2, j.act(u, a, b, x, v))]
                rhs = k.act(f.mor[u], f.obj[a], g.obj[b], c.comp[(a, b, x)], g.mor[v])
                if lhs != rhs:
                    problems.append(f"naturality fails at ({u}, {x}, {v})")
    return problems


def identity_cell(p):
    return Cell(f"id_{p.name}", p, p,
                identity_functor(p.source), identity_functor(p.target),
                {(a, b, j): j for a, b, j in p.elements()})


def unit_cell(f):
    """The vertical cell 1_A -> 1_C over a functor f : A -> C."""
    ua, uc = unit_prof(f.source), unit_prof(f.target)
    return Cell(f"1_{f.name}", ua, uc, f, f,
                {(a, b, m): f.mor[m] for a, b, m in ua.elements()})


def vcompose(bot, top):
    """Vertical (tile-on-tile) composite: ``top`` first, then ``bot``."""
    if bot.hsrc != top.htgt:
        raise ValueError("cells not vertically composable")
    f = compose_functors(bot.vsrc, top.vsrc)
    g = compose_functors(bot.vtgt, top.vtgt)
    comp = {}
    for a, b, j in top.hsrc.elements():
        mid = top.comp[(a, b, j)]
        comp[(a, b, j)] = bot.comp[(top.vsrc.obj[a], top.vtgt.obj[b], mid)]
    return Cell(f"({bot.name}.{top.name})", top.hsrc, bot.htgt, f, g, comp)


def nat_transf_as_cell(alpha):
    """A natural transformation s => r as a vertical cell 1_A -> 1_M."""
    s, r = alpha.source, alpha.target
    ua, um = unit_prof(s.source), unit_prof(s.target)
    m = s.target
    comp = {}
    for a, b, x in ua.elements():
        # the square of alpha on x : a -> b, read as s a -> r b
        comp[(a, b, x)] = m.compose(r.mor[x], alpha.components[a])
    return Cell("nt", ua, um, s, r, comp)


# ---------------------------------------------------------------------------
# composition of profunctors: explicit coend quotient


class UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


def pair_id(b, j, h):
    return f"{b}|{j}|{h}"


@dataclass(frozen=True, eq=True)
class CoendWitness:
    """Quotient data of a composite: for every boundary pair (a, e), the map
    from raw pairs (b, j, h) to the least member of their class, and the
    inverse of the naming ``pair_id`` on those least members."""

    left: Profunctor
    right: Profunctor
    composite: Profunctor
    classes: dict          # (a, e) -> {(b, j, h): (b0, j0, h0)}
    named: dict = field(compare=False, repr=False)  # (a, e) -> {id: (b0, j0, h0)}

    def least(self, a, e, cls_id):
        """The least pair (b, j, h) of the class named cls_id at (a, e)."""
        return self.named[(a, e)][cls_id]

    def rep(self, a, e, b, j, h):
        return self.classes[(a, e)][(b, j, h)]

    def class_id(self, a, e, b, j, h):
        return pair_id(*self.rep(a, e, b, j, h))


def compose_prof(j, h):
    """The composite J * H with its coend witness.

    Pairs (j, h) sharing a middle object are identified under sliding a
    middle morphism v across: (v . j, h) ~ (j, h . v).  The pairs at each
    boundary (a, e) are enumerated in naming order (middle object, left
    fiber position, right fiber position).  A union-find over positions
    keeps the smaller root, so each root is the least member of its class;
    classes are named after it and listed in that order.  ``memo_compose()``
    gives a version that composes each distinct pair once.
    """
    if j.target != h.source:
        raise ValueError("profunctors not composable")
    ac, bc, ec = j.source, j.target, h.target
    jact, hact = j.action, h.action
    slides = [(v, bc.src[v], bc.tgt[v]) for v in bc.morphisms]
    # act once per (v, e, y) here and per (a, v, x) below, not once per pair
    pulled = {(v, e): [(y, hact[(v, b2, e, y, ec.identity(e))])
                       for y in h.fiber(b2, e)]
              for v, b1, b2 in slides for e in ec.objects}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    classes, named, fibers = {}, {}, {}
    for a in ac.objects:
        ida = ac.identity(a)
        pushed = [(v, b1, b2, [(x, jact[(ida, a, b1, x, v)])
                               for x in j.fiber(a, b1)])
                  for v, b1, b2 in slides]
        for e in ec.objects:
            pairs = [(b, x, y) for b in bc.objects
                     for x in j.fiber(a, b) for y in h.fiber(b, e)]
            pos = {p: i for i, p in enumerate(pairs)}
            parent = list(range(len(pairs)))
            for v, b1, b2, xs in pushed:
                ys = pulled[(v, e)]
                for x, xv in xs:
                    for y, vy in ys:
                        r1, r2 = find(pos[(b2, xv, y)]), find(pos[(b1, x, vy)])
                        if r1 < r2:
                            r1, r2 = r2, r1
                        parent[r1] = r2       # the smaller root survives
            groups = {}       # root -> members; roots come first, in order
            for i in range(len(pairs)):
                groups.setdefault(find(i), []).append(i)
            classes[(a, e)] = {pairs[i]: pairs[r]
                               for r, members in groups.items() for i in members}
            named[(a, e)] = {pair_id(*pairs[r]): pairs[r] for r in groups}
            if groups:
                fibers[(a, e)] = tuple(named[(a, e)])
    action = {}
    for (a, e), elems in fibers.items():
        into_a = [(u, ac.src[u]) for u in ac.into(a)]
        out_e = [(w, ec.tgt[w]) for w in ec.out_of(e)]
        for cid in elems:
            b, x, y = named[(a, e)][cid]
            idb = bc.identity(b)
            yws = [(w, e2, hact[(idb, b, e, y, w)]) for w, e2 in out_e]
            for u, a2 in into_a:
                xu = jact[(u, a, b, x, idb)]
                for w, e2, yw in yws:
                    action[(u, a, e, cid, w)] = pair_id(
                        *classes[(a2, e2)][(b, xu, yw)])
    composite = Profunctor(f"({j.name}*{h.name})", ac, ec, fibers, action)
    return composite, CoendWitness(j, h, composite, classes, named)


def memo_compose():
    """A ``compose_prof`` that remembers its results while it is alive.

    Keys are ``(j.name, h.name, j, h)``: equal profunctors built separately
    share one composite, and the composite's name stays exact.  Every hit
    returns the same objects, which callers must not mutate.  Make one per
    computation and pass it as ``compose=``; nothing outlives it.
    """
    memo = remembering(lambda j_name, h_name, j, h: compose_prof(j, h))
    return lambda j, h: memo(j.name, h.name, j, h)


def hcompose(left, right, compose=compose_prof):
    """Horizontal composite of cells: left : J -> K over (f, g) beside
    right : H -> L over (g, h) gives J*H -> K*L over (f, h).  ``compose``
    builds J*H and K*L; pass a ``memo_compose()`` to share them."""
    if left.vtgt != right.vsrc:
        raise ValueError("cells do not share their middle boundary")
    _, src_witness = compose(left.hsrc, right.hsrc)
    _, tgt_witness = compose(left.htgt, right.htgt)
    f, g, h = left.vsrc, left.vtgt, right.vtgt
    jh, kl = src_witness.composite, tgt_witness.composite
    comp = {}
    for a, e, cid in jh.elements():
        b, x, y = src_witness.least(a, e, cid)
        comp[(a, e, cid)] = tgt_witness.class_id(
            f.obj[a], h.obj[e], g.obj[b],
            left.comp[(a, b, x)], right.comp[(b, e, y)])
    return Cell(f"({left.name}|{right.name})", jh, kl, f, h, comp)


@dataclass(frozen=True, eq=False)
class NaturalityPlan:
    """The order in which ``cells_between`` binds the components of a cell
    out of J, and when it tests each naturality square.

    ``elems`` lists J's elements in ``j.elements()`` order.  A square
    (i, u, v, i2) says that a cell over (f, g) sends ``elems[i2]``, which is
    u . elems[i] . v, to f(u) . c . g(v), where c is its component at
    ``elems[i]``; ``squares[n]`` holds the squares whose later position
    max(i, i2) is n.  A plan depends on J alone, so a caller that searches
    several boundaries out of one J builds it once.
    """

    j: Profunctor
    elems: tuple
    squares: tuple


def naturality_plan(j):
    """The NaturalityPlan of cells out of J."""
    elems = tuple(j.elements())
    pos = {e: n for n, e in enumerate(elems)}
    squares = [[] for _ in elems]
    ac, bc = j.source, j.target
    for i, (a, b, x) in enumerate(elems):
        for u in ac.into(a):
            for v in bc.out_of(b):
                i2 = pos[(ac.src[u], bc.tgt[v], j.act(u, a, b, x, v))]
                squares[max(i, i2)].append((i, u, v, i2))
    return NaturalityPlan(j, elems, tuple(map(tuple, squares)))


def cells_between(j, k, f, g, plan=None):
    """Every cell J -> K with vertical boundary (f, g), named c0, c1, ...

    The order is lexicographic in the components listed along
    ``j.elements()``, each ranging over its fiber of K in fiber order;
    witness names such as ``c2`` depend on it, and ``comp`` is keyed in
    that listing order.  A backtracking search with forward checking:
    components are bound in order and each naturality square is tested as
    soon as both of its components are bound.  ``plan`` is
    ``naturality_plan(j)``, built here when not given.
    """
    if plan is None:
        plan = naturality_plan(j)
    elif plan.j is not j and plan.j != j:
        raise ValueError("naturality plan was built for another profunctor")
    # a tuple compares its items by identity first, then by equality
    if (f.source, g.source, f.target, g.target) != \
            (j.source, j.target, k.source, k.target):
        return []
    elems = plan.elems
    kact = k.action
    # (fiber, squares) per position, made on the first visit: most searches
    # are cut off long before their last position
    levels = [None] * len(elems)

    def level(n):
        a, b, _ = elems[n]
        # per square: the component at i2 must be kact[(fu, fa, gb, comp[i], gv)]
        checks = [(i, f.mor[u], f.obj[elems[i][0]], g.obj[elems[i][1]],
                   g.mor[v], i2) for i, u, v, i2 in plan.squares[n]]
        levels[n] = (k.fiber(f.obj[a], g.obj[b]), checks)
        return levels[n]

    out = []
    pick = [None] * len(elems)

    def extend(n):
        if n == len(elems):
            out.append(Cell(f"c{len(out)}", j, k, f, g, dict(zip(elems, pick))))
            return
        fiber, checks = levels[n] or level(n)
        for y in fiber:
            pick[n] = y
            if all(pick[i2] == kact[(fu, fa, gb, pick[i], gv)]
                   for i, fu, fa, gb, gv, i2 in checks):
                extend(n + 1)

    extend(0)
    return out


# ---------------------------------------------------------------------------
# unitors, associator, inverses


def bijects_onto(images, fiber):
    """Whether the listed images are distinct and make up the fiber."""
    return len(set(images)) == len(images) and set(images) == set(fiber)


def componentwise_bijective(c):
    f, g = c.vsrc, c.vtgt
    return all(bijects_onto([c.comp[(a, b, x)] for x in c.hsrc.fiber(a, b)],
                            c.htgt.fiber(f.obj[a], g.obj[b]))
               for a in c.hsrc.source.objects for b in c.hsrc.target.objects)


def invert_horizontal_cell(c):
    """Inverse of a componentwise-bijective cell with identity sides."""
    if not c.is_horizontal():
        raise ValueError("only horizontal cells are inverted this way")
    if not componentwise_bijective(c):
        raise ValueError(f"cell {c.name} is not componentwise bijective")
    comp = {}
    f, g = c.vsrc, c.vtgt
    for a, b, x in c.hsrc.elements():
        comp[(a, b, c.comp[(a, b, x)])] = x
    return Cell(f"{c.name}~", c.htgt, c.hsrc,
                identity_functor(c.htgt.source), identity_functor(c.htgt.target),
                comp)


def functor_inverse(f):
    """Inverse functor if f is an isomorphism of categories, else None."""
    if len(set(f.obj.values())) != len(f.target.objects) or \
            len(set(f.mor.values())) != len(f.target.morphisms) or \
            len(f.source.objects) != len(f.target.objects) or \
            len(f.source.morphisms) != len(f.target.morphisms):
        return None
    inv = Functor(f"{f.name}~", f.target, f.source,
                  {v: k for k, v in f.obj.items()},
                  {v: k for k, v in f.mor.items()})
    return inv if not inv.validate() else None


def is_invertible_cell(c):
    """Invertible for vertical composition: both vertical boundaries are
    category isomorphisms and the components biject."""
    return functor_inverse(c.vsrc) is not None and \
        functor_inverse(c.vtgt) is not None and componentwise_bijective(c)


def left_unitor(p, compose=compose_prof):
    """The invertible horizontal cell 1_A * P -> P."""
    _, witness = compose(unit_prof(p.source), p)
    up = witness.composite
    comp = {}
    for a, b, cid in up.elements():
        mid, u, x = witness.least(a, b, cid)
        comp[(a, b, cid)] = p.act_left(u, mid, b, x)
    return Cell(f"lu_{p.name}", up, p,
                identity_functor(p.source), identity_functor(p.target), comp)


def right_unitor(p, compose=compose_prof):
    """The invertible horizontal cell P * 1_B -> P."""
    _, witness = compose(p, unit_prof(p.target))
    pu = witness.composite
    comp = {}
    for a, b, cid in pu.elements():
        mid, x, v = witness.least(a, b, cid)
        comp[(a, b, cid)] = p.act_right(a, mid, x, v)
    return Cell(f"ru_{p.name}", pu, p,
                identity_functor(p.source), identity_functor(p.target), comp)


def associator(j, h, k, compose=compose_prof):
    """The invertible horizontal cell (J*H)*K -> J*(H*K)."""
    jh, wjh = compose(j, h)
    jh_k, w_left = compose(jh, k)
    hk, whk = compose(h, k)
    j_hk, w_right = compose(j, hk)
    comp = {}
    for a, z, cid in jh_k.elements():
        e, xy, y2 = w_left.least(a, z, cid)        # xy in (J*H)(a, e), y2 in K(e, z)
        b, x, y = wjh.least(a, e, xy)              # x in J(a, b), y in H(b, e)
        inner = whk.class_id(b, z, e, y, y2)       # class of (y, y2) in (H*K)(b, z)
        comp[(a, z, cid)] = w_right.class_id(a, z, b, x, inner)
    return Cell(f"assoc_{j.name}_{h.name}_{k.name}", jh_k, j_hk,
                identity_functor(j.source), identity_functor(k.target), comp)


# ---------------------------------------------------------------------------
# restriction, extension, cartesian and opcartesian cells


def restrict(k, f, g):
    """The restriction K(f, g) : A -/-> B of K : C -/-> D along f : A -> C
    and g : B -> D, with fibers K(f a, g b)."""
    ac, bc = f.source, g.source
    fibers = {(a, b): k.fiber(f.obj[a], g.obj[b]) for a in ac.objects
              for b in bc.objects if k.fiber(f.obj[a], g.obj[b])}
    action = {}
    for (a, b), elems in fibers.items():
        for x in elems:
            for u in ac.into(a):
                for v in bc.out_of(b):
                    action[(u, a, b, x, v)] = k.act(
                        f.mor[u], f.obj[a], g.obj[b], x, g.mor[v])
    return Profunctor(f"{k.name}({f.name},{g.name})", ac, bc, fibers, action)


def cartesian_cell(k, f, g):
    """The canonical cartesian cell K(f, g) -> K over (f, g)."""
    r = restrict(k, f, g)
    return Cell(f"cart_{k.name}({f.name},{g.name})", r, k, f, g,
                {(a, b, x): x for a, b, x in r.elements()})


def extend(j, f, g):
    """The extension f^* * (J * g_*) : C -/-> D of J : A -/-> B along
    f : A -> C and g : B -> D, with its two coend witnesses."""
    jg, w_inner = compose_prof(j, companion(g))
    ext, w_outer = compose_prof(conjoint(f), jg)
    return ext, w_inner, w_outer


def opcartesian_cell(j, f, g):
    """The canonical opcartesian cell J -> f^* * (J * g_*) over (f, g)."""
    ext, w_inner, w_outer = extend(j, f, g)
    ac, bc = j.source, j.target
    cc, dc = f.target, g.target
    comp = {}
    for a, b, x in j.elements():
        fa, gb = f.obj[a], g.obj[b]
        inner = w_inner.class_id(a, gb, b, x, dc.identity(gb))
        comp[(a, b, x)] = w_outer.class_id(fa, gb, a, cc.identity(fa), inner)
    return Cell(f"opcart_{j.name}({f.name},{g.name})", j, ext, f, g, comp)


def is_cartesian(c):
    """A cell is cartesian iff its comparison with the canonical restriction
    cell is a componentwise bijection."""
    return componentwise_bijective(c)


def is_opcartesian(c):
    """A cell J -> K over (f, g) is opcartesian iff the comparison map from
    the canonical extension of J onto K bijects in every fiber."""
    f, g = c.vsrc, c.vtgt
    j, k = c.hsrc, c.htgt
    ext, w_inner, w_outer = extend(j, f, g)
    for cobj in f.target.objects:
        for dobj in g.target.objects:
            imgs = []
            for cid in ext.fiber(cobj, dobj):
                a, p, inner = w_outer.least(cobj, dobj, cid)   # p : c -> f a
                b, x, q = w_inner.least(a, dobj, inner)        # q : g b -> d
                imgs.append(k.act(p, f.obj[a], g.obj[b], c.comp[(a, b, x)], q))
            if not bijects_onto(imgs, k.fiber(cobj, dobj)):
                return False
    return True


# ---------------------------------------------------------------------------
# companion/conjoint bending cells and star factorizations


def companion_cells(f):
    """The pair (eps, eta) bending the companion: eps : f_* -> 1_C over
    (f, id) and eta : 1_A -> f_* over (id, f)."""
    fs = companion(f)
    uc = unit_prof(f.target)
    ua = unit_prof(f.source)
    eps = Cell(f"eps_{f.name}*", fs, uc, f, identity_functor(f.target),
               {(a, c, x): x for a, c, x in fs.elements()})
    eta = Cell(f"eta_{f.name}*", ua, fs, identity_functor(f.source), f,
               {(a, b, u): f.mor[u] for a, b, u in ua.elements()})
    return eps, eta


def conjoint_cells(f):
    """The pair (eps, eta) bending the conjoint: eps : f^* -> 1_C over
    (id, f) and eta : 1_A -> f^* over (f, id)."""
    fs = conjoint(f)
    uc = unit_prof(f.target)
    ua = unit_prof(f.source)
    eps = Cell(f"eps_{f.name}^", fs, uc, identity_functor(f.target), f,
               {(c, a, x): x for c, a, x in fs.elements()})
    eta = Cell(f"eta_{f.name}^", ua, fs, f, identity_functor(f.source),
               {(a, b, u): f.mor[u] for a, b, u in ua.elements()})
    return eps, eta


def lower_star(c):
    """The horizontal mate J * g_* -> f_* * K of a cell J -> K over (f, g).

    Componentwise bijectivity of this mate is the pullback-pasting
    (base-change) condition used by the exactness checks.
    """
    f, g = c.vsrc, c.vtgt
    j, k = c.hsrc, c.htgt
    jg, w_src = compose_prof(j, companion(g))
    fk, w_tgt = compose_prof(companion(f), k)
    cc, dc = f.target, g.target
    comp = {}
    for a, d, cid in jg.elements():
        b, x, q = w_src.least(a, d, cid)           # x in J(a, b), q : g b -> d
        fa, gb = f.obj[a], g.obj[b]
        val = k.act(cc.identity(fa), fa, gb, c.comp[(a, b, x)], q)
        comp[(a, d, cid)] = w_tgt.class_id(a, d, fa, cc.identity(fa), val)
    return Cell(f"low_{c.name}", jg, fk,
                identity_functor(j.source), identity_functor(g.target), comp)


def upper_star(c):
    """The horizontal mate f^* * J -> K * g^* of a cell J -> K over (f, g)."""
    f, g = c.vsrc, c.vtgt
    j, k = c.hsrc, c.htgt
    fj, w_src = compose_prof(conjoint(f), j)
    kg, w_tgt = compose_prof(k, conjoint(g))
    cc, dc = f.target, g.target
    comp = {}
    for cobj, b, cid in fj.elements():
        a, p, x = w_src.least(cobj, b, cid)        # p : c -> f a, x in J(a, b)
        fa, gb = f.obj[a], g.obj[b]
        val = k.act(p, fa, gb, c.comp[(a, b, x)], dc.identity(gb))
        comp[(cobj, b, cid)] = w_tgt.class_id(cobj, b, gb, val, dc.identity(gb))
    return Cell(f"up_{c.name}", fj, kg,
                identity_functor(f.target), identity_functor(j.target), comp)


# ---------------------------------------------------------------------------
# right hom


def family_id(e_order, fam):
    parts = []
    for e in e_order:
        for h, kv in fam.get(e, {}).items():
            parts.append(f"{e}:{h}>{kv}")
    return "{" + ";".join(parts) + "}"


@dataclass(frozen=True, eq=True)
class RhomWitness:
    profunctor: Profunctor
    families: dict         # (a, b) -> {element id: {e: {h: k}}}

    def __hash__(self):
        return hash(self.profunctor)

    def family(self, a, b, elem):
        return self.families[(a, b)][elem]


def rhom(k, h):
    """The right hom K <| H : A -/-> B of K : A -/-> E and H : B -/-> E.

    An element over (a, b) is a family of maps H(b, e) -> K(a, e), natural
    in e; the action whiskers a family on both sides.
    """
    if k.target != h.target:
        raise ValueError("right hom needs a common target")
    ac, bc, ec = k.source, h.source, k.target

    def natural(a, b, fam):
        for e in ec.objects:
            for w in ec.out_of(e):
                e2 = ec.tgt[w]
                for x in h.fiber(b, e):
                    moved = h.act_right(b, e, x, w)
                    if fam[e2][moved] != k.act_right(a, e, fam[e][x], w):
                        return False
        return True

    families = {}
    fibers = {}
    for a in ac.objects:
        for b in bc.objects:
            per_e = []
            for e in ec.objects:
                dom = h.fiber(b, e)
                cod = k.fiber(a, e)
                maps = [dict(zip(dom, pick))
                        for pick in itertools.product(cod, repeat=len(dom))]
                per_e.append(maps)
            found = {}
            for combo in itertools.product(*per_e):
                fam = dict(zip(ec.objects, combo))
                if natural(a, b, fam):
                    found[family_id(ec.objects, fam)] = fam
            if found:
                fibers[(a, b)] = tuple(sorted(found))
                families[(a, b)] = {fid: found[fid] for fid in sorted(found)}

    action = {}
    for (a, b), elems in fibers.items():
        for fid in elems:
            fam = families[(a, b)][fid]
            for u in ac.into(a):
                a2 = ac.src[u]
                for v in bc.out_of(b):
                    b2 = bc.tgt[v]
                    new = {}
                    for e in ec.objects:
                        new[e] = {}
                        for x in h.fiber(b2, e):
                            pulled = h.act_left(v, b2, e, x)
                            new[e][x] = k.act_left(u, a, e, fam[e][pulled])
                    action[(u, a, b, fid, v)] = family_id(ec.objects, new)
    p = Profunctor(f"({k.name}<|{h.name})", ac, bc, fibers, action)
    return p, RhomWitness(p, families)
