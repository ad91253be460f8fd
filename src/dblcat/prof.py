"""Profunctors between finite categories, square cells, composition by
explicit coend quotients, companions/conjoints, restrictions/extensions and
the right hom.

A profunctor J : A -/-> B assigns to each pair of objects (a, b) a finite
fiber of heteromorphisms and carries two one-sided actions: for
u : a' -> a and j in J(a, b) the left action gives j . u in J(a', b), and
for v : b -> b' the right action gives v . j in J(a, b').  The two commute,
(v . j) . u = v . (j . u), so the two-sided ``act(u, j, v)`` is one lookup
on each side.  All data is tabulated, one entry per element and acting
morphism; every universal property below is decided by finite enumeration.
The representable profunctors ``unit_prof``, ``companion`` and
``conjoint`` build their fibers at once and each action table when it is
first read, from their category's composition table: a tabulation reads
only the elements of the unit profunctor of its category, never its
actions.
``elements()`` lists every (a, b, j) as one tuple, built on its first call
and kept with the profunctor.

Elements of a composite J * H are equivalence classes of pairs (j, h)
under sliding non-identity middle morphisms across the pair (an identity
slide joins a pair with itself).  Pairs are enumerated in
naming order (middle object, left fiber position, right fiber position) and
each class is named after its least member in that order, so recomputing a
composite always yields the same tables.

Cells (``cells_between``) and right-hom families (``rhom``) come from
``fincat.backtrack``, the one search behind every enumerator; the loops
it replaced are ``cells_between_oracle`` and ``rhom_families_oracle`` in
``tests/helpers.py``.

``unit_prof``, ``companion``, ``conjoint``, ``compose_prof``,
``naturality_plan``, ``cells_between`` and ``rhom`` are constructions
(``fincat.construction``): one decision builds each once per distinct
arguments.  So the cells that live between unit profunctors or composites
(``unit_cell``, ``nat_transf_as_cell``, ``hcompose``, the unitors,
``associator`` and the bending cells) build those from their arguments,
and within a decision they share them, so the tables of a shared unit are
built once, by whichever reader comes first.

A profunctor hashes its boundary and ``elements()``, and a cell its
``key``: its components listed along ``hsrc.elements()``, kept once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .fincat import (FinCategory, Functor, backtrack, compose_functors,
                     construction, functor_inverse, identity_functor)


class OnFirstRead:
    """An action table of ``Profunctor`` as a non-data descriptor.  A read
    finds the table in the instance ``__dict__`` first, where a profunctor
    built with its tables keeps them, and reaches ``__get__`` only when it
    is missing: on the first read of a representable profunctor's table,
    which is then built and kept there.  Read on the class it raises
    AttributeError, so that the dataclass field has no default."""

    def __set_name__(self, owner, side):
        self.side = side

    def __get__(self, p, owner=None):
        if p is None:
            raise AttributeError(self.side)
        table = p.__dict__[self.side] = _representable_action(p, self.side)
        return table


@dataclass(frozen=True, eq=True)
class Profunctor:
    """J : source -/-> target as its fibers and its two one-sided actions.

    ``left[(u, a, b, j)]`` is j . u in J(a', b) for u : a' -> a, and
    ``right[(a, b, j, v)]`` is v . j in J(a, b') for v : b -> b'; both hold
    an entry for every element and every morphism acting on it, identities
    included.  Equality compares the fibers and both tables.

    A representable profunctor (``unit_prof``, ``companion``,
    ``conjoint``) is built with its fibers only, and builds each table
    from its category's composition table the first time it is read
    (``OnFirstRead``).  The table is then kept in the instance
    ``__dict__``, as a profunctor built with its tables keeps them, so
    every later read is a plain attribute read.
    """

    name: str = field(compare=False)
    source: FinCategory
    target: FinCategory
    fibers: dict          # (a, b) -> tuple of element ids
    left: dict = OnFirstRead()      # (u, a, b, j) -> element id, u : a' -> a
    right: dict = OnFirstRead()     # (a, b, j, v) -> element id, v : b -> b'

    def __hash__(self):
        # computed once, kept in the instance __dict__ rather than a field
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(
                (self.source, self.target, self.elements())))
            return self._hash

    def fiber(self, a, b):
        return self.fibers.get((a, b), ())

    def act(self, u, a, b, j, v):
        """Act by u : a' -> a on the left and v : b -> b' on the right."""
        return self.right[(self.source.src[u], b, self.left[(u, a, b, j)], v)]

    def act_left(self, u, a, b, j):
        return self.left[(u, a, b, j)]

    def act_right(self, a, b, j, v):
        return self.right[(a, b, j, v)]

    def elements(self):
        """All (a, b, j) triples in deterministic order, as a tuple built on
        the first call and kept in the instance __dict__ like the hash."""
        if "_elements" not in self.__dict__:
            fiber = self.fibers.get
            object.__setattr__(self, "_elements", tuple(
                (a, b, j) for a in self.source.objects
                for b in self.target.objects for j in fiber((a, b), ())))
        return self.__dict__["_elements"]


def validate_profunctor(p):
    """Exhaustively check the fiber/action axioms: each side is total,
    lands in its fiber and is functorial (identities act trivially), and
    the two sides commute."""
    problems = []
    ac, bc = p.source, p.target
    left, right = p.left, p.right
    for (a, b) in p.fibers:
        if a not in ac.objects or b not in bc.objects:
            problems.append(f"fiber at ({a}, {b}) outside the boundary categories")
    for a, b, j in p.elements():
        for u in ac.into(a):
            out = left.get((u, a, b, j))
            if out is None:
                problems.append(f"left action missing on ({u}, {j})")
            elif out not in p.fiber(ac.src[u], b):
                problems.append(f"left action on ({u}, {j}) lands outside its fiber")
        for v in bc.out_of(b):
            out = right.get((a, b, j, v))
            if out is None:
                problems.append(f"right action missing on ({j}, {v})")
            elif out not in p.fiber(a, bc.tgt[v]):
                problems.append(f"right action on ({j}, {v}) lands outside its fiber")
        if left.get((ac.identity(a), a, b, j)) != j or \
                right.get((a, b, j, bc.identity(b))) != j:
            problems.append(f"identity action moves {j}")
    if problems:
        return problems
    for a, b, j in p.elements():
        for u1 in ac.into(a):
            a1, mid = ac.src[u1], left[(u1, a, b, j)]
            for u2 in ac.into(a1):
                if left[(u2, a1, b, mid)] != left[(ac.compose(u1, u2), a, b, j)]:
                    problems.append(
                        f"left action not functorial on ({u2};{u1}, {j})")
        for v1 in bc.out_of(b):
            b1, mid = bc.tgt[v1], right[(a, b, j, v1)]
            for v2 in bc.out_of(b1):
                if right[(a, b1, mid, v2)] != right[(a, b, j, bc.compose(v2, v1))]:
                    problems.append(
                        f"right action not functorial on ({j}, {v1};{v2})")
        for u in ac.into(a):
            a1, ju = ac.src[u], left[(u, a, b, j)]
            for v in bc.out_of(b):
                jv = right[(a, b, j, v)]
                if right[(a1, b, ju, v)] != left[(u, a, bc.tgt[v], jv)]:
                    problems.append(f"actions do not commute on ({u}, {j}, {v})")
    return problems


def _representable(name, cat, f=None, g=None):
    """The profunctor C(f a, g b) : A -/-> B of f : A -> C and g : B -> C,
    where None stands for the identity of C = ``cat``.  Its fibers are
    hom-sets of C, listed along A's objects, then B's; its actions are
    j . u = j . f(u) and v . j = g(v) . j, each tabulated on its first
    read by ``_representable_action``."""
    ac = cat if f is None else f.source
    bc = cat if g is None else g.source
    fo = None if f is None else f.obj
    go = None if g is None else g.obj
    hom = cat.hom
    p = object.__new__(Profunctor)      # without tables: see OnFirstRead
    p.__dict__.update(name=name, source=ac, target=bc, _represents=(cat, f, g),
                      fibers={(a, b): fiber for a in ac.objects
                              for b in bc.objects
                              if (fiber := hom(a if fo is None else fo[a],
                                               b if go is None else go[b]))})
    return p


def _representable_action(p, side):
    """The ``side`` ("left" or "right") action table of the representable
    profunctor p, listed by fiber, element, then acting morphism."""
    cat, f, g = p._represents
    table = cat.table     # every pair below is composable by construction
    acts = {}
    if side == "left":
        into, fm = p.source.into, None if f is None else f.mor
        for (a, b), elems in p.fibers.items():
            acting = into(a)
            for j in elems:
                for u in acting:
                    acts[(u, a, b, j)] = table[(j, u if fm is None else fm[u])]
    else:
        out_of, gm = p.target.out_of, None if g is None else g.mor
        for (a, b), elems in p.fibers.items():
            acting = out_of(b)
            for j in elems:
                for v in acting:
                    acts[(a, b, j, v)] = table[(v if gm is None else gm[v], j)]
    return acts


@construction
def unit_prof(cat):
    """The unit (hom) profunctor of a category, C(a, b)."""
    return _representable(f"1_{cat.name}", cat)


def empty_prof(source, target):
    return Profunctor(f"0_{source.name}_{target.name}", source, target,
                      {}, {}, {})


@construction
def companion(f):
    """f_* : A -/-> C for f : A -> C, with f_*(a, c) = C(f a, c)."""
    return _representable(f"{f.name}_*", f.target, f=f)


@construction
def conjoint(f):
    """f^* : C -/-> A for f : A -> C, with f^*(c, a) = C(c, f a)."""
    return _representable(f"{f.name}^*", f.target, g=f)


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

    @cached_property
    def key(self):
        """The components along ``hsrc.elements()``, as equal cells list them."""
        return tuple(map(self.comp.get, self.hsrc.elements()))

    def __hash__(self):
        return hash(self.key)

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
    # the left and the right squares; as both actions commute, every
    # two-sided square follows from them
    ac, bc = j.source, j.target
    for a, b, x in j.elements():
        fa, gb, cx = f.obj[a], g.obj[b], c.comp[(a, b, x)]
        for u in ac.into(a):
            if c.comp[(ac.src[u], b, j.left[(u, a, b, x)])] != \
                    k.left[(f.mor[u], fa, gb, cx)]:
                problems.append(
                    f"naturality fails at ({u}, {x}, {bc.identity(b)})")
        for v in bc.out_of(b):
            if c.comp[(a, bc.tgt[v], j.right[(a, b, x, v)])] != \
                    k.right[(fa, gb, cx, g.mor[v])]:
                problems.append(
                    f"naturality fails at ({ac.identity(a)}, {x}, {v})")
    return problems


def identity_cell(p):
    return Cell(f"id_{p.name}", p, p,
                identity_functor(p.source), identity_functor(p.target),
                {(a, b, j): j for a, b, j in p.elements()})


def unit_cell(f):
    """The vertical cell 1_A -> 1_C over a functor f : A -> C."""
    ua = unit_prof(f.source)
    return Cell(f"1_{f.name}", ua, unit_prof(f.target), f, f,
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
    m = s.target
    ua = unit_prof(s.source)
    comp = {}
    for a, b, x in ua.elements():
        # the square of alpha on x : a -> b, read as s a -> r b
        comp[(a, b, x)] = m.compose(r.mor[x], alpha.components[a])
    return Cell("nt", ua, unit_prof(m), s, r, comp)


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


@construction
def compose_prof(j, h):
    """The composite J * H with its coend witness.

    Pairs (j, h) sharing a middle object are identified under sliding a
    middle morphism v across: (v . j, h) ~ (j, h . v).  Only non-identity
    morphisms slide, as an identity joins each pair with itself.  The pairs
    at each boundary (a, e) are enumerated in naming order (middle object,
    left fiber position, right fiber position).  A union-find over
    positions keeps the smaller root, so each root is the least member of
    its class; classes are named after it, once per root, and listed in
    that order.
    """
    if j.target != h.source:
        raise ValueError("profunctors not composable")
    ac, bc, ec = j.source, j.target, h.target
    jleft, jright, hleft, hright = j.left, j.right, h.left, h.right
    slides = [(v, bc.src[v], bc.tgt[v]) for v in bc.morphisms
              if not bc.is_identity(v)]
    # act once per (v, e, y) here and per (a, v, x) below, not once per pair
    pulled = {(v, e): [(y, hleft[(v, b2, e, y)]) for y in h.fiber(b2, e)]
              for v, b1, b2 in slides for e in ec.objects}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    classes, named, ids, fibers = {}, {}, {}, {}
    for a in ac.objects:
        pushed = [(v, b1, b2, [(x, jright[(a, b1, x, v)])
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
            cls, cls_ids, names = {}, {}, {}
            for r, members in groups.items():
                least = pairs[r]
                cid = pair_id(*least)
                names[cid] = least
                for i in members:
                    cls[pairs[i]] = least
                    cls_ids[pairs[i]] = cid
            classes[(a, e)], named[(a, e)], ids[(a, e)] = cls, names, cls_ids
            if names:
                fibers[(a, e)] = tuple(names)
    # u : a2 -> a acts on the class of (x, y) as the class of (x . u, y),
    # and w : e -> e2 as the class of (x, w . y)
    left, right = {}, {}
    for (a, e), elems in fibers.items():
        into_a = [(u, ids[(ac.src[u], e)]) for u in ac.into(a)]
        out_e = [(w, ids[(a, ec.tgt[w])]) for w in ec.out_of(e)]
        names = named[(a, e)]
        for cid in elems:
            b, x, y = names[cid]
            for u, cls_ids in into_a:
                left[(u, a, e, cid)] = cls_ids[(b, jleft[(u, a, b, x)], y)]
            for w, cls_ids in out_e:
                right[(a, e, cid, w)] = cls_ids[(b, x, hright[(b, e, y, w)])]
    composite = Profunctor(f"({j.name}*{h.name})", ac, ec, fibers, left, right)
    return composite, CoendWitness(j, h, composite, classes, named)


def hcompose(left, right):
    """Horizontal composite of cells: left : J -> K over (f, g) beside
    right : H -> L over (g, h) gives J*H -> K*L over (f, h)."""
    if left.vtgt != right.vsrc:
        raise ValueError("cells do not share their middle boundary")
    _, src_witness = compose_prof(left.hsrc, right.hsrc)
    _, tgt_witness = compose_prof(left.htgt, right.htgt)
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
    """The naturality squares that ``cells_between`` checks on a cell out
    of J.

    ``elems`` lists J's elements in ``j.elements()`` order.  A left square
    (i, u, a, b, i2) says that a cell over (f, g) sends ``elems[i2]``,
    which is elems[i] . u, to c . f(u), where c is its component at
    ``elems[i]`` in J(a, b); a right square (i, v, a, b, i2) says the same
    of v . elems[i] and g(v) . c.  Squares of identities hold for every
    choice, as identities act trivially, and are left out; the two-sided
    squares follow from the rest, as both actions commute.  A plan depends
    on J alone, so a decision that searches several boundaries out of one
    J builds it once.
    """

    elems: tuple
    left: tuple
    right: tuple


@construction
def naturality_plan(j):
    """The NaturalityPlan of cells out of J."""
    elems = j.elements()
    pos = {e: n for n, e in enumerate(elems)}
    ac, bc = j.source, j.target
    left = tuple((i, u, a, b, pos[(ac.src[u], b, j.left[(u, a, b, x)])])
                 for i, (a, b, x) in enumerate(elems)
                 for u in ac.into(a) if not ac.is_identity(u))
    right = tuple((i, v, a, b, pos[(a, bc.tgt[v], j.right[(a, b, x, v)])])
                  for i, (a, b, x) in enumerate(elems)
                  for v in bc.out_of(b) if not bc.is_identity(v))
    return NaturalityPlan(elems, left, right)


@construction
def cells_between(j, k, f, g):
    """Every cell J -> K with vertical boundary (f, g), named c0, c1, ...

    The order is lexicographic in the components listed along
    ``j.elements()``, each ranging over its fiber of K in fiber order;
    witness names such as ``c2`` depend on it, and ``comp`` is keyed in
    that listing order.  A ``fincat.backtrack`` search in which each
    square of ``naturality_plan(j)`` says that the component at i2 is the
    one at i moved by f(u) or g(v).
    """
    plan = naturality_plan(j)
    # a tuple compares its items by identity first, then by equality
    if (f.source, g.source, f.target, g.target) != \
            (j.source, j.target, k.source, k.target):
        return []
    fo, go, fm, gm = f.obj, g.obj, f.mor, g.mor
    fiber = k.fibers.get
    fibers = [fiber((fo[a], go[b]), ()) for a, b, _ in plan.elems]
    if not all(fibers):
        return []
    kl, kr = k.left, k.right
    squares = [(i, i2, {y: (kl[(fm[u], fo[a], go[b], y)],)
                        for y in fibers[i]}) for i, u, a, b, i2 in plan.left]
    squares += [(i, i2, {y: (kr[(fo[a], go[b], y, gm[v])],)
                         for y in fibers[i]}) for i, v, a, b, i2 in plan.right]
    return [Cell(f"c{n}", j, k, f, g, dict(zip(plan.elems, comps)))
            for n, comps in enumerate(backtrack(fibers, squares))]


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


def is_invertible_cell(c):
    """Invertible for vertical composition: both vertical boundaries are
    category isomorphisms and the components biject."""
    return functor_inverse(c.vsrc) is not None and \
        functor_inverse(c.vtgt) is not None and componentwise_bijective(c)


def left_unitor(p):
    """The invertible horizontal cell 1_A * P -> P."""
    _, witness = compose_prof(unit_prof(p.source), p)
    up = witness.composite
    comp = {}
    for a, b, cid in up.elements():
        mid, u, x = witness.least(a, b, cid)
        comp[(a, b, cid)] = p.act_left(u, mid, b, x)
    return Cell(f"lu_{p.name}", up, p,
                identity_functor(p.source), identity_functor(p.target), comp)


def right_unitor(p):
    """The invertible horizontal cell P * 1_B -> P."""
    _, witness = compose_prof(p, unit_prof(p.target))
    pu = witness.composite
    comp = {}
    for a, b, cid in pu.elements():
        mid, x, v = witness.least(a, b, cid)
        comp[(a, b, cid)] = p.act_right(a, mid, x, v)
    return Cell(f"ru_{p.name}", pu, p,
                identity_functor(p.source), identity_functor(p.target), comp)


def associator(j, h, k):
    """The invertible horizontal cell (J*H)*K -> J*(H*K)."""
    jh, wjh = compose_prof(j, h)
    jh_k, w_left = compose_prof(jh, k)
    hk, whk = compose_prof(h, k)
    j_hk, w_right = compose_prof(j, hk)
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
    fibers = {(a, b): fib for a in ac.objects for b in bc.objects
              if (fib := k.fiber(f.obj[a], g.obj[b]))}
    left, right = {}, {}
    for (a, b), elems in fibers.items():
        fa, gb = f.obj[a], g.obj[b]
        for x in elems:
            for u in ac.into(a):
                left[(u, a, b, x)] = k.left[(f.mor[u], fa, gb, x)]
            for v in bc.out_of(b):
                right[(a, b, x, v)] = k.right[(fa, gb, x, g.mor[v])]
    return Profunctor(f"{k.name}({f.name},{g.name})", ac, bc, fibers,
                      left, right)


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
    fs, ua, uc = companion(f), unit_prof(f.source), unit_prof(f.target)
    eps = Cell(f"eps_{f.name}*", fs, uc, f, identity_functor(f.target),
               {(a, c, x): x for a, c, x in fs.elements()})
    eta = Cell(f"eta_{f.name}*", ua, fs, identity_functor(f.source), f,
               {(a, b, u): f.mor[u] for a, b, u in ua.elements()})
    return eps, eta


def conjoint_cells(f):
    """The pair (eps, eta) bending the conjoint: eps : f^* -> 1_C over
    (id, f) and eta : 1_A -> f^* over (f, id)."""
    fs, ua, uc = conjoint(f), unit_prof(f.source), unit_prof(f.target)
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
    cc = f.target
    comp = {}
    for a, d, cid in jg.elements():
        b, x, q = w_src.least(a, d, cid)           # x in J(a, b), q : g b -> d
        fa, gb = f.obj[a], g.obj[b]
        val = k.act_right(fa, gb, c.comp[(a, b, x)], q)
        comp[(a, d, cid)] = w_tgt.class_id(a, d, fa, cc.identity(fa), val)
    return Cell(f"low_{c.name}", jg, fk,
                identity_functor(j.source), identity_functor(g.target), comp)


def upper_star(c):
    """The horizontal mate f^* * J -> K * g^* of a cell J -> K over (f, g)."""
    f, g = c.vsrc, c.vtgt
    j, k = c.hsrc, c.htgt
    fj, w_src = compose_prof(conjoint(f), j)
    kg, w_tgt = compose_prof(k, conjoint(g))
    dc = g.target
    comp = {}
    for cobj, b, cid in fj.elements():
        a, p, x = w_src.least(cobj, b, cid)        # p : c -> f a, x in J(a, b)
        fa, gb = f.obj[a], g.obj[b]
        val = k.act_left(p, fa, gb, c.comp[(a, b, x)])
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


@construction
def rhom(k, h):
    """The right hom K <| H : A -/-> B of K : A -/-> E and H : B -/-> E.

    An element over (a, b) is a family of maps H(b, e) -> K(a, e), natural
    in e, found by ``fincat.backtrack`` with one position per x in H(b, e)
    and listed by ``family_id``.  u : a2 -> a acts by post-composing each
    map with K's left action of u, and v : b -> b2 by pre-composing it
    with H's left action of v.
    """
    if k.target != h.target:
        raise ValueError("right hom needs a common target")
    ac, bc, ec = k.source, h.source, k.target
    # per b, a position per x in H(b, e), and the squares (n, o, e, w):
    # position o holds position n moved by w : e -> e2
    shapes = {}
    for b in bc.objects:
        slots = [(e, x) for e in ec.objects for x in h.fiber(b, e)]
        pos = {slot: n for n, slot in enumerate(slots)}
        shapes[b] = slots, [(n, pos[(ec.tgt[w], h.right[(b, e, x, w)])], e, w)
                            for n, (e, x) in enumerate(slots)
                            for w in ec.out_of(e) if not ec.is_identity(w)]
    families = {}
    fibers = {}
    for a in ac.objects:
        for b in bc.objects:
            slots, squares = shapes[b]
            domains = [k.fiber(a, e) for e, _ in slots]
            moved = [(n, o, {y: (k.right[(a, e, y, w)],) for y in domains[n]})
                     for n, o, e, w in squares]
            found = {}
            for pick in backtrack(domains, moved):
                fam = {e: {} for e in ec.objects}
                for (e, x), y in zip(slots, pick):
                    fam[e][x] = y
                found[family_id(ec.objects, fam)] = fam
            if found:
                fibers[(a, b)] = tuple(sorted(found))
                families[(a, b)] = {fid: found[fid] for fid in sorted(found)}

    # identities act trivially on K and H, hence on their families
    left, right = {}, {}
    for (a, b), elems in fibers.items():
        for fid in elems:
            fam = families[(a, b)][fid]
            for u in ac.into(a):
                left[(u, a, b, fid)] = fid if ac.is_identity(u) else \
                    family_id(ec.objects, {
                        e: {x: k.left[(u, a, e, y)] for x, y in fam[e].items()}
                        for e in ec.objects})
            for v in bc.out_of(b):
                b2 = bc.tgt[v]
                right[(a, b, fid, v)] = fid if bc.is_identity(v) else \
                    family_id(ec.objects, {
                        e: {x: fam[e][h.left[(v, b2, e, x)]]
                            for x in h.fiber(b2, e)}
                        for e in ec.objects})
    p = Profunctor(f"({k.name}<|{h.name})", ac, bc, fibers, left, right)
    return p, RhomWitness(p, families)
