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
Every profunctor derived here (the representables ``unit_prof``,
``companion`` and ``conjoint``, the composites of ``compose_prof``, the
right homs of ``rhom`` and the restrictions of ``restrict``) builds its
fibers, and a composite its classes, at once, and each action table, per
side, when it is first read: it is made by ``fincat.deferred``, and
``left`` and ``right`` are ``fincat.OnFirstRead`` attributes, as a
category's table is; one builder, ``_action``, lists every such table,
and each kind gives only how an element moves.  A tabulation reads only
the elements of the unit profunctor of its category, the pointwise
decision only the fibers of its right hom, and most composites of the law
suites no table at all.  A profunctor equals itself unread, and a
representable any other of the same (C, f, g) (``fincat.equal_before_read``);
it keeps ``elements()``, every (a, b, j) in one tuple, once built.

A cell's top boundary and components are first-read tables too: a
tabulation's defining cell and a ``vcompose`` with an unread side build
each on its first read, so neither ``dcat comma`` nor ``dcat tabulate
--skip-verify`` builds a cell or the unit of a tabulation's category.
Every other cell, and every composite of built cells, is built whole.

Elements of a composite J * H are equivalence classes of pairs (j, h)
under sliding non-identity middle morphisms across the pair (an identity
slide joins a pair with itself).  Pairs are enumerated in naming order
(middle object, left fiber position, right fiber position), and an
element is the least pair (b, x, y) of its class in that order, so
recomputing a composite always yields the same tables; ``compose_prof``
also maps each pair to its class.  When J is a unit or a companion, or H
a unit or a conjoint, the co-Yoneda lemma tells the class of a pair by
one element, read off the other side's action table (H's left, or J's
right) and no other; every other composite is quotiented by a union-find
over the slides.  Its twins in ``tests/helpers.py`` are
``compose_prof_oracle``, which returns the same classes, and the
span-level ``internal_prof_compose``, which checks the fiber sizes.

Cells (``cells_between``) and right-hom families (``rhom``) come from
``fincat.backtrack``, the one search behind every enumerator; the loops
it replaced are ``cells_between_oracle`` and ``rhom_families_oracle`` in
``tests/helpers.py``, next to ``validate_profunctor``, which checks the
axioms of every profunctor the tests build.  An element of a right hom
is its family itself, the tuple of its images along ``family_slots``, in
the search's order; it has no other name.  Along a unit or a companion
H = C(f -, -), the Yoneda lemma gives the families without a search, one
per element of K(a, f b); ``rhom_families_oracle`` is the twin of both
paths.

``unit_prof``, ``companion``, ``conjoint``, ``compose_prof`` and
``naturality_plan`` are constructions (``fincat.construction``): one
decision builds each once per distinct arguments.  So the cells that live
between unit profunctors or composites (``unit_cell``,
``nat_transf_as_cell``, ``hcompose``, the unitors, ``associator`` and the
bending cells) build those from their arguments, and within a decision
they share them, so the tables of a shared unit or composite are built
once, by whichever reader comes first.  ``cells_between`` and ``rhom``
are plain functions, as no caller repeats their arguments within a
decision: ``tab.verify_tabulation`` searches once per configuration, and
a ``kan.RanProblem`` keeps its right hom.

A profunctor hashes its boundary and ``elements()``, and a cell its
``key``: its components listed along ``hsrc.elements()``, kept once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .fincat import (FinCategory, Functor, backtrack,
                     compose_functors, construction, deferred, derived,
                     first_read, functor_inverse, identity_functor)


@first_read("left", "right")
@dataclass(frozen=True, eq=True)
class Profunctor:
    """J : source -/-> target as its fibers and its two one-sided actions.

    ``left[(u, a, b, j)]`` is j . u in J(a', b) for u : a' -> a, and
    ``right[(a, b, j, v)]`` is v . j in J(a, b') for v : b -> b'; both hold
    an entry for every element and every morphism acting on it, identities
    included.

    Equality (``fincat.equal_before_read``) compares the boundary, the
    fibers and both tables, or two representables' (C, f, g).

    A derived profunctor (the representables, composites, right homs and
    restrictions) is built by ``fincat.deferred`` with its fibers only,
    and builds each table the first time it is read
    (``fincat.OnFirstRead``), by ``_action`` given the side, "left" or
    "right".  The table is then kept on the instance, as a profunctor
    built with its tables keeps them, so every later read finds it there.
    """

    name: str = field(compare=False)
    source: FinCategory
    target: FinCategory
    fibers: dict          # (a, b) -> tuple of element ids
    left: dict      # (u, a, b, j) -> element id, u : a' -> a
    right: dict     # (a, b, j, v) -> element id, v : b -> b'

    @derived
    def _hash(self):
        return hash((self.source, self.target, self.elements()))

    def __hash__(self):
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

    @derived
    def _elements(self):
        fiber = self.fibers.get
        return tuple((a, b, j) for a in self.source.objects
                     for b in self.target.objects for j in fiber((a, b), ()))

    def elements(self):
        """All (a, b, j) triples in deterministic order, built once."""
        return self._elements


def _action(ac, bc, fibers, moves, side):
    """The ``side`` ("left" or "right") action table of a derived
    profunctor A -/-> B, the one code that lists one: by fiber, element,
    then acting morphism, keyed (u, a, b, j) on the left and (a, b, j, v)
    on the right.  ``moves(side)`` reads the tables that move elements
    once per build, even for a table with no entry, and returns
    ``move(a, b, j, m)``, j in the fiber (a, b) moved by m."""
    move, left = moves(side), side == "left"
    acting = ac.into if left else bc.out_of
    acts = {}
    for (a, b), elems in fibers.items():
        ms = acting(a if left else b)
        for j in elems:
            for m in ms:
                acts[(m, a, b, j) if left else (a, b, j, m)] = move(a, b, j, m)
    return acts


def _representable(name, cat, f=None, g=None):
    """The profunctor C(f a, g b) : A -/-> B of f : A -> C and g : B -> C,
    where None stands for the identity of C = ``cat``.  Its fibers are
    hom-sets of C, listed along A's objects, then B's; its actions are
    j . u = j . f(u) and v . j = g(v) . j."""
    ac = cat if f is None else f.source
    bc = cat if g is None else g.source
    fo = None if f is None else f.obj
    go = None if g is None else g.obj
    hom = cat._hom.get      # the index itself: one lookup per pair
    fibers = {(a, b): fiber for a in ac.objects for b in bc.objects
              if (fiber := hom((a if fo is None else fo[a],
                                b if go is None else go[b])))}

    def moves(side):
        table = cat.table     # every pair is composable by construction
        if side == "left":
            fm = None if f is None else f.mor
            return lambda a, b, j, u: table[(j, u if fm is None else fm[u])]
        gm = None if g is None else g.mor
        return lambda a, b, j, v: table[(v if gm is None else gm[v], j)]

    return deferred(Profunctor, partial(_action, ac, bc, fibers, moves),
                    name=name, source=ac, target=bc, fibers=fibers,
                    _represents=(cat, f, g))


@construction
def unit_prof(cat):
    """The unit (hom) profunctor of a category, C(a, b)."""
    return _representable(f"1_{cat.name}", cat)


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


@first_read("hsrc", "comp")
@dataclass(frozen=True, eq=True)
class Cell:
    """A square cell between profunctors.

    ``hsrc : A -/-> B`` on top, ``htgt : C -/-> D`` on the bottom,
    ``vsrc : A -> C`` and ``vtgt : B -> D`` on the sides; ``comp`` maps each
    (a, b, j) with j in hsrc(a, b) to an element of htgt(vsrc a, vtgt b).

    A cell made by ``fincat.deferred`` (a tabulation's defining cell, or a
    ``vcompose`` with an unread side) builds ``hsrc`` and ``comp``, each
    on its first read.  Equality (``fincat.equal_before_read``) compares
    the other sides, then ``hsrc`` and ``comp``; the hash is ``key``'s.
    """

    name: str = field(compare=False)
    hsrc: Profunctor
    htgt: Profunctor
    vsrc: Functor
    vtgt: Functor
    comp: dict

    @derived
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
    """Vertical (tile-on-tile) composite: ``top`` first, then ``bot``.  Its
    boundary functors are composed at once, and the rest too when both
    cells are built; else it is made by ``fincat.deferred`` and builds its
    top boundary, ``top``'s, and components on their first read."""
    if bot.hsrc != top.htgt:
        raise ValueError("cells not vertically composable")
    name = f"({bot.name}.{top.name})"
    f = compose_functors(bot.vsrc, top.vsrc)
    g = compose_functors(bot.vtgt, top.vtgt)
    # a cell's hook is None once its tables are built, or when it was
    # built with them
    if bot._tables is None and top._tables is None:
        return Cell(name, top.hsrc, bot.htgt, f, g, _vertical(bot, top))
    return deferred(Cell, partial(_vertical, bot, top), name=name,
                    htgt=bot.htgt, vsrc=f, vtgt=g)


def _vertical(bot, top, attr="comp"):
    """The top boundary ("hsrc") of ``vcompose(bot, top)``, ``top``'s, or
    its components ("comp"): ``bot`` at the image of ``top``'s."""
    if attr == "hsrc":
        return top.hsrc
    fo, go, tcomp, bcomp = top.vsrc.obj, top.vtgt.obj, top.comp, bot.comp
    return {(a, b, j): bcomp[(fo[a], go[b], tcomp[(a, b, j)])]
            for a, b, j in top.hsrc.elements()}


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


def coyoneda_side(j, h):
    """The side of J * H that is a representable with an identity at the
    middle, by which ``compose_prof`` names its classes: "left" when J is
    C(f a, b), a unit or a companion, "right" when H is C(b, g e), a unit
    or a conjoint, None otherwise."""
    jrep = getattr(j, "_represents", None)
    hrep = getattr(h, "_represents", None)
    if jrep is not None and jrep[2] is None:
        return "left"
    if hrep is not None and hrep[1] is None:
        return "right"
    return None


@construction
def compose_prof(j, h):
    """The composite J * H and its classes: ``classes[(a, e)]`` maps each
    pair (b, x, y), x in J(a, b) and y in H(b, e), to its class, which is
    its element of J * H over (a, e).

    Pairs (x, y) sharing a middle object are identified under sliding a
    middle morphism v across: (v . x, y) ~ (x, y . v).  The pairs at each
    boundary (a, e) are listed in naming order (middle object, left fiber
    position, right fiber position), and ``classes[(a, e)]`` lists them
    in that order, an empty boundary included.  A class is its least pair,
    its first in that order, and the fiber lists the classes in that order.

    By the co-Yoneda lemma, f_* * H = H(f -, -) and J * g^* = J(-, g -).
    So when ``coyoneda_side`` finds a side, the class of (b, x, y) is told
    by the element y . x: of H(f a, e), read off H's left action alone,
    when J is C(f a, b); of J(a, g e), read off J's right action alone,
    when H is C(b, g e).  Any other composite, a restriction C(f a, g b)
    included, is quotiented by a union-find over positions.  It slides
    only non-identity morphisms, as an identity joins each pair with
    itself, and reads J's right and H's left action, over inhabited
    boundaries only: per e the middle objects b with H(b, e) and the
    slides v : b1 -> b2 with H(b2, e) nonempty, per a those of them with
    J(a, b) and J(a, b1) nonempty.

    The fibers and the classes are built at once; each action table on
    its first read, from J's left action or H's right action: u : a2 -> a
    acts on the class of (x, y) as the class of (x . u, y), and w : e -> e2
    as the class of (x, w . y).
    """
    if j.target != h.source:
        raise ValueError("profunctors not composable")
    ac, bc, ec = j.source, j.target, h.target
    jfiber, hfiber = j.fibers.get, h.fibers.get
    coyoneda = coyoneda_side(j, h)
    jright = None if coyoneda == "left" else j.right
    hleft = None if coyoneda == "right" else h.left
    slides = [] if coyoneda else [(v, bc.src[v], bc.tgt[v])
                                  for v in bc.morphisms if not bc.is_identity(v)]
    # per e, the middle objects that H(-, e) inhabits, and the slides
    # v : b1 -> b2 with H(b2, e) inhabited, each y acted on once here
    over = [(e, [(b, ys) for b in bc.objects if (ys := hfiber((b, e)))],
             [(v, b1, b2, [(y, hleft[(v, b2, e, y)]) for y in ys])
              for v, b1, b2 in slides if (ys := hfiber((b2, e)))])
            for e in ec.objects]

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    classes, fibers = {}, {}
    for a in ac.objects:
        xs_at = {b: xs for b in bc.objects if (xs := jfiber((a, b)))}
        # each x acted on once per slide out of an inhabited J(a, b1)
        pushed = {v: [(x, jright[(a, b1, x, v)]) for x in xs_at[b1]]
                  for v, b1, _ in slides if b1 in xs_at}
        for e, mids, pulls in over:
            pairs = [(b, x, y) for b, ys in mids if b in xs_at
                     for x in xs_at[b] for y in ys]
            if coyoneda == "left":
                reps = [hleft[(x, b, e, y)] for b, x, y in pairs]
            elif coyoneda == "right":
                reps = [jright[(a, b, x, y)] for b, x, y in pairs]
            else:
                pos = {p: i for i, p in enumerate(pairs)}
                parent = list(range(len(pairs)))
                for v, b1, b2, ys in pulls:
                    for x, xv in pushed.get(v, ()):
                        for y, vy in ys:
                            parent[find(pos[(b2, xv, y)])] = \
                                find(pos[(b1, x, vy)])
                reps = [find(i) for i in range(len(pairs))]
            first = {}        # representative -> the least pair of its class
            classes[(a, e)] = {p: first.setdefault(r, p)
                               for r, p in zip(reps, pairs)}
            if first:
                fibers[(a, e)] = tuple(first.values())

    def moves(side):
        if side == "left":
            asrc, jleft = ac.src, j.left

            def move(a, e, pair, u):
                b, x, y = pair
                return classes[(asrc[u], e)][(b, jleft[(u, a, b, x)], y)]
        else:
            etgt, hright = ec.tgt, h.right

            def move(a, e, pair, w):
                b, x, y = pair
                return classes[(a, etgt[w])][(b, x, hright[(b, e, y, w)])]
        return move

    composite = deferred(
        Profunctor, partial(_action, ac, ec, fibers, moves),
        name=f"({j.name}*{h.name})", source=ac, target=ec, fibers=fibers)
    return composite, classes


def hcompose(left, right):
    """Horizontal composite of cells: left : J -> K over (f, g) beside
    right : H -> L over (g, h) gives J*H -> K*L over (f, h)."""
    if left.vtgt != right.vsrc:
        raise ValueError("cells do not share their middle boundary")
    jh, _ = compose_prof(left.hsrc, right.hsrc)
    kl, kl_classes = compose_prof(left.htgt, right.htgt)
    f, g, h = left.vsrc, left.vtgt, right.vtgt
    comp = {}
    for a, e, pair in jh.elements():
        b, x, y = pair
        comp[(a, e, pair)] = kl_classes[(f.obj[a], h.obj[e])][
            (g.obj[b], left.comp[(a, b, x)], right.comp[(b, e, y)])]
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
    up, _ = compose_prof(unit_prof(p.source), p)
    comp = {(a, b, (mid, u, x)): p.act_left(u, mid, b, x)
            for a, b, (mid, u, x) in up.elements()}
    return Cell(f"lu_{p.name}", up, p,
                identity_functor(p.source), identity_functor(p.target), comp)


def right_unitor(p):
    """The invertible horizontal cell P * 1_B -> P."""
    pu, _ = compose_prof(p, unit_prof(p.target))
    comp = {(a, b, (mid, x, v)): p.act_right(a, mid, x, v)
            for a, b, (mid, x, v) in pu.elements()}
    return Cell(f"ru_{p.name}", pu, p,
                identity_functor(p.source), identity_functor(p.target), comp)


def associator(j, h, k):
    """The invertible horizontal cell (J*H)*K -> J*(H*K)."""
    jh, _ = compose_prof(j, h)
    jh_k, _ = compose_prof(jh, k)
    hk, hk_classes = compose_prof(h, k)
    j_hk, j_hk_classes = compose_prof(j, hk)
    comp = {}
    for a, z, pair in jh_k.elements():
        e, (b, x, y), y2 = pair     # x in J(a, b), y in H(b, e), y2 in K(e, z)
        inner = hk_classes[(b, z)][(e, y, y2)]    # (y, y2)'s class in (H*K)(b, z)
        comp[(a, z, pair)] = j_hk_classes[(a, z)][(b, x, inner)]
    return Cell(f"assoc_{j.name}_{h.name}_{k.name}", jh_k, j_hk,
                identity_functor(j.source), identity_functor(k.target), comp)


# ---------------------------------------------------------------------------
# restriction, extension, cartesian and opcartesian cells


def restrict(k, f, g):
    """The restriction K(f, g) : A -/-> B of K : C -/-> D along f : A -> C
    and g : B -> D, with fibers K(f a, g b).  The restriction of a
    representable E(p c, q d) is the representable E(p f a, q g b), built
    by ``_representable``; any other K has its fibers read at once and
    each table, on its first read, read off K's table of the same side: u
    acts as f(u) and v as g(v) act in K."""
    name = f"{k.name}({f.name},{g.name})"
    rep = getattr(k, "_represents", None)
    if rep is not None:
        cat, kf, kg = rep
        return _representable(name, cat,
                              f if kf is None else compose_functors(kf, f),
                              g if kg is None else compose_functors(kg, g))
    ac, bc, fo, go = f.source, g.source, f.obj, g.obj
    fibers = {(a, b): fib for a in ac.objects for b in bc.objects
              if (fib := k.fiber(fo[a], go[b]))}

    def moves(side):
        if side == "left":
            kleft, fm = k.left, f.mor
            return lambda a, b, x, u: kleft[(fm[u], fo[a], go[b], x)]
        kright, gm = k.right, g.mor
        return lambda a, b, x, v: kright[(fo[a], go[b], x, gm[v])]

    return deferred(Profunctor, partial(_action, ac, bc, fibers, moves),
                    name=name, source=ac, target=bc, fibers=fibers)


def cartesian_cell(k, f, g):
    """The canonical cartesian cell K(f, g) -> K over (f, g)."""
    r = restrict(k, f, g)
    return Cell(f"cart_{k.name}({f.name},{g.name})", r, k, f, g,
                {(a, b, x): x for a, b, x in r.elements()})


def extend(j, f, g):
    """The extension f^* * (J * g_*) : C -/-> D of J : A -/-> B along
    f : A -> C and g : B -> D, with the classes of J * g_* and of the
    extension, as ``compose_prof`` gives them."""
    jg, inner = compose_prof(j, companion(g))
    ext, outer = compose_prof(conjoint(f), jg)
    return ext, inner, outer


def opcartesian_cell(j, f, g):
    """The canonical opcartesian cell J -> f^* * (J * g_*) over (f, g)."""
    ext, inner, outer = extend(j, f, g)
    cc, dc = f.target, g.target
    comp = {}
    for a, b, x in j.elements():
        fa, gb = f.obj[a], g.obj[b]
        xg = inner[(a, gb)][(b, x, dc.identity(gb))]
        comp[(a, b, x)] = outer[(fa, gb)][(a, cc.identity(fa), xg)]
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
    ext, _, _ = extend(j, f, g)
    for cobj in f.target.objects:
        for dobj in g.target.objects:
            imgs = []
            # p : c -> f a, x in J(a, b), q : g b -> d
            for a, p, (b, x, q) in ext.fiber(cobj, dobj):
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
    jg, _ = compose_prof(j, companion(g))
    fk, fk_classes = compose_prof(companion(f), k)
    cc = f.target
    comp = {}
    for a, d, pair in jg.elements():
        b, x, q = pair                             # x in J(a, b), q : g b -> d
        fa, gb = f.obj[a], g.obj[b]
        val = k.act_right(fa, gb, c.comp[(a, b, x)], q)
        comp[(a, d, pair)] = fk_classes[(a, d)][(fa, cc.identity(fa), val)]
    return Cell(f"low_{c.name}", jg, fk,
                identity_functor(j.source), identity_functor(g.target), comp)


def upper_star(c):
    """The horizontal mate f^* * J -> K * g^* of a cell J -> K over (f, g)."""
    f, g = c.vsrc, c.vtgt
    j, k = c.hsrc, c.htgt
    fj, _ = compose_prof(conjoint(f), j)
    kg, kg_classes = compose_prof(k, conjoint(g))
    dc = g.target
    comp = {}
    for cobj, b, pair in fj.elements():
        a, p, x = pair                             # p : c -> f a, x in J(a, b)
        fa, gb = f.obj[a], g.obj[b]
        val = k.act_left(p, fa, gb, c.comp[(a, b, x)])
        comp[(cobj, b, pair)] = kg_classes[(cobj, b)][(gb, val, dc.identity(gb))]
    return Cell(f"up_{c.name}", fj, kg,
                identity_functor(f.target), identity_functor(j.target), comp)


# ---------------------------------------------------------------------------
# right hom


def family_slots(h, b):
    """The slots (e, x) of a family out of H(b, -): e in E's object order,
    then x in H(b, e) order.  An element of a right hom K <| H over (a, b)
    is the tuple of its images along them, one y in K(a, e) per (e, x)."""
    return [(e, x) for e in h.target.objects for x in h.fiber(b, e)]


def rhom(k, h):
    """The right hom K <| H : A -/-> B of K : A -/-> E and H : B -/-> E.

    An element over (a, b) is a family of maps H(b, e) -> K(a, e), natural
    in e, as the tuple of its images along ``family_slots(h, b)``, listed
    in the lexicographic order of a ``fincat.backtrack`` search with one
    position per slot.  When H is a unit or a companion, E(f b, e), the
    Yoneda lemma gives the families: x |-> x . y, one per y in K(a, f b),
    read off K's right action alone and sorted into that order by the
    positions of their images in K's fibers.  Any other H is searched, on
    H's and K's right actions.  The fibers are built at once; each action
    table on its first read: u : a2 -> a acts by post-composing each image
    with K's left action of u, and v : b -> b2 by pre-composing each map
    with H's left action of v.
    """
    if k.target != h.target:
        raise ValueError("right hom needs a common target")
    ac, bc, ec = k.source, h.source, k.target
    slots = {b: family_slots(h, b) for b in bc.objects}
    rep, fibers = getattr(h, "_represents", None), {}
    if rep is not None and rep[2] is None:      # H(b, e) = E(f b, e)
        fo, kright = None if rep[1] is None else rep[1].obj, k.right
        for a in ac.objects:
            for b, at in slots.items():
                fb = b if fo is None else fo[b]
                found = [tuple([kright[(a, fb, y, x)] for _, x in at])
                         for y in k.fiber(a, fb)]
                if len(found) > 1:      # into the search's order
                    pos = {(e, y): n for e in ec.objects
                           for n, y in enumerate(k.fiber(a, e))}
                    found.sort(key=lambda fam: [
                        pos[(e, y)] for (e, _), y in zip(at, fam)])
                if found:
                    fibers[(a, b)] = tuple(found)
    else:
        # per b, the squares (n, o, e, w): slot o holds slot n moved by
        # w : e -> e2
        squares = {}
        for b, at in slots.items():
            pos = {slot: n for n, slot in enumerate(at)}
            squares[b] = [(n, pos[(ec.tgt[w], h.right[(b, e, x, w)])], e, w)
                          for n, (e, x) in enumerate(at)
                          for w in ec.out_of(e) if not ec.is_identity(w)]
        for a in ac.objects:
            for b in bc.objects:
                domains = [k.fiber(a, e) for e, _ in slots[b]]
                moved = [(n, o, {y: (k.right[(a, e, y, w)],)
                                 for y in domains[n]})
                         for n, o, e, w in squares[b]]
                found = tuple(backtrack(domains, moved))
                if found:
                    fibers[(a, b)] = found

    def moves(side):
        if side == "left":
            kleft = k.left
            return lambda a, b, fam, u: tuple(
                kleft[(u, a, e, y)] for (e, _), y in zip(slots[b], fam))
        hleft, btgt = h.left, bc.tgt

        def move(a, b, fam, v):
            at, b2 = dict(zip(slots[b], fam)), btgt[v]
            return tuple(at[(e, hleft[(v, b2, e, x)])] for e, x in slots[b2])
        return move

    return deferred(Profunctor, partial(_action, ac, bc, fibers, moves),
                    name=f"({k.name}<|{h.name})", source=ac, target=bc,
                    fibers=fibers)
