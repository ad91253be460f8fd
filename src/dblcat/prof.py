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
fibers, and any witness, at once, and each action table, per side, when
it is first read: it is made by ``fincat.deferred``, and ``left`` and
``right`` are ``fincat.OnFirstRead`` attributes, as a category's table
is; one builder, ``_action``, lists every such table, and each kind
gives only how an element moves.  A tabulation reads only the elements of
the unit profunctor of its category, the pointwise decision only the
fibers of its right hom, and most composites of the law suites no table at
all.  A profunctor equals itself unread (``fincat.equal_before_read``),
and keeps ``elements()``, every (a, b, j) in one tuple, once built.

A cell's components are a first-read table too: the defining cell of
``tab.tabulate`` and the vertical composite (``vcompose``) of a cell whose
components are unread build theirs when they are first read, so
``tab.comma_object``, which pastes the one onto its cartesian cell, builds
none, and neither ``dcat comma`` nor ``dcat tabulate --skip-verify`` ever
builds a cell.  Every other cell, and every composite of built cells, is
built with its components.

Elements of a composite J * H are equivalence classes of pairs (j, h)
under sliding non-identity middle morphisms across the pair (an identity
slide joins a pair with itself).  Pairs are enumerated in
naming order (middle object, left fiber position, right fiber position) and
each class is named after its least member in that order, so recomputing a
composite always yields the same tables.  When J is a unit or a companion,
or H a unit or a conjoint, the co-Yoneda lemma names the class of a pair
by one element, read off the other side's action table (H's left, or J's
right) and no other; every other composite is quotiented by a union-find
over the slides (``compose_prof``).

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
and within a decision they share them, so the tables of a shared unit or
composite are built once, by whichever reader comes first.

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
    fibers and both tables.

    A derived profunctor (the representables, composites, right homs and
    restrictions) is built by ``fincat.deferred`` with its fibers only,
    and builds each table the first time it is read
    (``fincat.OnFirstRead``), by ``_action`` given the side, "left" or
    "right".  The table is then kept in the instance ``__dict__``, as a
    profunctor built with its tables keeps them, so every later read is a
    plain attribute read.
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


@first_read("comp")
@dataclass(frozen=True, eq=True)
class Cell:
    """A square cell between profunctors.

    ``hsrc : A -/-> B`` on top, ``htgt : C -/-> D`` on the bottom,
    ``vsrc : A -> C`` and ``vtgt : B -> D`` on the sides; ``comp`` maps each
    (a, b, j) with j in hsrc(a, b) to an element of htgt(vsrc a, vtgt b).

    A cell made by ``fincat.deferred`` (a tabulation's defining cell, or a
    ``vcompose`` with an unread side) builds ``comp`` on its first read,
    so ``dcat comma`` and ``dcat tabulate --skip-verify`` never build it.
    Equality (``fincat.equal_before_read``) compares the boundary, then the
    components; the hash is ``key``'s.
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
    boundary functors are composed at once, and its components too when
    both cells' are built; when either cell's are unread, it is made by
    ``fincat.deferred`` and builds them on their first read."""
    if bot.hsrc != top.htgt:
        raise ValueError("cells not vertically composable")
    name = f"({bot.name}.{top.name})"
    f = compose_functors(bot.vsrc, top.vsrc)
    g = compose_functors(bot.vtgt, top.vtgt)
    # a cell has one table, so its hook is None once its components are
    # built, or when it was built with them
    if bot._tables is None and top._tables is None:
        return Cell(name, top.hsrc, bot.htgt, f, g, _vertical(bot, top))
    return deferred(Cell, partial(_vertical, bot, top), name=name,
                    hsrc=top.hsrc, htgt=bot.htgt, vsrc=f, vtgt=g)


def _vertical(bot, top, attr="comp"):
    """The components of ``vcompose(bot, top)``, along ``top.hsrc``'s
    elements: ``bot`` at the image of ``top``'s component."""
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


def pair_id(b, j, h):
    return f"{b}|{j}|{h}"


@dataclass(frozen=True, eq=True)
class CoendWitness:
    """Quotient data of a composite: for every boundary pair (a, e), the id
    of the class of each raw pair (b, j, h), as ``compose_prof`` named it,
    and the least pair of each class under its id, which ``pair_id``
    names."""

    left: Profunctor
    right: Profunctor
    composite: Profunctor
    ids: dict              # (a, e) -> {(b, j, h): class id}
    named: dict = field(compare=False, repr=False)  # (a, e) -> {id: (b0, j0, h0)}

    def least(self, a, e, cls_id):
        """The least pair (b, j, h) of the class named cls_id at (a, e)."""
        return self.named[(a, e)][cls_id]

    def class_id(self, a, e, b, j, h):
        """The id of the class of (b, j, h) at (a, e)."""
        return self.ids[(a, e)][(b, j, h)]


def coyoneda_side(j, h):
    """The side of J * H that is a representable with an identity at the
    middle, by which ``compose_prof`` names its classes: "left" when J is
    C(f a, b), a unit or a companion, "right" when H is C(b, g e), a unit
    or a conjoint, None otherwise."""
    jrep, hrep = vars(j).get("_represents"), vars(h).get("_represents")
    if jrep is not None and jrep[2] is None:
        return "left"
    if hrep is not None and hrep[1] is None:
        return "right"
    return None


@construction
def compose_prof(j, h):
    """The composite J * H with its coend witness.

    Pairs (x, y) sharing a middle object are identified under sliding a
    middle morphism v across: (v . x, y) ~ (x, y . v).  The pairs at each
    boundary (a, e) are listed in naming order (middle object, left fiber
    position, right fiber position) and grouped into classes; each class
    is named after its first member, and the classes are listed in that
    order.  An empty boundary gets empty ``ids`` and ``named`` entries.

    By the co-Yoneda lemma, f_* * H = H(f -, -) and J * g^* = J(-, g -).
    So when ``coyoneda_side`` finds a side, the class of (b, x, y) is the
    element y . x: of H(f a, e), read off H's left action alone, when J
    is C(f a, b); of J(a, g e), read off J's right action alone, when H is
    C(b, g e).  Any other composite, a restriction C(f a, g b) included,
    is quotiented by a union-find over positions that keeps the smaller
    root, the least member of its class.  It slides only non-identity
    morphisms, as an identity joins each pair with itself, and reads J's
    right and H's left action, over inhabited boundaries only: per e the
    middle objects b with H(b, e) and the slides v : b1 -> b2 with
    H(b2, e) nonempty, per a those of them with J(a, b) and J(a, b1)
    nonempty.

    The fibers and the witness are built at once; each action table on
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

    named, ids, fibers = {}, {}, {}
    for a in ac.objects:
        xs_at = {b: xs for b in bc.objects if (xs := jfiber((a, b)))}
        # each x acted on once per slide out of an inhabited J(a, b1)
        pushed = {v: [(x, jright[(a, b1, x, v)]) for x in xs_at[b1]]
                  for v, b1, _ in slides if b1 in xs_at}
        for e, mids, pulls in over:
            pairs = [(b, x, y) for b, ys in mids if b in xs_at
                     for x in xs_at[b] for y in ys]
            if not pairs:
                named[(a, e)], ids[(a, e)] = {}, {}
                continue
            if coyoneda == "left":
                classes = [hleft[(x, b, e, y)] for b, x, y in pairs]
            elif coyoneda == "right":
                classes = [jright[(a, b, x, y)] for b, x, y in pairs]
            else:
                pos = {p: i for i, p in enumerate(pairs)}
                parent = list(range(len(pairs)))
                for v, b1, b2, ys in pulls:
                    for x, xv in pushed.get(v, ()):
                        for y, vy in ys:
                            r1, r2 = find(pos[(b2, xv, y)]), find(pos[(b1, x, vy)])
                            if r1 < r2:
                                r1, r2 = r2, r1
                            parent[r1] = r2       # the smaller root survives
                classes = [find(i) for i in range(len(pairs))]
            groups = {}       # class -> members, by first member
            for cls, pair in zip(classes, pairs):
                groups.setdefault(cls, []).append(pair)
            cls_ids, names = {}, {}
            for members in groups.values():
                cid = pair_id(*members[0])
                names[cid] = members[0]
                for pair in members:
                    cls_ids[pair] = cid
            named[(a, e)], ids[(a, e)] = names, cls_ids
            fibers[(a, e)] = tuple(names)

    def moves(side):
        if side == "left":
            asrc, jleft = ac.src, j.left

            def move(a, e, cid, u):
                b, x, y = named[(a, e)][cid]
                return ids[(asrc[u], e)][(b, jleft[(u, a, b, x)], y)]
        else:
            etgt, hright = ec.tgt, h.right

            def move(a, e, cid, w):
                b, x, y = named[(a, e)][cid]
                return ids[(a, etgt[w])][(b, x, hright[(b, e, y, w)])]
        return move

    composite = deferred(
        Profunctor, partial(_action, ac, ec, fibers, moves),
        name=f"({j.name}*{h.name})", source=ac, target=ec, fibers=fibers)
    return composite, CoendWitness(j, h, composite, ids, named)


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
    and g : B -> D, with fibers K(f a, g b).  The restriction of a
    representable E(p c, q d) is the representable E(p f a, q g b), built
    by ``_representable``; any other K has its fibers read at once and
    each table, on its first read, read off K's table of the same side: u
    acts as f(u) and v as g(v) act in K."""
    name = f"{k.name}({f.name},{g.name})"
    if "_represents" in k.__dict__:
        cat, kf, kg = k._represents
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
    and listed by ``family_id``.  The fibers and the families are built at
    once, from H's and K's right actions; each action table on its first
    read: u : a2 -> a acts by post-composing each map of a family with K's
    left action of u, and v : b -> b2 by pre-composing it with H's left
    action of v.  Identities act trivially on K and H, hence on families.
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
                fibers[(a, b)] = fids = tuple(sorted(found))
                families[(a, b)] = {fid: found[fid] for fid in fids}

    def moves(side):
        if side == "left":
            kleft = k.left

            def move(a, b, fid, u):
                if ac.is_identity(u):
                    return fid
                fam = families[(a, b)][fid]
                return family_id(ec.objects, {
                    e: {x: kleft[(u, a, e, y)] for x, y in fam[e].items()}
                    for e in ec.objects})
        else:
            hleft = h.left

            def move(a, b, fid, v):
                if bc.is_identity(v):
                    return fid
                fam, b2 = families[(a, b)][fid], bc.tgt[v]
                return family_id(ec.objects, {
                    e: {x: fam[e][hleft[(v, b2, e, x)]] for x in h.fiber(b2, e)}
                    for e in ec.objects})
        return move

    p = deferred(Profunctor, partial(_action, ac, bc, fibers, moves),
                 name=f"({k.name}<|{h.name})", source=ac, target=bc,
                 fibers=fibers)
    return p, RhomWitness(p, families)
