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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


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
        return hash((tuple(sorted(self.obj.items())),
                     tuple(sorted(self.mor.items()))))

    def ob(self, a):
        return self.obj[a]

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
        return hash(tuple(sorted(self.components.items())))

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
        return hash((self.apex, tuple(sorted(self.legs.items()))))

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


def all_cones(diagram, apex=None):
    """Every cone over the diagram, in deterministic order."""
    shape, dst = diagram.source, diagram.target
    apexes = dst.objects if apex is None else (apex,)
    cones = []
    for m in apexes:
        choices = [dst.hom(m, diagram.obj[i]) for i in shape.objects]
        for legs in itertools.product(*choices):
            cone = Cone(diagram, m, dict(zip(shape.objects, legs)))
            if not cone.validate():
                cones.append(cone)
    return cones


def mediating_morphisms(terminal, cone):
    """Morphisms apex(cone) -> apex(terminal) commuting with all legs."""
    dst = terminal.diagram.target
    found = []
    for t in dst.hom(cone.apex, terminal.apex):
        if all(dst.compose(terminal.legs[i], t) == cone.legs[i]
               for i in terminal.diagram.source.objects):
            found.append(t)
    return found


def limit(diagram):
    """The terminal cone over the diagram, or raise NoLimit.

    The witness is deterministic: apexes are scanned in the object order of
    the target, legs in lexicographic order, and the first terminal cone
    wins.
    """
    cones = all_cones(diagram)
    for cand in cones:
        if all(len(mediating_morphisms(cand, c)) == 1 for c in cones):
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
    are implicit; composites are componentwise.  Returns the category, its
    projections ``pl_<name>`` to A and ``pr_<name>`` to B, and the triple
    of each object id.
    """
    ids = {t: f"({t[0]},{t[1]},{t[2]})" for t in triples}
    from_a = {a: {ac.tgt[u] for u in ac.out_of(a)} for a in ac.objects}
    from_b = {b: {bc.tgt[v] for v in bc.out_of(b)} for b in bc.objects}
    reach = {}      # (a1, b1) -> the triples both endpoints reach
    arrows, pair = {}, {}
    for t1 in triples:
        a1, x1, b1 = t1
        if (a1, b1) not in reach:
            ra, rb = from_a[a1], from_b[b1]
            reach[(a1, b1)] = [t for t in triples
                               if t[0] in ra and t[2] in rb]
        for t2 in reach[(a1, b1)]:
            a2, x2, b2 = t2
            for u in ac.hom(a1, a2):
                for v in bc.hom(b1, b2):
                    if act_right(a1, b1, x1, v) != act_left(u, a2, b2, x2):
                        continue
                    if t1 == t2 and ac.is_identity(u) and bc.is_identity(v):
                        continue
                    m = f"[{u},{v}]:{ids[t1]}->{ids[t2]}"
                    arrows[m] = (ids[t1], ids[t2])
                    pair[m] = (u, v)
    cat = make_category(name, ids.values(), arrows)   # composites below
    composites = {}
    for m2, m1 in cat.composable_pairs():
        if m2 not in pair or m1 not in pair:
            continue  # composites with identities are implicit
        # composable by construction, so the tables are read unchecked
        u = ac.table[(pair[m2][0], pair[m1][0])]
        v = bc.table[(pair[m2][1], pair[m1][1])]
        s, t = cat.src[m1], cat.tgt[m2]
        if s == t and ac.is_identity(u) and bc.is_identity(v):
            composites[(m2, m1)] = cat.identity(s)
        else:
            composites[(m2, m1)] = f"[{u},{v}]:{s}->{t}"
    cat.table.update(composites)   # safe: no index reads the table
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


def all_functors(a, m):
    """Every functor a -> m, named F0, F1, ... in a fixed order.

    The order is lexicographic: first in the object map, listed along
    ``a.objects`` with values in ``m.objects`` order, then in the images of
    the non-identity arrows, listed along ``a.morphisms`` with values in
    hom order.  Witness names such as ``F3`` depend on it.  ``obj`` and
    ``mor`` are keyed in that listing order, identities first in ``mor``.

    A backtracking search with forward checking: objects are bound in
    order, and an object map is dropped as soon as some arrow between two
    bound objects has an empty hom-set in m; arrows are then bound in
    order, each within its hom-set, and each composite g . f = h of
    non-identity arrows is tested as soon as the last of g, f and h is
    bound.  Composites with an identity hold by the unit laws.
    """
    objs = a.objects
    nonids = [x for x in a.morphisms if not a.is_identity(x)]
    opos = {o: i for i, o in enumerate(objs)}
    apos = {x: i for i, x in enumerate(nonids)}
    # endpoint pairs of arrows, and composites, filed under their last-bound
    # object or arrow
    ends = [[] for _ in objs]
    for x in nonids:
        s, t = a.src[x], a.tgt[x]
        ends[max(opos[s], opos[t])].append((s, t))
    comps = [[] for _ in nonids]
    for g, f in a.composable_pairs():
        if g in apos and f in apos:
            h = a.table[(g, f)]
            comps[max(apos[g], apos[f], apos.get(h, -1))].append((g, f, h))
    out = []
    obj = {}

    def bind_object(i):
        if i == len(objs):
            obj_map = dict(obj)
            mor = {a.identity(o): m.identity(obj_map[o]) for o in objs}
            homs = [m.hom(obj_map[a.src[x]], obj_map[a.tgt[x]]) for x in nonids]
            bind_arrow(0, obj_map, mor, homs)
            return
        for v in m.objects:
            obj[objs[i]] = v
            if all(m.hom(obj[s], obj[t]) for s, t in ends[i]):
                bind_object(i + 1)

    def bind_arrow(k, obj_map, mor, homs):
        if k == len(nonids):
            out.append(Functor(f"F{len(out)}", a, m, obj_map, dict(mor)))
            return
        x = nonids[k]
        for v in homs[k]:
            mor[x] = v
            if all(mor[h] == m.table[(mor[g], mor[f])] for g, f, h in comps[k]):
                bind_arrow(k + 1, obj_map, mor, homs)

    bind_object(0)
    return out


def remembering(search):
    """``search`` with each result kept, per argument tuple, for as long as
    the returned function lives.  Make one per computation and share it
    within that computation; nothing outlives it."""
    memo = {}

    def remembered(*args):
        try:
            return memo[args]       # one lookup: keys may be slow to compare
        except KeyError:
            found = memo[args] = search(*args)
            return found

    return remembered


def all_natural_transformations(f, g):
    """Every natural transformation f => g between parallel functors."""
    cat, dst = f.source, f.target
    choices = [dst.hom(f.obj[a], g.obj[a]) for a in cat.objects]
    out = []
    for comps in itertools.product(*choices):
        cand = NatTransf(f, g, dict(zip(cat.objects, comps)))
        if not cand.validate():
            out.append(cand)
    return out


def find_isomorphism(a, b):
    """A pair of mutually inverse functors a <-> b, or None.

    Backtracking search over object bijections refined by hom-set counts,
    then arrow bijections checked for functoriality.
    """
    if len(a.objects) != len(b.objects) or len(a.morphisms) != len(b.morphisms):
        return None

    def profile(cat, o):
        outs = sorted(len(cat.hom(o, x)) for x in cat.objects)
        ins = sorted(len(cat.hom(x, o)) for x in cat.objects)
        return (tuple(outs), tuple(ins))

    prof_b = {o: profile(b, o) for o in b.objects}

    def try_objects(k, obj_map, used):
        if k == len(a.objects):
            return try_arrows(obj_map)
        o = a.objects[k]
        pa = profile(a, o)
        for o2 in b.objects:
            if o2 in used or prof_b[o2] != pa:
                continue
            if any(len(a.hom(a.objects[i], o)) != len(b.hom(obj_map[a.objects[i]], o2))
                   or len(a.hom(o, a.objects[i])) != len(b.hom(o2, obj_map[a.objects[i]]))
                   for i in range(k)):
                continue
            obj_map[o] = o2
            used.add(o2)
            res = try_objects(k + 1, obj_map, used)
            if res:
                return res
            del obj_map[o]
            used.discard(o2)
        return None

    def try_arrows(obj_map):
        nonids = [x for x in a.morphisms if not a.is_identity(x)]
        choices = [b.hom(obj_map[a.src[x]], obj_map[a.tgt[x]]) for x in nonids]
        used_targets = [tuple(x for x in c if not b.is_identity(x)) for c in choices]
        for mors in itertools.product(*used_targets):
            if len(set(mors)) != len(mors):
                continue
            mor_map = {a.identity(o): b.identity(obj_map[o]) for o in a.objects}
            mor_map.update(dict(zip(nonids, mors)))
            fwd = Functor("iso", a, b, dict(obj_map), mor_map)
            if fwd.validate():
                continue
            inv_obj = {v: k for k, v in obj_map.items()}
            inv_mor = {v: k for k, v in mor_map.items()}
            bwd = Functor("iso_inv", b, a, inv_obj, inv_mor)
            if not bwd.validate():
                return fwd, bwd
        return None

    return try_objects(0, {}, set())
