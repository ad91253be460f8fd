"""Shared fixtures and independent check constructions for the test suite."""

import itertools

from dblcat.fincat import (Functor, all_functors,
                           all_natural_transformations, compose_functors,
                           identity_functor, make_category)
from dblcat.prof import (Cell, CoendWitness, Profunctor, UnionFind,
                         cells_between, companion, compose_prof, conjoint,
                         family_id, pair_id, restrict, rhom, unit_prof,
                         validate_cell, vcompose)
from dblcat import kan, spanfin, zoo


def profunctor_corpus():
    """Small named profunctors with varied shapes."""
    one, two, three = (zoo.terminal_category(), zoo.walking_arrow(),
                       zoo.composable_pair())
    pp = zoo.parallel_pair()
    out = [unit_prof(two), unit_prof(pp), unit_prof(three)]
    out += [companion(f) for f in all_functors(two, three)]
    out += [conjoint(f) for f in all_functors(one, three)]
    out += [companion(f) for f in all_functors(pp, two)]
    out += [conjoint(f) for f in all_functors(two, two)]
    return out


def internal_profunctor_corpus():
    """The bridged profunctor corpus plus the unit internal profunctor of
    every corpus category."""
    return ([spanfin.prof_bridge(p) for p in profunctor_corpus()] +
            [spanfin.unit_internal_prof(spanfin.from_fincat(c))
             for c in zoo.corpus_categories()])


def internal_transformations_oracle(j, k, f, g):
    """Every transformation J -> K over (f, g) by validating the whole
    product of k.het over j.het, in product order."""
    out = []
    for pick in itertools.product(k.het, repeat=len(j.het)):
        cand = spanfin.InternalTransformation(f"t{len(out)}", j, k, f, g,
                                              dict(zip(j.het, pick)))
        if not spanfin.validate_internal_transformation(cand):
            out.append(cand)
    return out


def all_functors_oracle(a, m):
    """all_functors by validating every object map and, for each, every
    choice of arrow images in itertools.product order."""
    nonids = [x for x in a.morphisms if not a.is_identity(x)]
    out = []
    for objs in itertools.product(m.objects, repeat=len(a.objects)):
        obj_map = dict(zip(a.objects, objs))
        choices = [m.hom(obj_map[a.src[x]], obj_map[a.tgt[x]]) for x in nonids]
        for mors in itertools.product(*choices):
            mor_map = {a.identity(o): m.identity(obj_map[o]) for o in a.objects}
            mor_map.update(dict(zip(nonids, mors)))
            cand = Functor(f"F{len(out)}", a, m, obj_map, mor_map)
            if not cand.validate():
                out.append(cand)
    return out


def functor_count_oracle(a, m):
    """Independent backtracking count of functors a -> m, testing every
    composable pair only once all arrows are bound."""
    nonids = [x for x in a.morphisms if not a.is_identity(x)]

    def extend_arrows(obj_map, picked, k):
        if k == len(nonids):
            mor_map = {a.identity(o): m.identity(obj_map[o]) for o in a.objects}
            mor_map.update(picked)
            for g, f in a.composable_pairs():
                if mor_map[a.table[(g, f)]] != m.table[(mor_map[g], mor_map[f])]:
                    return 0
            return 1
        x = nonids[k]
        total = 0
        for img in m.hom(obj_map[a.src[x]], obj_map[a.tgt[x]]):
            picked[x] = img
            total += extend_arrows(obj_map, picked, k + 1)
            del picked[x]
        return total

    total = 0
    for objs in itertools.product(m.objects, repeat=len(a.objects)):
        total += extend_arrows(dict(zip(a.objects, objs)), {}, 0)
    return total


def cells_between_oracle(j, k, f, g):
    """cells_between by validating every choice of components in
    itertools.product order."""
    elems = list(j.elements())
    choices = [k.fiber(f.obj[a], g.obj[b]) for a, b, _ in elems]
    out = []
    for pick in itertools.product(*choices):
        cand = Cell(f"c{len(out)}", j, k, f, g,
                    {key: val for key, val in zip(elems, pick)})
        if not validate_cell(cand):
            out.append(cand)
    return out


def functor_tables(fs):
    """Name, object map and arrow map of each functor as lists of items,
    so that comparing two lists compares insertion order as well."""
    return [(f.name, list(f.obj.items()), list(f.mor.items())) for f in fs]


def cell_tables(cells):
    """Name and components of each cell as lists of items."""
    return [(c.name, list(c.comp.items())) for c in cells]


def is_ran_oracle(cand):
    """is_ran by comparing every competitor cell with every eps . alpha,
    alpha in Nat(s, r), over the slow enumerators."""
    j, d, r, eps = cand.j, cand.d, cand.r, cand.eps
    ac, mc = j.source, d.target
    um = unit_prof(mc)
    for s in all_functors_oracle(ac, mc):
        alphas = all_natural_transformations(s, r)
        for phi in cells_between_oracle(j, um, s, d):
            hits = 0
            for alpha in alphas:
                if all(phi.comp[(a, b, x)] ==
                       mc.compose(eps.comp[(a, b, x)], alpha.components[a])
                       for a, b, x in j.elements()):
                    hits += 1
            if hits != 1:
                return False
    return True


def right_exact_oracle(cell, mode, probe_cats):
    """is_right_exact as a loop over every (d, r, eps) of the slow
    enumerators, deciding each candidate afresh: ordinary candidates by
    is_ran_oracle, pointwise ones by kan.is_pointwise_ran."""
    check = kan.is_pointwise_ran if mode == "pointwise" else is_ran_oracle
    f, g = cell.vsrc, cell.vtgt
    j, k = cell.hsrc, cell.htgt
    for mc in probe_cats:
        um = unit_prof(mc)
        for d in all_functors_oracle(g.target, mc):
            for r in all_functors_oracle(f.target, mc):
                for eps in cells_between_oracle(k, um, r, d):
                    if not check(kan.RanCandidate(k, d, r, eps)):
                        continue
                    sub = kan.RanCandidate(j, compose_functors(d, g),
                                           compose_functors(r, f),
                                           vcompose(eps, cell))
                    if not check(sub):
                        return False, {"target": mc.name, "d": d.name,
                                       "r": r.name, "eps": eps.name}
    return True, None



def coend_classes_oracle(j, h, a, e):
    """Independent computation of the quotient at (a, e): the finest
    partition closed under the sliding relation, by naive fixed-point
    refinement instead of union-find."""
    bc = j.target
    pairs = [(b, x, y) for b in bc.objects
             for x in j.fiber(a, b) for y in h.fiber(b, e)]
    blocks = {p: frozenset([p]) for p in pairs}

    def merge(p, q):
        if blocks[p] is blocks[q] or blocks[p] == blocks[q]:
            return False
        new = blocks[p] | blocks[q]
        for r in new:
            blocks[r] = new
        return True

    changed = True
    while changed:
        changed = False
        for v in bc.morphisms:
            b1, b2 = bc.src[v], bc.tgt[v]
            for x in j.fiber(a, b1):
                for y in h.fiber(b2, e):
                    p = (b2, j.act_right(a, b1, x, v), y)
                    q = (b1, x, h.act_left(v, b2, e, y))
                    if merge(p, q):
                        changed = True
    return {frozenset(b) for b in blocks.values()}


def hom_scan(cat, a, b):
    """Morphisms a -> b by scanning every morphism."""
    return tuple(m for m in cat.morphisms
                 if cat.src[m] == a and cat.tgt[m] == b)


def into_scan(cat, b):
    """Morphisms with target b by scanning every morphism."""
    return tuple(m for m in cat.morphisms if cat.tgt[m] == b)


def out_of_scan(cat, a):
    """Morphisms with source a by scanning every morphism."""
    return tuple(m for m in cat.morphisms if cat.src[m] == a)


def composable_pairs_scan(cat):
    """Every composable pair (g, f) by testing all pairs of morphisms."""
    return [(g, f) for g in cat.morphisms for f in cat.morphisms
            if cat.tgt[f] == cat.src[g]]


def indexes_agree_with_scans(cat):
    """Whether hom, into, out_of and composable_pairs of cat give what the
    scans above give, in the same order."""
    return (all(cat.hom(a, b) == hom_scan(cat, a, b)
                for a in cat.objects for b in cat.objects)
            and all(cat.into(o) == into_scan(cat, o) and
                    cat.out_of(o) == out_of_scan(cat, o) for o in cat.objects)
            and cat.composable_pairs() == composable_pairs_scan(cat))


def pair_composites_oracle(cat, proj_left, proj_right):
    """The composites of non-identity arrows of a tabulation or comma
    category, recomputed from every pair of arrows and the projections.

    An arrow named ``[u,v]:s->t`` composes componentwise; a composite of
    identity components on one object is that object's identity.  Entries
    come in the order (g over arrows, then f over arrows)."""
    ac, bc = proj_left.target, proj_right.target
    arrows = [m for m in cat.morphisms if not cat.is_identity(m)]
    out = []
    for g in arrows:
        for f in arrows:
            if cat.tgt[f] != cat.src[g]:
                continue
            u = ac.compose(proj_left.mor[g], proj_left.mor[f])
            v = bc.compose(proj_right.mor[g], proj_right.mor[f])
            s, t = cat.src[f], cat.tgt[g]
            if ac.is_identity(u) and bc.is_identity(v) and s == t:
                out.append(((g, f), cat.identity(s)))
            else:
                out.append(((g, f), f"[{u},{v}]:{s}->{t}"))
    return out


def chain(n, rng=None):
    """The ordinal [n]: objects 0 < 1 < ... < n-1, one arrow a<i>_<j> for
    each i < j.  Given a ``random.Random``, objects and arrows are listed
    in a shuffled order instead."""
    objects = [str(i) for i in range(n)]
    arrows = [(f"a{i}_{j}", (str(i), str(j)))
              for i in range(n) for j in range(i + 1, n)]
    if rng is not None:
        rng.shuffle(objects)
        rng.shuffle(arrows)
    return make_category(
        f"Ord{n}", tuple(objects), dict(arrows),
        {(f"a{j}_{k}", f"a{i}_{j}"): f"a{i}_{k}"
         for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)})


def compose_prof_oracle(j, h):
    """compose_prof as it was before its position-ordered kernel: a
    tuple-keyed union-find, each class's least member found with ``min``
    over a key of ``tuple.index`` calls, and the fiber sorted by that key.
    Every action is read through ``act_left``/``act_right`` once per pair."""
    if j.target != h.source:
        raise ValueError("profunctors not composable")
    ac, bc, ec = j.source, j.target, h.target

    def key(a, e):
        def k(pair):
            b, x, y = pair
            return (bc.objects.index(b), j.fiber(a, b).index(x),
                    h.fiber(b, e).index(y))
        return k

    classes = {}
    named = {}
    fibers = {}
    for a in ac.objects:
        for e in ec.objects:
            uf = UnionFind()
            pairs = [(b, x, y) for b in bc.objects
                     for x in j.fiber(a, b) for y in h.fiber(b, e)]
            for p in pairs:
                uf.add(p)
            for v in bc.morphisms:
                b1, b2 = bc.src[v], bc.tgt[v]
                for x in j.fiber(a, b1):
                    xv = j.act_right(a, b1, x, v)
                    for y in h.fiber(b2, e):
                        vy = h.act_left(v, b2, e, y)
                        uf.union((b2, xv, y), (b1, x, vy))
            reps = {}
            for p in pairs:
                root = uf.find(p)
                reps.setdefault(root, []).append(p)
            cls = {}
            kf = key(a, e)
            for members in reps.values():
                least = min(members, key=kf)
                for p in members:
                    cls[p] = least
            classes[(a, e)] = cls
            fiber = sorted({least for least in cls.values()}, key=kf)
            named[(a, e)] = {pair_id(*p): p for p in fiber}
            if fiber:
                fibers[(a, e)] = tuple(named[(a, e)])
    action = {}
    for (a, e), elems in fibers.items():
        for cid in elems:
            b, x, y = named[(a, e)][cid]
            for u in ac.into(a):
                a2 = ac.src[u]
                xu = j.act_left(u, a, b, x)
                for w in ec.out_of(e):
                    e2 = ec.tgt[w]
                    yw = h.act_right(b, e, y, w)
                    rep = classes[(a2, e2)][(b, xu, yw)]
                    action[(u, a, e, cid, w)] = pair_id(*rep)
    composite = Profunctor(f"({j.name}*{h.name})", ac, ec, fibers, action)
    return composite, CoendWitness(j, h, composite, classes, named)


def composite_tables(composite, witness):
    """Name, fibers, action, classes and named of a composite as nested
    lists of items, so that comparing two of them compares insertion order
    as well as values."""
    return (composite.name, list(composite.fibers.items()),
            list(composite.action.items()),
            [(k, list(v.items())) for k, v in witness.classes.items()],
            [(k, list(v.items())) for k, v in witness.named.items()])


def composable_pairs(limit=40):
    pairs = []
    corpus = profunctor_corpus()
    for j, h in itertools.product(corpus, repeat=2):
        if j.target == h.source:
            pairs.append((j, h))
        if len(pairs) >= limit:
            break
    return pairs


def restriction_iso_cell(k, f, g):
    """The comparison cell f_* * (K * g^*) -> K(f, g).

    It sends the class of (p : f a -> c, x in K(c, d), q : d -> g b) to
    the two-sided action of p and q on x; the restriction being the
    three-fold composite amounts to this cell being a componentwise
    bijection.
    """
    inner, w_inner = compose_prof(k, conjoint(g))
    triple, w_outer = compose_prof(companion(f), inner)
    r = restrict(k, f, g)
    comp = {}
    for a, b, cid in triple.elements():
        c, p, mid = w_outer.least(a, b, cid)
        d, x, q = w_inner.least(c, b, mid)
        comp[(a, b, cid)] = k.act(p, c, d, x, q)
    return Cell(f"rcomp_{k.name}", triple, r,
                identity_functor(f.source), identity_functor(g.source), comp)


def rhom_transpose(phi, w_jh, rh_prof, j):
    """Carry a cell J * H -> K across the adjunction to J -> K <| H."""
    h, k = w_jh.right, phi.htgt
    ec = k.target
    comp = {}
    for a, b, x in j.elements():
        fam = {}
        for e in ec.objects:
            fam[e] = {y: phi.comp[(a, e, w_jh.class_id(a, e, b, x, y))]
                      for y in h.fiber(b, e)}
        comp[(a, b, x)] = family_id(ec.objects, fam)
    return Cell(f"tr_{phi.name}", j, rh_prof,
                identity_functor(j.source), identity_functor(j.target), comp)


def rhom_untranspose(psi, w_jh, rh_witness, k):
    """The inverse passage, J -> K <| H back to J * H -> K."""
    jh = w_jh.composite
    comp = {}
    for a, e, cid in jh.elements():
        b, x, y = w_jh.least(a, e, cid)
        fam = rh_witness.family(a, b, psi.comp[(a, b, x)])
        comp[(a, e, cid)] = fam[e][y]
    return Cell(f"un_{psi.name}", jh, k,
                identity_functor(jh.source), identity_functor(jh.target), comp)


def adjunction_setups():
    """Triples (J, H, K) with J : A -/-> B, H : B -/-> E, K : A -/-> E."""
    one, two, three = (zoo.terminal_category(), zoo.walking_arrow(),
                       zoo.composable_pair())
    p0, p1 = zoo.pick(two, "0"), zoo.pick(two, "1")
    emb = all_functors(two, three)[2]
    return [
        (companion(p0), unit_prof(two), companion(p0)),
        (companion(p0), unit_prof(two), companion(p1)),
        (companion(p1), conjoint(p0), unit_prof(one)),
        (unit_prof(two), companion(emb), companion(emb)),
    ]
