"""Right Kan extensions along profunctors, decided by finite enumeration.

A candidate extension is a cell eps : J -> 1_M over (r, d); it is a right
extension when every competitor cell factors through it by a unique
natural transformation, and pointwise when in addition morphisms
m -> r(a) correspond to natural families J(a, b) -> M(m, d b).  Both
properties are decided exactly on the given finite data.  The pointwise
property holds exactly when each restriction (a, r a, eps_a), eps_a being
eps's components at a, is a limit cone; two independent procedures judge
each restriction, Dubuc's hom bijection and the limit comparison, and the
check refuses to answer at the first object where they disagree.

The quantifiers, the limits over categories of elements (``all_cones``)
and the right hom d^* <| J (``rhom``) all run on the one search of
``fincat``, in the orders that fix the witness names (``F3``, ``c0``) of
``is_right_exact`` and the apex of ``limit``.  The competitors of a
problem, each functor s : A -> M with its cells J -> 1_M over (s, d), come
from one search per problem, which binds s and then each cell's components
(``RanProblem.competitors``): the order of ``all_functors`` and
``cells_between``, with the checks that do not depend on d filed once per
(J, M) in a ``CompetitorNetwork``.  ``RanProblem.is_ran`` then searches
``all_natural_transformations`` once per competitor.  A pointwise cell is
a right extension (Dubuc), so the decision ``is_ran`` first reads Dubuc's
condition, the hom-bijection verdict of ``is_pointwise_ran``, at each
object, and answers yes when every one holds; otherwise the competitor
search decides, and every no comes from that search.  Ordinary
``is_right_exact`` runs the search alone.

``pointwise_ran``, ``is_ran``, ``is_pointwise_ran`` and ``is_right_exact``
are decisions (``fincat.decision``): within one call, each search, unit
profunctor and ``RanProblem`` is built once per distinct arguments, and
none is kept after it.  A ``RanProblem`` holds what a decision needs about
(J, d), each part built once, when first asked for: its competitors (every
functor s : A -> M with its cells J -> 1_M over (s, d), if it has any),
its right hom d^* <| J, its limits and each procedure's verdict on each
restriction (a, r a, eps_a) it was asked about, which candidates that
agree at a share.  The limits are taken over J's categories of elements,
which depend on J alone: ``elements_categories`` builds them once per
decision for the problems of every d.  ``is_ran`` and
``is_pointwise_ran`` validate their candidate and consult its problem, and
``is_right_exact`` judges each of its candidates, the competitors of the
problem of (K, d), against the problems of (K, d) and (J, d . g).  A
competitor is named ``s``, as its place in ``all_functors`` is not known;
``is_right_exact`` renames each r, and each r . f, after its place in the
list of all functors, so that the memo holds no search twice under two
names and witnesses name ``F<n>``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import (Cone, Functor, FunctorNetwork, NoLimit, all_functors,
                     all_natural_transformations, category_of_elements,
                     comma_category, compose_functors, construction, decision,
                     derived, file_checks, identity_functor, is_connected,
                     limit, mediating_morphisms, search)
from .prof import (Cell, Profunctor, bijects_onto, cartesian_cell,
                   componentwise_bijective, compose_prof, conjoint,
                   family_slots, lower_star, naturality_plan, rhom, unit_prof,
                   validate_cell, vcompose)
from . import zoo

_ONE = zoo.terminal_category()      # never mutated; built once, not per call


class InvariantViolation(Exception):
    """A computed construction lacks a property it has by theory."""


class OracleDisagreement(InvariantViolation):
    """Two independent decision procedures returned different verdicts."""


@dataclass(frozen=True, eq=True)
class RanCandidate:
    """Candidate right extension of d : B -> M along J : A -/-> B."""

    j: Profunctor
    d: Functor
    r: Functor
    eps: Cell

    def __hash__(self):
        return hash((self.j, self.r, self.eps))

    def validate(self):
        """The problems of eps as a cell J -> 1_M over (r, d)."""
        problems = validate_cell(self.eps)
        if self.eps.vsrc != self.r or self.eps.vtgt != self.d:
            problems.append("cell boundary does not match (r, d)")
        if self.eps.hsrc != self.j or \
                self.eps.htgt != unit_prof(self.d.target):
            problems.append("cell is not J -> 1_M")
        return problems


def elements_category(j, a):
    """The category of elements of J(a, -), its projection to B and the
    object id of each (b, x): the category of the triples (*, x, b), x in
    J(a, b), listed by b then x, over the terminal category, so that
    v : b -> b' connects (b, x) to (b', x . v).  Arrows are listed as
    ``category_of_elements`` lists them."""
    triples = [("*", x, b) for b in j.target.objects for x in j.fiber(a, b)]
    cat, _, proj, triple = category_of_elements(
        f"el({j.name},{a})", _ONE, j.target, triples,
        lambda _, b, x, v: j.act_right(a, b, x, v), lambda u, _, b, x: x)
    return cat, proj, {(b, x): o for o, (_, x, b) in triple.items()}


@construction
def elements_categories(j):
    """``elements_category(j, a)`` for each object a of J's source: one
    decision builds them once per J, whichever d its problems extend."""
    return {a: elements_category(j, a) for a in j.source.objects}


def _unique_mediator(lim, cone, where):
    """The morphism from the cone's apex through which the cone factors
    over the limit cone lim, which exists and is unique by theory."""
    med = mediating_morphisms(lim, cone)
    if len(med) != 1:
        raise InvariantViolation(f"limit universal property violated {where}: "
                                 f"{len(med)} mediating morphisms")
    return med[0]


@decision
def pointwise_ran(j, d):
    """Compute the pointwise right extension of d along J objectwise as a
    limit over the category of elements; raises NoLimit naming the object
    at which the target category falls short."""
    ac, mc = j.source, d.target
    problem = RanProblem(j, d)
    keys, terminal_cones = {}, {}
    for a in ac.objects:
        keys[a], _, terminal_cones[a] = problem.limit_at(a)
        if terminal_cones[a] is None:
            raise NoLimit(f"no limit at object {a}")
    r_obj = {a: terminal_cones[a].apex for a in ac.objects}
    r_mor = {}
    for u in ac.morphisms:
        a, a2 = ac.src[u], ac.tgt[u]
        # pull the a2-diagram back along u to a cone with apex r(a)
        legs = {}
        for (b, x2), key in keys[a2].items():
            pulled = j.act_left(u, a2, b, x2)
            legs[key] = terminal_cones[a].legs[keys[a][(b, pulled)]]
        cone = Cone(terminal_cones[a2].diagram, r_obj[a], legs)
        r_mor[u] = _unique_mediator(terminal_cones[a2], cone, f"at {u}")
    r = Functor(f"ran({d.name},{j.name})", ac, mc, r_obj, r_mor)
    comp = {(a, b, x): terminal_cones[a].legs[keys[a][(b, x)]]
            for a, b, x in j.elements()}
    eps = Cell(f"eps_ran({d.name},{j.name})", j, problem.um, r, d, comp)
    return RanCandidate(j, d, r, eps)


@construction
class CompetitorNetwork:
    """What the competitor searches of the problems out of J into M share,
    whatever d they extend: a ``FunctorNetwork(A, M)`` for s, followed by
    one position per element of J, listed along ``naturality_plan(J).elems``
    and bound to a component in M(s a, d b) (``ends`` holds the position
    of a and the object b).  ``triples`` holds the composite checks of s
    and a triple check per left square, which says that the component at
    i2, elems[i] . u, is the one at i composed with s(u), read at u's
    position.  ``right`` lists each right square (i, v, i2) by its
    positions; its pair check, ``after[d(v)]``, allows for each arrow y
    into d b only d(v) . y, so each problem files it.  ``inhabited``
    lists, per object a of A, the b with a nonempty J(a, b), and
    ``objects`` holds the checks of the object phase, filed."""

    def __init__(self, j, mc):
        functors = self.functors = FunctorNetwork(j.source, mc)
        plan = naturality_plan(j)
        n, at = len(functors.arrows), functors.at
        pos = {a: i for i, a in enumerate(j.source.objects)}
        self.elems = plan.elems
        self.ends = [(pos[a], b) for a, b, _ in plan.elems]
        self.triples = functors.composites + [
            (n + i, at[u], n + i2, mc.table) for i, u, _, _, i2 in plan.left]
        self.right = [(n + i, v, n + i2) for i, v, _, _, i2 in plan.right]
        self.inhabited = [[b for b in j.target.objects if j.fiber(a, b)]
                          for a in j.source.objects]
        self.objects = file_checks(functors.reach)
        self.after = {w: {y: (mc.table[(w, y)],) for y in mc.into(mc.src[w])}
                      for w in mc.morphisms}


@construction
class RanProblem:
    """The right extension of d : B -> M along J : A -/-> B, as the data
    that every candidate (r, eps) is judged against: its competitors, the
    right hom d^* <| J, the limit over the category of elements at each
    object of A and ``family_slots(J, a)``, each built once, when first
    asked for, and kept with the problem.  So are the verdicts of both
    pointwise procedures, per restriction (a, r a, eps_a): a candidate
    whose restriction at a another candidate already had reads them.

    A ``fincat.construction``: one decision has one problem per (J, d),
    shared by the candidates it judges.
    Candidates reach it already validated.
    """

    def __init__(self, j, d):
        self.j, self.d = j, d
        self.mc = d.target
        self.um = unit_prof(self.mc)
        self._limits = {}
        self._verdicts = {_hom_bijection_at: {}, _limit_comparison_at: {}}

    @derived
    def competitors(self):
        """The pairs (s, its cells J -> 1_M over (s, d)) with at least one
        cell: s in the order of ``all_functors(A, M)`` and its cells in
        the order of ``cells_between``, named ``c0``, ``c1``, ... but each s
        named ``s``, as its ``F<n>`` name is not known here.

        One search per object map binds s's arrows, then the cell's
        components along ``naturality_plan(J).elems``, on the checks of
        ``CompetitorNetwork(J, M)`` and a pair check per right square,
        filed once per problem.  An object a with a nonempty J(a, b) may
        only go to an s a with a nonempty M(s a, d b), so an s with no
        cell is never bound."""
        j, d, mc, um = self.j, self.d, self.mc, self.um
        ac, net = j.source, CompetitorNetwork(j, mc)
        arrows, n = net.functors.arrows, len(net.functors.arrows)
        dobj, dmor, homs, hom = d.obj, d.mor, um.fibers, mc.hom
        domains = [[v for v in mc.objects
                    if all((v, dobj[b]) in homs for b in inhabited)]
                   for inhabited in net.inhabited]
        filed = file_checks([(i, i2, net.after[dmor[v]])
                             for i, v, i2 in net.right], net.triples)
        found = []
        for images in search(domains, net.objects):
            obj = dict(zip(ac.objects, images))
            cells = None
            for picks in search(net.functors.homs(images) +
                                [hom(images[p], dobj[b]) for p, b in net.ends],
                                filed):
                if cells is None or picks[:n] != mors:
                    mors, cells = picks[:n], []
                    s = Functor("s", ac, mc, obj, dict(zip(arrows, mors)))
                    found.append((s, cells))
                cells.append(Cell(f"c{len(cells)}", j, um, s, d,
                                  dict(zip(net.elems, picks[n:]))))
        return found

    @derived
    def right_hom(self):
        """The right hom d^* <| J : M -/-> A."""
        return rhom(conjoint(self.d), self.j)

    @derived
    def _elements(self):
        """``elements_categories(J)``, read once per problem and shared
        by the problems of one J within a decision."""
        return elements_categories(self.j)

    @derived
    def _slots(self):
        """``family_slots(J, a)`` for each object a of A."""
        return {a: family_slots(self.j, a) for a in self.j.source.objects}

    def limit_at(self, a):
        """(oid, diagram, terminal cone) of d over the category of elements
        of J(a, -), one of ``elements_categories(J)``; the terminal cone is
        None where M has no limit.  Each is taken on its first request."""
        if a not in self._limits:
            _, proj, oid = self._elements[a]
            diagram = compose_functors(self.d, proj)
            try:
                term = limit(diagram)
            except NoLimit:
                term = None
            self._limits[a] = (oid, diagram, term)
        return self._limits[a]

    def restrictions(self, r, eps):
        """The restriction (a, r a, eps_a) of (r, eps) at each object a of
        A, in A's order, where eps_a lists eps's components at a along
        ``family_slots(J, a)``.  An empty column J(a, -) gives eps_a = (),
        so r a stays in the key."""
        comp, robj = eps.comp, r.obj
        for a, slots in self._slots.items():
            yield a, robj[a], tuple([comp[(a, b, x)] for b, x in slots])

    def verdict(self, test, a, ra, eps_a):
        """``test(self, a, ra, eps_a)``, one pointwise procedure's verdict
        on the restriction (a, ra, eps_a), computed once per problem."""
        done, key = self._verdicts[test], (a, ra, eps_a)
        found = done.get(key)
        if found is None:
            found = done[key] = test(self, a, ra, eps_a)
        return found

    def is_ran(self, r, eps):
        """Every competitor over (s, d) is eps . alpha for exactly one
        alpha in Nat(s, r): the images eps . alpha are hashed and counted,
        and each competitor must be hit once."""
        mc = self.mc
        eps_at = [(eps.comp[e], e[0]) for e in self.j.elements()]
        for s, cells in self.competitors:
            hits = {}       # keyed as Cell.key lists the components
            for alpha in all_natural_transformations(s, r):
                c = alpha.components
                img = tuple(mc.compose(x, c[a]) for x, a in eps_at)
                hits[img] = hits.get(img, 0) + 1
            if any(hits.get(cell.key) != 1 for cell in cells):
                return False
        return True

    def is_pointwise_ran(self, r, eps):
        """Pointwise property, one restriction at a time: at each object a,
        in A's order, both procedures judge whether eps_a is a limit cone
        with apex r a, and they must agree there.  The first object where
        both say no decides no."""
        for key in self.restrictions(r, eps):
            one = self.verdict(_hom_bijection_at, *key)
            two = self.verdict(_limit_comparison_at, *key)
            if one != two:
                raise OracleDisagreement(
                    f"pointwise procedures disagree on {eps.name} at "
                    f"{key[0]}: hom-bijection={one}, limit-comparison={two}")
            if not one:
                return False
        return True


def _checked(cand):
    """The problem of a candidate from outside, after validating the
    candidate."""
    problems = cand.validate()
    if problems:
        raise ValueError(f"{cand.eps.name} is not a candidate cell J -> 1_M "
                         f"over (r, d): {problems[0]}")
    return RanProblem(cand.j, cand.d)


@decision
def is_ran(cand):
    """Exact decision of the right-extension property: every cell
    J -> 1_M over (s, d) must factor through eps by exactly one natural
    transformation s => r.  A pointwise cell is a right extension (Dubuc),
    so a candidate whose every restriction passes the hom-bijection test is
    one; those verdicts are the problem's, shared with
    ``is_pointwise_ran``.  The competitor search decides the others, and
    every no comes from it.  Raises ValueError on a malformed candidate."""
    problem = _checked(cand)
    if all(problem.verdict(_hom_bijection_at, *key)
           for key in problem.restrictions(cand.r, cand.eps)):
        return True
    return problem.is_ran(cand.r, cand.eps)


@decision
def _is_ran_by_search(cand):
    """is_ran by the competitor search alone, without the pointwise test:
    the ordinary verdict wherever it is checked against a pointwise one."""
    return _checked(cand).is_ran(cand.r, cand.eps)


def _hom_bijection_at(problem, a, ra, eps_a):
    """Pointwise test at a, procedure one, Dubuc's condition: p : m -> r a
    must correspond bijectively to the natural families J(a, b) -> M(m, d b),
    the elements of the right hom d^* <| J over (m, a).  Each p gives the
    family eps_a . p, each image composed with p, as the right hom lists
    its elements."""
    mc = problem.mc
    rh, compose = problem.right_hom, mc.compose
    return all(bijects_onto([tuple([compose(y, p) for y in eps_a])
                             for p in mc.hom(m, ra)], rh.fiber(m, a))
               for m in mc.objects)


def _limit_comparison_at(problem, a, ra, eps_a):
    """Pointwise test at a, procedure two: eps_a is a cone with apex r a
    over d's diagram on the category of elements of J(a, -), and its
    mediating morphism from the limit's apex must be invertible in M."""
    mc = problem.mc
    oid, diagram, term = problem.limit_at(a)
    if term is None:
        return False
    legs = {oid[slot]: y for slot, y in zip(problem._slots[a], eps_a)}
    cone = Cone(diagram, ra, legs)
    if cone.validate():
        return False
    med = mediating_morphisms(term, cone)
    if len(med) != 1:
        return False
    t = med[0]
    return any(mc.compose(t, s) == mc.identity(term.apex) and
               mc.compose(s, t) == mc.identity(ra)
               for s in mc.hom(term.apex, ra))


@decision
def is_pointwise_ran(cand):
    """Pointwise right-extension property, decided restriction by
    restriction by two independent procedures, which must agree at each
    object of A; a disagreement raises ``OracleDisagreement`` naming eps
    and the object.  Raises ValueError on a malformed candidate."""
    return _checked(cand).is_pointwise_ran(cand.r, cand.eps)


def restrict_candidate(cand, f):
    """The candidate obtained by restricting along f : C -> A on the left:
    r . f together with eps pasted onto the cartesian cell of J(f, id)."""
    j, d, r, eps = cand.j, cand.d, cand.r, cand.eps
    kappa = cartesian_cell(j, f, identity_functor(j.target))
    eps_f = vcompose(eps, kappa)
    return RanCandidate(kappa.hsrc, d, compose_functors(r, f), eps_f)


def default_object_probes(ac):
    """Identity plus every object pick One -> A."""
    return [identity_functor(ac)] + [zoo.pick(ac, a) for a in ac.objects]


def check_pointwise_probes(cand, probes=None):
    """For each probe f : C -> A report whether the restricted candidate is
    a pointwise (and an ordinary) right extension.  The ordinary verdict
    comes from the competitor search alone, since ``is_ran`` answers a
    pointwise candidate by the pointwise test itself."""
    if probes is None:
        probes = default_object_probes(cand.j.source)
    report = {}
    for f in probes:
        sub = restrict_candidate(cand, f)
        report[f.name] = {
            "pointwise": is_pointwise_ran(sub),
            "ordinary": _is_ran_by_search(sub),
        }
    return report


# ---------------------------------------------------------------------------
# exactness


def composite_candidate(gamma, cand):
    """Paste gamma : J -> 1_M over (s, r) onto cand.eps : H -> 1_M over
    (r, d), yielding a candidate for s along J * H."""
    j, h = gamma.hsrc, cand.j
    mc = cand.d.target
    jh, _ = compose_prof(j, h)
    comp = {(a, b, (mid, x, y)): mc.compose(cand.eps.comp[(mid, b, y)],
                                            gamma.comp[(a, mid, x)])
            for a, b, (mid, x, y) in jh.elements()}
    eps = Cell(f"({gamma.name};{cand.eps.name})", jh, unit_prof(mc),
               gamma.vsrc, cand.d, comp)
    return RanCandidate(jh, cand.d, gamma.vsrc, eps)


def pasting_check(gamma, cand):
    """Report the four extension verdicts in the pasting situation: gamma
    as a candidate for s along J with target r, and the pasted composite as
    a candidate for s along J * H.  When cand is pointwise, the matching
    verdicts must agree pairwise.  The ordinary verdicts come from the
    competitor search alone, as in ``check_pointwise_probes``."""
    if not is_pointwise_ran(cand):
        raise ValueError("pasting_check requires a pointwise base candidate")
    gamma_cand = RanCandidate(gamma.hsrc, cand.r, gamma.vsrc, gamma)
    comp_cand = composite_candidate(gamma, cand)
    return {
        "gamma_ordinary": _is_ran_by_search(gamma_cand),
        "gamma_pointwise": is_pointwise_ran(gamma_cand),
        "composite_ordinary": _is_ran_by_search(comp_cand),
        "composite_pointwise": is_pointwise_ran(comp_cand),
    }


def beck_chevalley(cell):
    """Base-change condition: the mate J * g_* -> f_* * K of the cell must
    biject in every fiber.  Sufficient for pointwise right exactness."""
    return componentwise_bijective(lower_star(cell))


def comma_square_cell(f, k):
    """The canonical square cell of the comma category of f : A -> C and
    k : D -> C: a cell p^* -> k^* over (f, q) where p, q are the
    projections.  These squares always satisfy beck_chevalley."""
    comma = comma_category(f, k)
    p, q = comma.proj_left, comma.proj_right
    top = conjoint(p)      # A -/-> (f/k)
    bot = conjoint(k)      # C -/-> D
    cc = f.target
    # u : a -> p(w), pasted with the canonical component at w
    comp = {(a, w, u): cc.compose(comma.components[w], f.mor[u])
            for a, w, u in top.elements()}
    return Cell(f"comma_{f.name}_{k.name}", top, bot, f, q, comp), comma


@decision
def is_right_exact(cell, mode="pointwise", probe_cats=None):
    """Decide right exactness of a square cell phi : J -> K over (f, g)
    over a probe set of target categories: whenever eps exhibits a
    (pointwise) right extension of d along K, the pasted composite must
    exhibit r . f as a (pointwise) right extension of d . g along J.
    ``mode`` is "pointwise" or "ordinary"; any other value is a ValueError.

    Quantifying over all targets is impossible, so the verdict is relative
    to the probe set; the default is zoo.probe_categories(): the terminal
    category, the walking arrow, the discrete category on two objects and
    the parallel pair.  Candidates come in the order probe, d, r, eps of
    all_functors and cells_between: the competitors of the problem of
    (K, d), for each d.  The first failure is the returned witness.  A
    decision: the RanProblem of each (K, d) and (J, d . g) is built once
    and shared by every candidate.
    """
    if mode not in ("pointwise", "ordinary"):
        raise ValueError(f"unknown mode {mode!r}: expected 'pointwise' or "
                         "'ordinary'")
    if probe_cats is None:
        probe_cats = zoo.probe_categories()
    f, g = cell.vsrc, cell.vtgt
    j, k = cell.hsrc, cell.htgt

    def check(prob, r, eps):
        if mode == "pointwise":
            return prob.is_pointwise_ran(r, eps)
        return prob.is_ran(r, eps)

    for mc in probe_cats:
        ds, rs = all_functors(g.target, mc), all_functors(k.source, mc)
        # each competitor r (named s), d . g and r . f are replaced by the
        # equal functor listed here, if any, as the memo tells functors
        # apart by name: equal problems and searches are then built once,
        # and the witness names r by its place in rs
        same = {h: h for h in (*ds, *rs)}
        for d in ds:
            top = RanProblem(k, d)
            dg = compose_functors(d, g)
            sub = RanProblem(j, same.get(dg, dg))
            for r, cells in top.competitors:
                r = same[r]
                rf = compose_functors(r, f)
                rf = same.get(rf, rf)
                for eps in cells:
                    if check(top, r, eps) and \
                            not check(sub, rf, vcompose(eps, cell)):
                        return False, {"target": mc.name, "d": d.name,
                                       "r": r.name, "eps": eps.name}
    return True, None


def is_initial_functor(g):
    """g : B -> D is initial when restriction along it preserves limits of
    every diagram.  Decided by comma connectivity, cross-checked against
    invertibility of the terminal-collapse mate."""
    bc, dc = g.source, g.target
    by_commas = all(is_connected(comma_category(g, zoo.pick(dc, x)).category)
                    for x in dc.objects)

    bang_b = zoo.bang(bc)
    bang_d = zoo.bang(dc)
    top = conjoint(bang_b)     # One -/-> B, every fiber a single point
    bot = conjoint(bang_d)     # One -/-> D
    one = bang_b.target
    comp = {("*", b, one.identity("*")): one.identity("*") for b in bc.objects}
    cell = Cell(f"collapse_{g.name}", top, bot, identity_functor(one), g, comp)
    by_mate = beck_chevalley(cell)

    if by_commas != by_mate:
        raise OracleDisagreement(
            f"initiality procedures disagree on {g.name}: "
            f"commas={by_commas}, mate={by_mate}")
    return by_commas


def initial_mediating_iso(g, d):
    """For initial g and a diagram d : D -> M whose restriction along g has
    a limit, return the pair of mediating morphisms comparing the two
    limits; both composites are identities when both limits exist.  Raises
    ValueError when g is visibly not initial: some comma category g / x is
    empty."""
    mc = d.target
    restricted = compose_functors(d, g)
    lim_d = limit(d)
    lim_r = limit(restricted)
    # the d-limit restricts to a cone over d . g
    cone_r = Cone(restricted, lim_d.apex,
                  {b: lim_d.legs[g.obj[b]] for b in g.source.objects})
    fwd = _unique_mediator(lim_r, cone_r, f"into lim {restricted.name}")
    # initiality: the restricted limit carries a unique cone over d
    legs = {}
    for x in d.source.objects:
        comma = comma_category(g, zoo.pick(g.target, x))
        if not comma.category.objects:
            raise ValueError(f"{g.name} is not initial: its comma category "
                             f"over the object {x} is empty")
        # any comma object (b, u, *) induces the same leg d(u) . leg_b
        cobj = comma.category.objects[0]
        b = comma.proj_left.obj[cobj]
        u = comma.components[cobj]
        legs[x] = mc.compose(d.mor[u], lim_r.legs[b])
    cone_d = Cone(d, lim_r.apex, legs)
    problems = cone_d.validate()
    if problems:
        raise InvariantViolation(
            f"restricted limit gives no cone over {d.name}: {problems}")
    bwd = _unique_mediator(lim_d, cone_d, f"into lim {d.name}")
    return fwd, bwd
