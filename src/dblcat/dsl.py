"""A small text format for workspaces of categories, functors, profunctors
and cells, with a total parser (every failure is a diagnostic carrying a
line and column) and a canonical serializer that round-trips.

    # comment
    category C {
      objects: x, y;
      arrow f: x -> y;
      compose g . f = h;
    }
    functor F : C -> D {
      obj x => u;
      arr f => k;
    }
    profunctor J : C -/-> D {
      elt j : x -/-> u;
      act v . j . u = j2;
    }
    cell phi : J => K left F right G {
      map j => k;
    }

Identity morphisms are implicit and written ``1_x``.  An ``act`` line
``act v . j . u = j2`` post-composes with v in the target and
pre-composes with u in the source; the parser completes the stated
actions to a total table and rejects underdetermined or inconsistent
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fincat import Functor, make_category, validate_category
from .prof import Cell, Profunctor, validate_cell, validate_profunctor


class DslError(Exception):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass
class Workspace:
    categories: dict = field(default_factory=dict)
    functors: dict = field(default_factory=dict)
    profunctors: dict = field(default_factory=dict)
    cells: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# tokenizer

SYMBOLS = ["-/->", "->", "=>", "{", "}", ":", ";", ",", "=", "."]
# the symbols by first character, longest first; none starts like a name
_SYMBOLS_AT = {c: sorted((s for s in SYMBOLS if s[0] == c), key=len,
                         reverse=True)
               for c in {s[0] for s in SYMBOLS}}


def tokenize(text):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalnum() or c in "_'":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS_AT.get(c, ()):
            if text.startswith(sym, i):
                tokens.append(("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise DslError(f"unexpected character {c!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise DslError(message, tok[2], tok[3])

    def expect_sym(self, sym):
        tok = self.next()
        if tok[0] != "sym" or tok[1] != sym:
            self.error(f"expected {sym!r}, found {tok[1]!r}", tok)
        return tok

    def expect_name(self, what="a name"):
        tok = self.next()
        if tok[0] != "name":
            self.error(f"expected {what}, found {tok[1] or 'end of input'!r}", tok)
        return tok

    def expect_keyword(self, word):
        tok = self.expect_name(f"keyword {word!r}")
        if tok[1] != word:
            self.error(f"expected keyword {word!r}, found {tok[1]!r}", tok)
        return tok

    # -- workspace -----------------------------------------------------

    def parse_workspace(self):
        ws = Workspace()
        while True:
            tok = self.peek()
            if tok[0] == "eof":
                return ws
            if tok[0] != "name":
                self.error(f"expected a block keyword, found {tok[1]!r}")
            if tok[1] == "category":
                self.parse_category(ws)
            elif tok[1] == "functor":
                self.parse_functor(ws)
            elif tok[1] == "profunctor":
                self.parse_profunctor(ws)
            elif tok[1] == "cell":
                self.parse_cell(ws)
            else:
                self.error(f"unknown block keyword {tok[1]!r}")

    def lookup(self, table, name_tok, what):
        if name_tok[1] not in table:
            self.error(f"unknown {what} {name_tok[1]!r}", name_tok)
        return table[name_tok[1]]

    # -- category ------------------------------------------------------

    def parse_category(self, ws):
        self.expect_keyword("category")
        name = self.expect_name("a category name")
        if name[1] in ws.categories:
            self.error(f"category {name[1]!r} defined twice", name)
        self.expect_sym("{")
        self.expect_keyword("objects")
        self.expect_sym(":")
        objects = []
        while True:
            objects.append(self.expect_name("an object name")[1])
            tok = self.next()
            if tok[1] == ";":
                break
            if tok[1] != ",":
                self.error("expected ',' or ';' in object list", tok)
        if len(set(objects)) != len(objects):
            self.error("duplicate object name", name)
        arrows = {}
        composites = {}
        pending = []
        while True:
            tok = self.peek()
            if tok[1] == "}":
                self.next()
                break
            kw = self.expect_name("'arrow', 'compose' or '}'")
            if kw[1] == "arrow":
                f = self.expect_name("an arrow name")
                if f[1] in arrows or f[1] in (f"1_{o}" for o in objects):
                    self.error(f"arrow {f[1]!r} defined twice", f)
                self.expect_sym(":")
                a = self.expect_name("an object")
                self.expect_sym("->")
                b = self.expect_name("an object")
                for o in (a, b):
                    if o[1] not in objects:
                        self.error(f"unknown object {o[1]!r}", o)
                arrows[f[1]] = (a[1], b[1])
                self.expect_sym(";")
            elif kw[1] == "compose":
                g = self.expect_name("an arrow")
                self.expect_sym(".")
                f = self.expect_name("an arrow")
                self.expect_sym("=")
                h = self.expect_name("an arrow")
                self.expect_sym(";")
                pending.append((g, f, h))
            else:
                self.error(f"expected 'arrow' or 'compose', found {kw[1]!r}", kw)
        known = set(arrows) | {f"1_{o}" for o in objects}
        for g, f, h in pending:
            for tok in (g, f, h):
                if tok[1] not in known:
                    self.error(f"unknown arrow {tok[1]!r}", tok)
            composites[(g[1], f[1])] = h[1]
        cat = make_category(name[1], objects, arrows, composites)
        problems = validate_category(cat)
        if problems:
            self.error(f"category {name[1]!r} is not a category: {problems[0]}",
                       name)
        ws.categories[name[1]] = cat

    # -- functor -------------------------------------------------------

    def parse_functor(self, ws):
        self.expect_keyword("functor")
        name = self.expect_name("a functor name")
        if name[1] in ws.functors:
            self.error(f"functor {name[1]!r} defined twice", name)
        self.expect_sym(":")
        src = self.lookup(ws.categories, self.expect_name("a category"), "category")
        self.expect_sym("->")
        tgt = self.lookup(ws.categories, self.expect_name("a category"), "category")
        self.expect_sym("{")
        obj_map, mor_map = {}, {}
        while True:
            tok = self.peek()
            if tok[1] == "}":
                self.next()
                break
            kw = self.expect_name("'obj', 'arr' or '}'")
            if kw[1] == "obj":
                a = self.expect_name("an object")
                self.expect_sym("=>")
                b = self.expect_name("an object")
                self.expect_sym(";")
                if a[1] not in src.objects:
                    self.error(f"unknown object {a[1]!r}", a)
                if b[1] not in tgt.objects:
                    self.error(f"unknown object {b[1]!r}", b)
                obj_map[a[1]] = b[1]
            elif kw[1] == "arr":
                f = self.expect_name("an arrow")
                self.expect_sym("=>")
                g = self.expect_name("an arrow")
                self.expect_sym(";")
                if f[1] not in src.morphisms:
                    self.error(f"unknown arrow {f[1]!r}", f)
                if g[1] not in tgt.morphisms:
                    self.error(f"unknown arrow {g[1]!r}", g)
                mor_map[f[1]] = g[1]
            else:
                self.error(f"expected 'obj' or 'arr', found {kw[1]!r}", kw)
        missing = [o for o in src.objects if o not in obj_map]
        if missing:
            self.error(f"functor {name[1]!r} misses object {missing[0]!r}", name)
        for o in src.objects:
            mor_map.setdefault(src.identity(o), tgt.identity(obj_map[o]))
        missing = [m for m in src.morphisms if m not in mor_map]
        if missing:
            self.error(f"functor {name[1]!r} misses arrow {missing[0]!r}", name)
        fun = Functor(name[1], src, tgt, obj_map, mor_map)
        problems = fun.validate()
        if problems:
            self.error(f"functor {name[1]!r} is not a functor: {problems[0]}",
                       name)
        ws.functors[name[1]] = fun

    # -- profunctor ----------------------------------------------------

    def parse_profunctor(self, ws):
        self.expect_keyword("profunctor")
        name = self.expect_name("a profunctor name")
        if name[1] in ws.profunctors:
            self.error(f"profunctor {name[1]!r} defined twice", name)
        self.expect_sym(":")
        src = self.lookup(ws.categories, self.expect_name("a category"), "category")
        self.expect_sym("-/->")
        tgt = self.lookup(ws.categories, self.expect_name("a category"), "category")
        self.expect_sym("{")
        fibers = {}
        home = {}
        stated = []
        while True:
            tok = self.peek()
            if tok[1] == "}":
                self.next()
                break
            kw = self.expect_name("'elt', 'act' or '}'")
            if kw[1] == "elt":
                j = self.expect_name("an element name")
                self.expect_sym(":")
                a = self.expect_name("an object")
                self.expect_sym("-/->")
                b = self.expect_name("an object")
                self.expect_sym(";")
                if a[1] not in src.objects:
                    self.error(f"unknown object {a[1]!r}", a)
                if b[1] not in tgt.objects:
                    self.error(f"unknown object {b[1]!r}", b)
                if j[1] in home:
                    self.error(f"element {j[1]!r} defined twice", j)
                fibers.setdefault((a[1], b[1]), []).append(j[1])
                home[j[1]] = (a[1], b[1])
            elif kw[1] == "act":
                v = self.expect_name("an arrow")
                self.expect_sym(".")
                j = self.expect_name("an element")
                self.expect_sym(".")
                u = self.expect_name("an arrow")
                self.expect_sym("=")
                j2 = self.expect_name("an element")
                self.expect_sym(";")
                stated.append((v, j, u, j2))
            else:
                self.error(f"expected 'elt' or 'act', found {kw[1]!r}", kw)
        entries = {}
        for v, j, u, j2 in stated:
            for tok in (j, j2):
                if tok[1] not in home:
                    self.error(f"unknown element {tok[1]!r}", tok)
            if u[1] not in src.morphisms:
                self.error(f"unknown arrow {u[1]!r}", u)
            if v[1] not in tgt.morphisms:
                self.error(f"unknown arrow {v[1]!r}", v)
            a, b = home[j[1]]
            if src.tgt[u[1]] != a or tgt.src[v[1]] != b:
                self.error(f"action {v[1]}.{j[1]}.{u[1]} is ill-typed", j)
            if home[j2[1]] != (src.src[u[1]], tgt.tgt[v[1]]):
                self.error(f"result of {v[1]}.{j[1]}.{u[1]} lives in the "
                           "wrong fiber", j2)
            key = (u[1], j[1], v[1])
            if entries.get(key, j2[1]) != j2[1]:
                self.error(f"action {v[1]}.{j[1]}.{u[1]} stated twice with "
                           "different results", j2)
            entries[key] = j2[1]
        table = self._complete_action(src, tgt, fibers, home, entries, name)
        left, right = self._read_sides(src, tgt, home, table, name)
        prof = Profunctor(name[1], src, tgt,
                          {k: tuple(v) for k, v in fibers.items()}, left, right)
        problems = validate_profunctor(prof)
        if problems:
            self.error(f"profunctor {name[1]!r} is inconsistent: {problems[0]}",
                       name)
        ws.profunctors[name[1]] = prof

    def _complete_action(self, src, tgt, fibers, home, entries, name):
        """Close the stated actions under identities and composition, as a
        table keyed (u, j, v).  A sweep pairs each entry with the entries
        acting on its result, in table order."""
        table = dict(entries)
        for j, (a, b) in home.items():
            key = (src.identity(a), j, tgt.identity(b))
            if table.get(key, j) != j:
                self.error(f"profunctor {name[1]!r} states an identity "
                           f"action moving {j!r}", name)
            table[key] = j
        acting_on = {}
        for key in table:
            acting_on.setdefault(key[1], []).append(key)
        changed = True
        while changed:
            changed = False
            for (u1, j, v1), j2 in list(table.items()):
                for u2, _, v2 in list(acting_on[j2]):
                    j3 = table[(u2, j2, v2)]
                    key = (src.compose(u1, u2), j, tgt.compose(v2, v1))
                    if table.get(key) != j3:
                        if key in table:
                            self.error(
                                f"profunctor {name[1]!r} actions are "
                                f"inconsistent at {key}", name)
                        table[key] = j3
                        acting_on[j].append(key)
                        changed = True
        return table

    def _read_sides(self, src, tgt, home, table, name):
        """The left and right actions of a closed table, which must cover
        every composable triple (u, j, v); the first triple it misses, in
        element, u, v order, is reported."""
        left, right = {}, {}
        for j, (a, b) in home.items():
            for u in src.into(a):
                for v in tgt.out_of(b):
                    if (u, j, v) not in table:
                        self.error(
                            f"profunctor {name[1]!r} does not determine "
                            f"the action {v}.{j}.{u}", name)
            ida, idb = src.identity(a), tgt.identity(b)
            for u in src.into(a):
                left[(u, a, b, j)] = table[(u, j, idb)]
            for v in tgt.out_of(b):
                right[(a, b, j, v)] = table[(ida, j, v)]
        return left, right

    # -- cell ----------------------------------------------------------

    def parse_cell(self, ws):
        self.expect_keyword("cell")
        name = self.expect_name("a cell name")
        if name[1] in ws.cells:
            self.error(f"cell {name[1]!r} defined twice", name)
        self.expect_sym(":")
        top = self.lookup(ws.profunctors, self.expect_name("a profunctor"),
                          "profunctor")
        self.expect_sym("=>")
        bot = self.lookup(ws.profunctors, self.expect_name("a profunctor"),
                          "profunctor")
        self.expect_keyword("left")
        f = self.lookup(ws.functors, self.expect_name("a functor"), "functor")
        self.expect_keyword("right")
        g = self.lookup(ws.functors, self.expect_name("a functor"), "functor")
        self.expect_sym("{")
        raw = {}
        while True:
            tok = self.peek()
            if tok[1] == "}":
                self.next()
                break
            self.expect_keyword("map")
            j = self.expect_name("an element")
            self.expect_sym("=>")
            k = self.expect_name("an element")
            self.expect_sym(";")
            raw[j[1]] = (k[1], j)
        if f.source != top.source or g.source != top.target or \
                f.target != bot.source or g.target != bot.target:
            self.error(f"cell {name[1]!r} has mismatched boundaries", name)
        comp = {}
        for a, b, j in top.elements():
            if j not in raw:
                self.error(f"cell {name[1]!r} misses element {j!r}", name)
            k, tok = raw[j]
            if k not in bot.fiber(f.obj[a], g.obj[b]):
                self.error(f"image {k!r} is not in the expected fiber", tok)
            comp[(a, b, j)] = k
        cell = Cell(name[1], top, bot, f, g, comp)
        problems = validate_cell(cell)
        if problems:
            self.error(f"cell {name[1]!r} is not natural: {problems[0]}", name)
        ws.cells[name[1]] = cell


def parse(text):
    """Parse a workspace; raises DslError with a line and column on any
    malformed input."""
    return Parser(text).parse_workspace()


# ---------------------------------------------------------------------------
# serializer


def serialize(ws):
    """Canonical text for a workspace; parse(serialize(ws)) == ws."""
    out = []
    for name, cat in ws.categories.items():
        out.append(f"category {name} {{")
        out.append("  objects: " + ", ".join(cat.objects) + ";")
        for m in cat.morphisms:
            if not cat.is_identity(m):
                out.append(f"  arrow {m}: {cat.src[m]} -> {cat.tgt[m]};")
        for (g, f), h in sorted(cat.table.items()):
            if cat.is_identity(g) or cat.is_identity(f):
                continue
            out.append(f"  compose {g} . {f} = {h};")
        out.append("}")
    for name, fun in ws.functors.items():
        src, tgt = (_name_of(ws.categories, c, "category")
                    for c in (fun.source, fun.target))
        out.append(f"functor {name} : {src} -> {tgt} {{")
        for o in fun.source.objects:
            out.append(f"  obj {o} => {fun.obj[o]};")
        for m in fun.source.morphisms:
            if not fun.source.is_identity(m):
                out.append(f"  arr {m} => {fun.mor[m]};")
        out.append("}")
    for name, prof in ws.profunctors.items():
        src, tgt = (_name_of(ws.categories, c, "category")
                    for c in (prof.source, prof.target))
        out.append(f"profunctor {name} : {src} -/-> {tgt} {{")
        for a, b, j in prof.elements():
            out.append(f"  elt {j} : {a} -/-> {b};")
        for a, b, j in prof.elements():
            for u in prof.source.into(a):
                if prof.source.is_identity(u):
                    continue
                out.append(f"  act 1_{b} . {j} . {u} = "
                           f"{prof.act_left(u, a, b, j)};")
            for v in prof.target.out_of(b):
                if prof.target.is_identity(v):
                    continue
                out.append(f"  act {v} . {j} . 1_{a} = "
                           f"{prof.act_right(a, b, j, v)};")
        out.append("}")
    for name, cell in ws.cells.items():
        top, bot = (_name_of(ws.profunctors, p, "profunctor")
                    for p in (cell.hsrc, cell.htgt))
        left, right = (_name_of(ws.functors, f, "functor")
                       for f in (cell.vsrc, cell.vtgt))
        out.append(f"cell {name} : {top} => {bot} left {left} right {right} {{")
        for a, b, j in cell.hsrc.elements():
            out.append(f"  map {j} => {cell.comp[(a, b, j)]};")
        out.append("}")
    return "\n".join(out) + "\n"


def _name_of(table, item, what):
    """The name under which ``item``, a ``what``, is stored in ``table``,
    one of a workspace's tables."""
    for name, x in table.items():
        if x == item:
            return name
    raise ValueError(f"{what} not in workspace")
