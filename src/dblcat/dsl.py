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
blocks.  A composite, image or action may be stated again only with the
same result, and a cell maps only elements of its top profunctor.

The grammar is stated once in ``Parser``: ``block`` reads a block's
keyword and new name, ``statements`` its statements up to the closing
``}``, and ``read`` each sequence of symbols and names.  Where an input
holds several faults, the first reported is fixed: a block header's names
are looked up as each is read, an arrow's name and endpoints before its
``;``, obj, arr and elt lines after it, act lines and maps once the
block closes.

Tokens are read in two scans by compiled patterns: one match of
``_LEXABLE`` finds the first unexpected character, if any, and one
findall of ``_LEXEME`` reads the token texts.  The parser keeps only the
texts; a diagnostic finds its token's line and column by scanning the
text again up to that token (``_offsets``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice

from .fincat import Functor, make_category, validate_category
from .prof import Cell, Profunctor, validate_cell


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
_SYMBOL_SET = frozenset(SYMBOLS)
# the texts that are not names: the symbols and the end of input's ""
_NOT_NAMES = _SYMBOL_SET | {""}

# The lexical grammar.  Between tokens come spaces, tabs, carriage
# returns, newlines and comments from '#' to the end of the line.  A token
# is a name, a run of alphanumeric characters (str.isalnum, as \w tests),
# '_' and "'", or a symbol, tried in SYMBOLS order, which puts each symbol
# before its prefixes.  A comment ends only at a newline or the text's
# end, so no backtrack into one finds a token inside it ("x # y"), and a
# match reads the text as the grammar does.
_SKIP = r"[ \t\r\n]*(?:#[^\n]*(?![^\n])[ \t\r\n]*)*"
_TOKEN = r"[\w']+|" + "|".join(map(re.escape, SYMBOLS))
# one token and what precedes it
_LEXEME = re.compile(f"{_SKIP}({_TOKEN})")
# the longest run of lexemes, as group 1, and what follows it up to the
# first unexpected character, if any
_LEXABLE = re.compile(f"((?:{_SKIP}(?:{_TOKEN}))*){_SKIP}")


def _scan(text):
    """The token texts of ``text``, then "" for the end of input: one
    match finds the first unexpected character, if any, and one findall
    reads the texts up to the end of the last token."""
    lexable = _LEXABLE.match(text)
    end = lexable.end()
    if end < len(text):
        raise DslError(f"unexpected character {text[end]!r}",
                       *_line_col(text, end))
    texts = _LEXEME.findall(text, 0, lexable.end(1))
    texts.append("")
    return texts


def _offsets(text):
    """The offset of each token of ``text``, which scans, then that of the
    end of input: the start of the comment that ends the text, if one
    does, else the text's end.  Only a diagnostic needs these."""
    for lexeme in _LEXEME.finditer(text, 0, _LEXABLE.match(text).end(1)):
        yield lexeme.start(1)
    comment = text.find("#", text.rfind("\n") + 1)
    yield len(text) if comment < 0 else comment


def _line_col(text, offset):
    """The line and column, both from 1, of ``offset`` in ``text``."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


class Parser:
    """A recursive-descent parser over the token texts.  A token is read as
    a pair (its index, its text), and its line and column are found from
    the index only for a diagnostic.  Every block is read by ``block``,
    ``statements`` and ``read``, so each diagnostic of the grammar is
    stated once."""

    def __init__(self, text):
        self.text = text
        self.texts = _scan(text)
        self.pos = 0

    def peek(self):
        return self.pos, self.texts[self.pos]

    def next(self):
        k = self.pos
        text = self.texts[k]
        if text:
            self.pos = k + 1
        return k, text

    def error(self, message, tok=None):
        k = (tok or self.peek())[0]
        raise DslError(message, *_line_col(
            self.text, next(islice(_offsets(self.text), k, None))))

    def read(self, *parts):
        """Read one token per part: a part in SYMBOLS is expected as
        written, any other part describes the name expected there.  Returns
        the name tokens read."""
        names = []
        for k, part in enumerate(parts, self.pos):
            tok = k, self.texts[k]
            if part in _SYMBOL_SET:
                if tok[1] != part:
                    self.error(f"expected {part!r}, found {tok[1]!r}", tok)
            elif tok[1] in _NOT_NAMES:
                self.error(f"expected {part}, found "
                           f"{tok[1] or 'end of input'!r}", tok)
            else:
                names.append(tok)
        # a token read is a symbol or a name, never the end of input
        self.pos += len(parts)
        return names

    def keyword(self, *words):
        """Read one of ``words``: a single keyword, or the keywords that
        may start a statement of a block, where a '}' may come instead."""
        tok = self.next()
        if tok[1] not in words:
            if len(words) == 1:
                expected = wanted = f"keyword {words[0]!r}"
            else:
                wanted = " or ".join(map(repr, words))
                expected = ", ".join(map(repr, words)) + " or '}'"
            if tok[1] in _NOT_NAMES:
                wanted = expected
            self.error(f"expected {wanted}, found "
                       f"{tok[1] or 'end of input'!r}", tok)
        return tok[1]

    def statements(self, *words):
        """Yield the keyword of each statement of a block, one of
        ``words``, up to and past the block's closing '}'."""
        while self.texts[self.pos] != "}":
            yield self.keyword(*words)
        self.next()

    def block(self, table, what):
        """Read a block's keyword and its name, which must be new to
        ``table``, the workspace's ``what``s."""
        self.next()
        name, = self.read(f"a {what} name")
        if name[1] in table:
            self.error(f"{what} {name[1]!r} defined twice", name)
        return name

    def known(self, tok, names, what):
        """``tok``'s name, which must be among ``names``."""
        if tok[1] not in names:
            self.error(f"unknown {what} {tok[1]!r}", tok)
        return tok[1]

    def item(self, table, what):
        """Read the name of a ``what`` of ``table`` and return the item."""
        tok, = self.read(f"a {what}")
        return table[self.known(tok, table, what)]

    def boundary(self, ws, arrow):
        """Read ': C arrow D {' and return the categories C and D."""
        self.read(":")
        src = self.item(ws.categories, "category")
        self.read(arrow)
        tgt = self.item(ws.categories, "category")
        self.read("{")
        return src, tgt

    def reject_restatements(self, stated):
        """Reject the first of ``stated``, (what, result token) pairs in
        text order, that states ``what`` again with another result.  Each
        block runs this after its other checks, whose diagnostics thus
        come first; an identical restatement is accepted."""
        results = {}
        for what, tok in stated:
            if results.setdefault(what, tok[1]) != tok[1]:
                self.error(f"{what} stated twice with different results", tok)

    # -- workspace -----------------------------------------------------

    def parse_workspace(self):
        ws = Workspace()
        blocks = {"category": self.parse_category,
                  "functor": self.parse_functor,
                  "profunctor": self.parse_profunctor,
                  "cell": self.parse_cell}
        while self.peek()[1]:
            tok = self.peek()
            if tok[1] in _SYMBOL_SET:
                self.error(f"expected a block keyword, found {tok[1]!r}")
            if tok[1] not in blocks:
                self.error(f"unknown block keyword {tok[1]!r}")
            blocks[tok[1]](ws)
        return ws

    # -- category ------------------------------------------------------

    def parse_category(self, ws):
        name = self.block(ws.categories, "category")
        self.read("{")
        self.keyword("objects")
        self.read(":")
        objects = [self.read("an object name")[0][1]]
        while (tok := self.next())[1] != ";":
            if tok[1] != ",":
                self.error("expected ',' or ';' in object list", tok)
            objects.append(self.read("an object name")[0][1])
        if len(set(objects)) != len(objects):
            self.error("duplicate object name", name)
        arrows, pending = {}, []
        for kw in self.statements("arrow", "compose"):
            if kw == "arrow":
                f, = self.read("an arrow name")
                if f[1] in arrows or f[1] in (f"1_{o}" for o in objects):
                    self.error(f"arrow {f[1]!r} defined twice", f)
                a, b = self.read(":", "an object", "->", "an object")
                arrows[f[1]] = (self.known(a, objects, "object"),
                                self.known(b, objects, "object"))
                self.read(";")
            else:
                pending.append(self.read("an arrow", ".", "an arrow", "=",
                                         "an arrow", ";"))
        names = set(arrows) | {f"1_{o}" for o in objects}
        composites = {(self.known(g, names, "arrow"),
                       self.known(f, names, "arrow")):
                      self.known(h, names, "arrow") for g, f, h in pending}
        cat = make_category(name[1], objects, arrows, composites)
        problems = validate_category(cat)
        if problems:
            self.error(f"category {name[1]!r} is not a category: {problems[0]}",
                       name)
        self.reject_restatements((f"composite {g[1]}.{f[1]}", h)
                                 for g, f, h in pending)
        ws.categories[name[1]] = cat

    # -- functor -------------------------------------------------------

    def parse_functor(self, ws):
        name = self.block(ws.functors, "functor")
        src, tgt = self.boundary(ws, "->")
        obj_map, mor_map = {}, {}
        stated = []
        kinds = {"obj": ("object", obj_map, src.objects, tgt.objects),
                 "arr": ("arrow", mor_map, src.morphisms, tgt.morphisms)}
        for kw in self.statements(*kinds):
            what, image, ins, outs = kinds[kw]
            a, b = self.read(f"an {what}", "=>", f"an {what}", ";")
            x = self.known(a, ins, what)
            image[x] = self.known(b, outs, what)
            stated.append((f"image of {what} {x}", b))
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
        self.reject_restatements(stated)
        ws.functors[name[1]] = fun

    # -- profunctor ----------------------------------------------------

    def parse_profunctor(self, ws):
        name = self.block(ws.profunctors, "profunctor")
        src, tgt = self.boundary(ws, "-/->")
        fibers = {}
        home = {}
        stated = []
        for kw in self.statements("elt", "act"):
            if kw == "elt":
                j, a, b = self.read("an element name", ":", "an object",
                                    "-/->", "an object", ";")
                fiber = (self.known(a, src.objects, "object"),
                         self.known(b, tgt.objects, "object"))
                if j[1] in home:
                    self.error(f"element {j[1]!r} defined twice", j)
                fibers.setdefault(fiber, []).append(j[1])
                home[j[1]] = fiber
            else:
                stated.append(self.read("an arrow", ".", "an element", ".",
                                        "an arrow", "=", "an element", ";"))
        entries = {}
        for v, j, u, j2 in stated:
            for tok in (j, j2):
                self.known(tok, home, "element")
            self.known(u, src.morphisms, "arrow")
            self.known(v, tgt.morphisms, "arrow")
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
        # the closed table has every property helpers.validate_profunctor
        # checks, which test_dsl asserts for every profunctor it parses
        ws.profunctors[name[1]] = Profunctor(
            name[1], src, tgt, {k: tuple(v) for k, v in fibers.items()},
            left, right)

    def _complete_action(self, src, tgt, fibers, home, entries, name):
        """Close the stated actions under identities and composition, as a
        table keyed (u, j, v).  A sweep pairs each entry with the entries
        acting on its result, in table order, and sweeps again while it adds
        entries.  It skips the pairs an earlier sweep checked: a table value
        never changes (a change raises), so checking a pair again could
        neither add an entry nor raise.  Each pair is thus checked once, and
        the first diagnostic is that of sweeps over all pairs
        (``helpers.complete_action_oracle``)."""
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
        # the entries are type-checked, so every pair below is composable
        # and the composition tables are read unchecked
        stable, ttable = src.table, tgt.table
        # checked[i]: how many entries acting on the result of the i-th
        # entry have been paired with it
        checked = []
        while len(checked) < len(table):
            checked += [0] * (len(table) - len(checked))
            for i, ((u1, j, v1), j2) in enumerate(list(table.items())):
                on = acting_on[j2]
                start, checked[i] = checked[i], len(on)
                for u2, _, v2 in on[start:]:
                    j3 = table[(u2, j2, v2)]
                    key = (stable[(u1, u2)], j, ttable[(v2, v1)])
                    if table.get(key) != j3:
                        if key in table:
                            self.error(
                                f"profunctor {name[1]!r} actions are "
                                f"inconsistent at {key}", name)
                        table[key] = j3
                        acting_on[j].append(key)
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
        name = self.block(ws.cells, "cell")
        self.read(":")
        top = self.item(ws.profunctors, "profunctor")
        self.read("=>")
        bot = self.item(ws.profunctors, "profunctor")
        self.keyword("left")
        f = self.item(ws.functors, "functor")
        self.keyword("right")
        g = self.item(ws.functors, "functor")
        self.read("{")
        maps = [self.read("an element", "=>", "an element", ";")
                for _ in self.statements("map")]
        if f.source != top.source or g.source != top.target or \
                f.target != bot.source or g.target != bot.target:
            self.error(f"cell {name[1]!r} has mismatched boundaries", name)
        # the checks before reject_restatements read the last map of each j
        raw = {j[1]: (k[1], j) for j, k in maps}
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
        elements = {j for _, _, j in top.elements()}
        for j, _ in maps:
            self.known(j, elements, "element")
        self.reject_restatements((f"image of element {j[1]}", k)
                                 for j, k in maps)
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
