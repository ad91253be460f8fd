"""Small stock categories and functors: the CLI's probe sets and the
categories they and the test corpora are built from."""

from __future__ import annotations

# all_functors is no longer called here, but bench/test_bench.py checks
# that the tracer rebinds zoo's copy of it
from .fincat import Functor, all_functors, make_category  # noqa: F401


def terminal_category():
    return make_category("One", ("*",), {})


def walking_arrow():
    """Two objects 0, 1 and a single arrow between them."""
    return make_category("Two", ("0", "1"), {"a": ("0", "1")})


def parallel_pair():
    """Two objects with two parallel arrows s, t : 0 -> 1."""
    return make_category("Pair", ("0", "1"), {"s": ("0", "1"), "t": ("0", "1")})


def composable_pair():
    """0 -> 1 -> 2 with the composite stored."""
    return make_category(
        "Three", ("0", "1", "2"),
        {"a": ("0", "1"), "b": ("1", "2"), "ba": ("0", "2")},
        {("b", "a"): "ba"})


def discrete(n):
    return make_category(f"Disc{n}", tuple(str(i) for i in range(n)), {})


def iso_pair():
    """Two objects joined by a pair of mutually inverse arrows."""
    return make_category(
        "Iso", ("0", "1"), {"u": ("0", "1"), "v": ("1", "0")},
        {("v", "u"): "1_0", ("u", "v"): "1_1"})


def pick(cat, obj):
    """The functor One -> cat selecting the given object."""
    return Functor(f"pick_{obj}", terminal_category(), cat,
                   {"*": obj}, {"1_*": cat.identity(obj)})


def bang(cat):
    """The unique functor cat -> One."""
    return Functor(f"!_{cat.name}", cat, terminal_category(),
                   {o: "*" for o in cat.objects},
                   {m: "1_*" for m in cat.morphisms})


def probe_categories():
    """Default probe set of ``kan.is_right_exact``."""
    return [terminal_category(), walking_arrow(), discrete(2), parallel_pair()]


def tabulation_probes():
    """Default probe set of both tabulation verifiers."""
    return [terminal_category(), walking_arrow(), parallel_pair()]
