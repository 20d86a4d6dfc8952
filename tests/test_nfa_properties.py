"""Property tests for the VFILTER NFA against path-pattern relations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AcceptEntry, PathNFA
from repro.matching import contains, has_homomorphism
from repro.xpath import Axis, PathPattern, Step, WILDCARD, normalize, str_tokens
from repro.xpath.pattern import TreePattern

LABELS = list("abc")


def random_path(rng: random.Random, max_steps: int = 4) -> PathPattern:
    steps = tuple(
        Step(
            rng.choice([Axis.CHILD, Axis.DESCENDANT]),
            rng.choice(LABELS + [WILDCARD]),
        )
        for _ in range(rng.randint(1, max_steps))
    )
    return PathPattern(steps)


def nfa_for(path: PathPattern) -> PathNFA:
    nfa = PathNFA()
    nfa.insert(normalize(path), AcceptEntry("v", 0, path.length))
    return nfa


def accepts(view_path: PathPattern, probe: PathPattern) -> bool:
    if all(step.is_wildcard for step in view_path.steps):
        # the all-wildcard side registry's rule
        return probe.length >= view_path.length
    return bool(nfa_for(view_path).read(str_tokens(probe)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_nfa_never_misses_homomorphism(seed):
    """hom(view → probe) ⟹ NFA acceptance (the filter's soundness)."""
    rng = random.Random(seed)
    view_path = random_path(rng)
    probe = random_path(rng)
    if has_homomorphism(
        view_path.to_tree_pattern(), probe.to_tree_pattern()
    ):
        assert accepts(view_path, probe), (
            view_path.to_xpath(), probe.to_xpath()
        )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_nfa_never_misses_containment(seed):
    """Stronger: probe ⊑ view (exact containment) ⟹ NFA acceptance.

    The gap-unit construction is complete even for the containment
    cases homomorphism misses (wildcard degeneracies)."""
    rng = random.Random(seed)
    view_path = random_path(rng, max_steps=3)
    probe = random_path(rng, max_steps=3)
    if contains(probe.to_tree_pattern(), view_path.to_tree_pattern()):
        assert accepts(view_path, probe), (
            view_path.to_xpath(), probe.to_xpath()
        )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_nfa_rejections_are_justified(seed):
    """NFA rejection ⟹ no homomorphism (rejections never lose a view
    the selection stage could use)."""
    rng = random.Random(seed)
    view_path = random_path(rng)
    probe = random_path(rng)
    if not accepts(view_path, probe):
        assert not has_homomorphism(
            view_path.to_tree_pattern(), probe.to_tree_pattern()
        )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_prefix_extension_acceptance(seed):
    """A view path accepts every extension of an accepted probe
    (accepting-state self-loop semantics)."""
    rng = random.Random(seed)
    view_path = random_path(rng)
    probe = random_path(rng)
    if not accepts(view_path, probe):
        return
    extended = PathPattern(
        probe.steps
        + (Step(rng.choice([Axis.CHILD, Axis.DESCENDANT]), rng.choice(LABELS)),)
    )
    assert accepts(view_path, extended)


def test_equivalent_spellings_accepted_both_ways():
    """Every spelling of an equivalent wildcard run is accepted by every
    other spelling's automaton."""
    spellings = ["/s/*//t", "/s//*/t", "/s//*//t"]
    paths = {
        text: PathPattern(
            tuple(
                node.step()
                for node in _parse(text).ret.root_path()
            )
        )
        for text in spellings
    }
    for view_text, view_path in paths.items():
        for probe_text, probe in paths.items():
            assert accepts(view_path, probe), (view_text, probe_text)


def _parse(text: str) -> TreePattern:
    from repro.xpath import parse_xpath

    return parse_xpath(text)


@pytest.mark.parametrize(
    "view_text,probe_text,expected",
    [
        # gap-unit corner cases found during development
        ("//*//c", "//e//c", True),
        ("//a/*", "/a/*//d//b", True),
        ("//c/*", "//c//c/*[.//d]", True),
        ("/a//*/c", "/a/c", False),
        ("/*", "/*[.//*]", True),
    ],
)
def test_regression_cases(view_text, probe_text, expected):
    """Pinned regressions: every false negative found while building the
    gap-unit construction."""
    from repro.core import VFilter, View

    vfilter = VFilter()
    vfilter.add_view(View.from_xpath("V", view_text))
    result = vfilter.filter(_parse(probe_text))
    assert (result.candidates == ("V",)) is expected
