"""The list-morphism checks against their loop versions: same verdicts, same exceptions."""

from hypothesis import example, given, settings, strategies as st

import check_oracle
from smckit.perms import Perm
from smckit.slist import SList, SListHom, unique_hom_linear

LABELS = st.one_of(st.sampled_from("abc"), st.integers(0, 3))
LISTS = st.lists(st.sampled_from("abcd"), max_size=6).map(lambda xs: SList(tuple(xs)))
PERMS = st.integers(0, 6).flatmap(lambda n: st.permutations(range(n))).map(lambda img: Perm(tuple(img)))


def _outcome(call):
    """What a call did: its value, or the type and text of what it raised."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001  the comparison is of any exception
        return type(exc), str(exc)


@st.composite
def hom_data(draw):
    """src, dst and phi: mostly a valid morphism with some entries disturbed."""
    phi = draw(PERMS)
    src = draw(st.lists(LABELS, min_size=phi.n, max_size=phi.n).map(tuple))
    dst = [src[j] for j in phi.img]
    if phi.n:
        for i in draw(st.lists(st.integers(0, phi.n - 1), max_size=2)):
            dst[i] = draw(LABELS)
    longer = draw(st.sampled_from(("", "", "", "", "src", "dst", "both")))
    if longer in ("dst", "both"):
        dst.append(draw(LABELS))
    if longer in ("src", "both"):
        src += (draw(LABELS),)
    return SList(src), SList(tuple(dst)), phi


@settings(max_examples=500, deadline=None)
@given(hom_data())
def test_slist_hom_checks_like_the_loop(data):
    src, dst, phi = data
    expected = _outcome(lambda: check_oracle.check_slist_hom(src, dst, phi))
    found = _outcome(lambda: SListHom(src, dst, phi))
    assert found[0] == expected[0]
    if expected[0] != "ok":
        assert found == expected


@settings(max_examples=300, deadline=None)
@given(PERMS, st.data())
def test_perm_product_matches_the_loop(p, data):
    same_size = st.permutations(range(p.n)).map(lambda img: Perm(tuple(img)))
    q = data.draw(st.one_of(same_size, PERMS))
    assert _outcome(lambda: p * q) == _outcome(lambda: check_oracle.perm_mul(p, q))


@settings(max_examples=500, deadline=None)
@given(LISTS, LISTS, st.booleans())
@example(SList((1, "a")), SList(("a", 1)), False)  # labels that do not sort together
def test_unique_hom_linear_matches_the_multiset_check(src, dst, shuffle):
    if shuffle:
        dst = SList(tuple(reversed(src.labels)))
    found = _outcome(lambda: unique_hom_linear(src, dst))
    assert found == _outcome(lambda: check_oracle.unique_hom_linear(src, dst))
