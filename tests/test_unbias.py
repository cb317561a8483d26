"""The fiber/value system, the span pseudofunctor, and the evaluator."""

import io
import json
from random import Random

import pbc_oracle
import pytest
from hypothesis import example, given, settings, strategies as st

from smckit import cli, laws, unbias
from smckit.errors import NotInvertible, NotPullbackSquare
from smckit.kleisli import KHom, k_compose, k_id, k_id_cell, k_vcomp, theta_apply
from smckit.models import FinBijModel, FreeTermModel, SListModel
from smckit.perms import Perm
from smckit.slist import SList, SListHom, is_linear, underlying_multiset, unique_hom_linear
from smckit.spans import (
    FinFun,
    FinSet,
    PullbackSquare,
    Span,
    SpanCell,
    fcompose,
    identity_fun,
    identity_span,
    span_push,
    span_pull,
    transpose_span,
)
from smckit.laws import (
    all_functions,
    pbc_suite,
    psi_family_map,
    random_chain,
    random_khom,
    random_pith_cell,
    random_span,
    unbias_coherence_failures,
)
from smckit.terms import Braid, Gen, Id, SmcModel, lookup, normalize, psi_hom, psi_obj, psi_split
from smckit.unbias import (
    base_change_unique,
    f_comp_cell,
    f_id_cell,
    lambda_u,
    lambda_v,
    pseudofunctor_on_cell,
    pseudofunctor_on_span,
    u_comp,
    u_id,
    unbias_cell,
    unbias_comp_iso,
    unbias_eval,
    unbias_unit_iso,
    v_comp,
    v_id,
)


def fiber_oracle(f, k):
    return tuple(a for a in range(f.src.size) if f(a) == k)


def test_fiber_and_value_families_examples():
    ident = identity_fun(FinSet(3))
    assert lambda_u(ident).lists == lambda_v(ident).lists == k_id(FinSet(3)).lists
    f = FinFun(FinSet(3), FinSet(2), (0, 0, 1))
    u = lambda_u(f)
    assert u.lists == (SList((0, 1)), SList((2,)))
    assert all(len(l) == 1 for l in lambda_v(f).lists)
    assert all(is_linear(l) for l in u.lists)


def test_system_cells_have_the_documented_orientation():
    # u_comp(f, g): u(f then g) -> "u(f) then u(g)"; v_comp(f, g): v(f then g)
    # -> "v(g) then v(f)"; the identity cells end at the strict unit
    for a in range(4):
        x = FinSet(a)
        assert u_id(x).src == lambda_u(identity_fun(x)) and u_id(x).dst == k_id(x)
        assert v_id(x).src == lambda_v(identity_fun(x)) and v_id(x).dst == k_id(x)
        for b in range(4):
            for f in all_functions(a, b):
                for c in range(4):
                    for g in all_functions(b, c):
                        fg = fcompose(f, g)
                        cell = u_comp(f, g)
                        assert cell.src == lambda_u(fg)
                        assert cell.dst == k_compose(lambda_u(g), lambda_u(f))
                        cell = v_comp(f, g)
                        assert cell.src == lambda_v(fg)
                        assert cell.dst == k_compose(lambda_v(f), lambda_v(g))


def test_base_change_unique_examples():
    ident = identity_fun(FinSet(2))
    sq = PullbackSquare(ident, ident, ident, ident)
    cell = base_change_unique(sq)
    assert cell == k_id_cell(cell.src)
    f = FinFun(FinSet(2), FinSet(1), (0, 0))
    sq = PullbackSquare(identity_fun(FinSet(2)), identity_fun(FinSet(2)), f, f)
    with pytest.raises(NotPullbackSquare):
        base_change_unique(sq)
    # the multiset of both sides is the right-leg fiber over the bottom image
    rng = Random(40)
    for _ in range(100):
        sizes = [rng.randint(0, 3) for _ in range(3)]
        z, y, w = sizes
        b = FinFun(FinSet(z), FinSet(w), tuple(rng.randrange(w) for _ in range(z))) if w or not z else None
        r = FinFun(FinSet(y), FinSet(w), tuple(rng.randrange(w) for _ in range(y))) if w or not y else None
        if b is None or r is None:
            continue
        from smckit.spans import square_from_cospan

        sq = square_from_cospan(b, r)
        cell = base_change_unique(sq)
        for k in range(cell.src.src.size):
            expected = underlying_multiset(SList(fiber_oracle(sq.right, sq.bottom(k))))
            assert underlying_multiset(cell.src.lists[k]) == expected
            assert underlying_multiset(cell.dst.lists[k]) == expected


def test_pseudofunctor_on_span_examples():
    three = FinSet(3)
    assert pseudofunctor_on_span(identity_span(three)) == k_id(three)
    a, j, k = FinSet(3), FinSet(2), FinSet(2)
    s = Span(FinFun(a, j, (0, 1, 0)), FinFun(a, k, (0, 0, 1)))
    fam = pseudofunctor_on_span(s)
    assert fam.lists == (SList((0, 1)), SList((0,)))
    empty = Span(FinFun(FinSet(0), j, ()), FinFun(FinSet(0), k, ()))
    assert pseudofunctor_on_span(empty).lists == (SList(()), SList(()))


def test_fiber_multiset_oracle_random():
    rng = Random(41)
    for _ in range(300):
        s = random_span(rng, 4)
        fam = pseudofunctor_on_span(s)
        for k in range(s.cod.size):
            expected = underlying_multiset(
                SList(tuple(s.left(a) for a in fiber_oracle(s.right, k)))
            )
            assert underlying_multiset(fam.lists[k]) == expected


def test_transposition_compatibility():
    for a in range(4):
        for b in range(4):
            for f in all_functions(a, b):
                assert pseudofunctor_on_span(transpose_span(span_push(f))) == lambda_v(f)
                assert pseudofunctor_on_span(span_push(f)) == lambda_u(f)
                assert pseudofunctor_on_span(span_pull(f)) == lambda_v(f)


def test_pseudofunctor_on_cell_examples():
    pt, two = FinSet(1), FinSet(2)
    s = Span(FinFun(two, pt, (0, 0)), FinFun(two, pt, (0, 0)))
    ident = pseudofunctor_on_cell(SpanCell(s, s, identity_fun(two)))
    assert ident == k_id_cell(pseudofunctor_on_span(s))
    swap = SpanCell(s, s, FinFun(two, two, (1, 0)))
    cell = pseudofunctor_on_cell(swap)
    assert [h.phi.img for h in cell.homs] == [(1, 0)]
    assert k_vcomp(cell, pseudofunctor_on_cell(SpanCell(s, s, FinFun(two, two, (1, 0))))) == k_id_cell(cell.src)
    from smckit.spans import adjunction_cells

    diag = adjunction_cells(FinFun(two, pt, (0, 0))).unit
    with pytest.raises(NotInvertible):
        pseudofunctor_on_cell(diag)


def test_on_cell_matches_linearity_when_available():
    # whenever both boundaries are componentwise linear the image cell is
    # forced; the apex-key construction must agree with it
    rng = Random(42)
    found = 0
    while found < 100:
        s = random_span(rng, 3)
        c = random_pith_cell(rng, s)
        fam1 = pseudofunctor_on_span(s)
        fam2 = pseudofunctor_on_span(c.dst)
        if not all(is_linear(l) for l in fam1.lists + fam2.lists):
            continue
        found += 1
        cell = pseudofunctor_on_cell(c)
        forced = tuple(
            unique_hom_linear(fam1.lists[k], fam2.lists[k]) for k in range(fam1.src.size)
        )
        assert cell.homs == forced


def fiber_cell_oracle(c: SpanCell, k: int):
    """Independent reading of the cell image: transport fiber positions
    through the apex bijection, labels coming along for free."""
    src_fiber = fiber_oracle(c.src.right, k)
    dst_fiber = fiber_oracle(c.dst.right, k)
    inv = c.map.inverse()
    return tuple(src_fiber.index(inv(a2)) for a2 in dst_fiber)


def test_on_cell_matches_fiber_oracle():
    # holds with repeated labels too, where linearity gives no shortcut
    rng = Random(47)
    for _ in range(300):
        s = random_span(rng, 3)
        c = random_pith_cell(rng, s)
        cell = pseudofunctor_on_cell(c)
        for k in range(s.cod.size):
            assert cell.homs[k].phi.img == fiber_cell_oracle(c, k)


def test_eta_cell_shape():
    two = FinSet(2)
    swap = FinFun(two, two, (1, 0))
    eta = pbc_oracle.eta_cell(swap)
    assert eta.dst == k_id(two)
    assert eta.src == k_compose(lambda_u(swap), lambda_v(swap))
    with pytest.raises(NotInvertible):
        pbc_oracle.eta_cell(FinFun(two, FinSet(1), (0, 0)))


def test_f_comp_and_f_id_boundaries():
    rng = Random(43)
    for _ in range(100):
        s, t = random_chain(rng, 3, 2)
        from smckit.spans import compose_span

        cell = f_comp_cell(s, t)
        assert cell.src == pseudofunctor_on_span(compose_span(s, t))
        assert cell.dst == k_compose(pseudofunctor_on_span(t), pseudofunctor_on_span(s))
    for n in range(4):
        cell = f_id_cell(FinSet(n))
        assert cell.dst == k_id(FinSet(n))


def span_between(dom: int, cod: int):
    """Spans dom <- apex -> cod with up to six apex elements; empty when either end is."""
    if dom and cod:
        legs = st.lists(st.tuples(st.integers(0, dom - 1), st.integers(0, cod - 1)), max_size=6)
    else:
        legs = st.just([])
    return legs.map(lambda pairs: Span(
        FinFun(FinSet(len(pairs)), FinSet(dom), tuple(a for a, _ in pairs)),
        FinFun(FinSet(len(pairs)), FinSet(cod), tuple(b for _, b in pairs)),
    ))


@st.composite
def chain_and_pith_cell(draw):
    """Composable spans s, t over sets of 0 to 3 elements, and a pith cell into s."""
    j, k, l = (draw(st.integers(0, 3)) for _ in range(3))
    s, t = draw(span_between(j, k)), draw(span_between(k, l))
    p = FinFun(s.apex, s.apex, tuple(draw(st.permutations(range(s.apex.size)))))
    return s, t, SpanCell(Span(fcompose(p, s.left), fcompose(p, s.right)), s, p)


# one label everywhere, so a wrong phi passes every label check
CONSTANT = Span(FinFun(FinSet(2), FinSet(1), (0, 0)), FinFun(FinSet(2), FinSet(1), (0, 0)))


@example((CONSTANT, CONSTANT, SpanCell(CONSTANT, CONSTANT, FinFun(FinSet(2), FinSet(2), (1, 0)))))
@settings(max_examples=500, deadline=None)
@given(chain_and_pith_cell())
def test_apex_key_cells_match_the_pasted_cells(case):
    s, t, c = case
    assert f_comp_cell(s, t) == pbc_oracle.f_comp_cell(s, t)
    assert pseudofunctor_on_cell(c) == pbc_oracle.pseudofunctor_on_cell(c)
    for x in (s.dom, s.cod, t.cod, s.apex):
        assert f_id_cell(x) == pbc_oracle.f_id_cell(x)


def test_pbc_laws_small():
    # base change over sets of size <= 1 (pasting exhaustive at size 2) and the pseudofunctor laws
    report = pbc_suite(max_size=1, seed=0)
    assert report.ok, report
    assert report.cases == 1312


def test_pseudofunctor_laws_small():
    # the pseudofunctor half of pbc_suite alone, on chains over sets of size <= 2
    check = laws._Check("pseudofunctor")
    laws._check_pseudofunctor(check, max_size=2, seed=0)
    report = check.report()
    assert report.ok, report
    assert report.cases == 600


def test_unbias_eval_examples():
    m = FreeTermModel()
    three = FinSet(3)
    r = unbias_eval(identity_span(three), m, {j: Gen(f"x{j}") for j in range(3)})
    assert [str(o) for o in r.objects] == ["(x0*I)", "(x1*I)", "(x2*I)"]
    pt, two = FinSet(1), FinSet(2)
    s = Span(FinFun(two, pt, (0, 0)), FinFun(two, pt, (0, 0)))
    r = unbias_eval(s, m, {0: Gen("A")})
    assert str(r.objects[0]) == "(A*(A*I))"


def test_unbias_eval_in_slist_model():
    m = SListModel()
    a, j, k = FinSet(3), FinSet(2), FinSet(2)
    s = Span(FinFun(a, j, (0, 1, 0)), FinFun(a, k, (0, 0, 1)))
    r = unbias_eval(s, m, {0: SList(("p",)), 1: SList(("q", "r"))})
    assert r.objects == (SList(("p", "q", "r")), SList(("p",)))


def test_unbias_comp_and_unit_cells_normalize():
    m = FreeTermModel()
    rng = Random(44)
    for _ in range(20):
        s, t = random_chain(rng, 2, 2)
        x = {j: Gen(f"x{j}") for j in range(s.dom.size)}
        cells = unbias_comp_iso(s, t, m, x)
        for cell in cells:
            h = normalize(cell)
            assert underlying_multiset(h.src) == underlying_multiset(h.dst)
    units = unbias_unit_iso(FinSet(2), m, {0: Gen("p"), 1: Gen("q")})
    assert [str(normalize(u).src) for u in units] == ["[p]", "[q]"]


def test_end_to_end_coherence_sample():
    m = FreeTermModel()
    rng = Random(45)
    triples = [random_chain(rng, 2, 3) for _ in range(8)]
    naturality_rng = Random(46)
    for triple in triples:
        x = {j: Gen(f"x{j}") for j in range(triple[0].dom.size)}
        assert unbias_coherence_failures(m, triple, x, naturality_rng) == []


def test_unbias_cell_progress():
    m = FreeTermModel()
    pt, two = FinSet(1), FinSet(2)
    s = Span(FinFun(two, pt, (0, 0)), FinFun(two, pt, (0, 0)))
    swap = SpanCell(s, s, FinFun(two, two, (1, 0)))
    cells = unbias_cell(swap, m, {0: Gen("A")})
    h = normalize(cells[0])
    assert h.src == SList(("A", "A")) and h.phi.img == (1, 0)


def psi_theta_iso_recursive(g, l, assignment, m):
    # the definition by recursion on l, kept as the oracle
    if len(l) == 0:
        return m.identity(m.unit())
    head, tail = l.labels[0], SList(l.labels[1:])
    block = g.lists[head]
    heads = [lookup(assignment, label) for label in block.labels]
    unpack = psi_split(m, heads, psi_obj(m, assignment, theta_apply(g, tail).labels))[0]
    inner = psi_theta_iso_recursive(g, tail, assignment, m)
    return m.compose(unpack, m.tensor_mor(m.identity(psi_obj(m, assignment, block.labels)), inner))


def theta_blocks(g, l, assignment):
    """The values of the blocks g(label), one block per label of l: what ``regroup`` takes for Theta_g(l)."""
    return [[lookup(assignment, label) for label in g.lists[head].labels] for head in l.labels]


def test_psi_theta_iso_matches_the_recursion():
    # the regroup of the blocks g(label) is the iso from the fold of Theta_g(l) to the iterated fold
    rng = Random(47)
    for _ in range(100):
        i, j = rng.randint(1, 4), rng.randint(0, 4)
        g = random_khom(rng, i, j, 3)
        l = SList(tuple(rng.randrange(i) for _ in range(rng.randint(0, 5))))
        terms = {k: Gen(f"x{k}") for k in range(j)}
        lists = {k: SList((f"x{k}", "y")) for k in range(j)}
        for m, assignment in ((FreeTermModel(), terms), (SListModel(), lists)):
            assert m.regroup(theta_blocks(g, l, assignment)) == psi_theta_iso_recursive(g, l, assignment, m)


@pytest.mark.parametrize(
    "m, value",
    [(SListModel(), lambda k: SList((f"x{k}",) * (k % 3))), (FinBijModel(), lambda k: k % 3)],
    ids=["slist", "finbij"],
)
def test_strict_models_evaluate_no_formula(monkeypatch, m, value):
    # values of sizes 0, 1 and 2, and a family with empty blocks
    assignment = {k: value(k) for k in range(4)}
    f = SListHom(SList((0, 1, 2, 3, 1)), SList((1, 3, 0, 1, 2)), Perm((4, 3, 0, 1, 2)))
    g = KHom(FinSet(3), FinSet(4), (SList((1, 2)), SList(()), SList((3, 0, 1))))
    l = SList((2, 0, 1, 0))
    want_hom = SmcModel.permute(m, [assignment[label] for label in f.src.labels], f.phi)
    want_iso = psi_theta_iso_recursive(g, l, assignment, m)

    def forbidden(*args):
        raise AssertionError("a strict model fell back to the formula")

    for name in ("compose", "tensor_mor", "braid", "assoc", "assoc_inv"):
        monkeypatch.setattr(type(m), name, forbidden)
    assert psi_hom(m, assignment, f) == want_hom
    assert m.regroup(theta_blocks(g, l, assignment)) == want_iso


@settings(max_examples=300, deadline=None)
@given(chain_and_pith_cell())
def test_unbias_comp_iso_is_the_moved_cell_after_the_recursive_unpack(case):
    # exact terms and list morphisms, against the pasted cell and the recursive Theta iso
    s, t, _ = case
    fam_s, fam_t = pseudofunctor_on_span(s), pseudofunctor_on_span(t)
    homs = pbc_oracle.f_comp_cell(s, t).homs
    for m, x in (
        (FreeTermModel(), {j: Gen(f"x{j}") for j in range(s.dom.size)}),
        (SListModel(), {j: SList((f"x{j}",) * (j % 3)) for j in range(s.dom.size)}),
    ):
        want = tuple(
            m.compose(psi_hom(m, x, homs[l]), psi_theta_iso_recursive(fam_s, fam_t.lists[l], x, m))
            for l in range(t.cod.size)
        )
        assert unbias_comp_iso(s, t, m, x) == want


@pytest.mark.parametrize("model", ["term", "slist"])
def test_unbias_cells_build_the_span_image_once(monkeypatch, model):
    span = json.dumps({
        "schema": "smckit/1", "kind": "span", "apex": 5,
        "left": {"target": 3, "img": [0, 2, 1, 0, 2]},
        "right": {"target": 2, "img": [1, 0, 1, 1, 0]},
    })
    family = json.dumps({"schema": "smckit/1", "kind": "family", "size": 3, "entries": {"0": "x", "1": "(y*z)", "2": "I"}})
    calls = {"pseudofunctor_on_span": 0, "k_compose": 0}

    def counted(name):
        real = getattr(unbias, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(unbias, name, counted(name))
    out = io.StringIO()
    assert cli.main(["unbias", span, family, "--model", model, "--cells"], out=out) == 0
    assert "composition cell k=1" in out.getvalue()
    assert calls["pseudofunctor_on_span"] == 1
    calls.update(pseudofunctor_on_span=0, k_compose=0)
    rng = Random(48)
    for _ in range(50):
        f_comp_cell(*random_chain(rng, 3, 2))
    assert calls == {"pseudofunctor_on_span": 0, "k_compose": 0}


def test_psi_family_map_on_2000_labels(shallow_stack):
    l = SList(tuple(k % 2 for k in range(2000)))
    m = FreeTermModel()
    folded = psi_family_map(m, {0: Braid(Gen("a"), Gen("b")), 1: Id(Gen("c"))}, l)
    assert normalize(folded).phi.img == tuple(p for k in range(1000) for p in (3 * k + 1, 3 * k, 3 * k + 2))
