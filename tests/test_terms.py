"""Free SMC terms: evaluation, normalization, the decision procedure, folds."""

import gc
import weakref
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from smckit.errors import BoundaryMismatch, IllTyped, UnassignedLabel
from smckit.models import FinBijModel, FreeTermModel, SListModel, smc_law_failures
from smckit.laws import axiom_rewrite, random_walk_term
from smckit import laws, terms
from smckit.slist import SList, SListHom, hom_equal, identity_hom, word_from_hom
from smckit.perms import Perm
import term_oracle as oracle
from smckit.terms import (
    Assoc,
    Braid,
    Comp,
    Gen,
    Id,
    Inv,
    LeftUnitor,
    Par,
    RightUnitor,
    SmcModel,
    Tensor,
    Unit,
    boundaries,
    canonical_term,
    decide_equal,
    eval_mor,
    lookup,
    normalize,
    normal_forms,
    normalize_obj,
    obj_labels,
    obj_text,
    psi_hom,
    psi_obj,
    psi_split,
    typecheck,
)

a, b, c, d = Gen("a"), Gen("b"), Gen("c"), Gen("d")
slist_model = SListModel()
term_model = FreeTermModel()


def singletons(label):
    return SList((label,))


def test_eval_obj():
    # an object term's value is the object of its identity's value
    assert eval_mor(Id(Unit()), slist_model, singletons).src == SList(())
    assert eval_mor(Id(a), slist_model, singletons).src == SList(("a",))
    assert eval_mor(Id(Tensor(a, Unit())), slist_model, singletons).src == SList(("a",))
    with pytest.raises(UnassignedLabel):
        eval_mor(Id(a), slist_model, {})


def test_eval_mor_examples():
    h = eval_mor(Braid(a, b), slist_model, singletons)
    assert h.phi.img == (1, 0)
    h = eval_mor(Assoc(a, b, c), slist_model, singletons)
    assert h == identity_hom(SList(("a", "b", "c")))
    f = Braid(a, b)
    assert eval_mor(Comp(f, Inv(f)), slist_model, singletons) == identity_hom(SList(("a", "b")))


def test_eval_requires_well_typed():
    bad = Comp(Braid(a, b), Braid(a, b))
    with pytest.raises(IllTyped):
        eval_mor(bad, slist_model, singletons)
    with pytest.raises(IllTyped):
        decide_equal(bad, bad)


def test_normalize_pentagon_and_hexagon():
    w, x, y, z = a, b, c, d
    # pentagon legs on four generators evaluate to the identity
    leg1 = Comp(
        Comp(Par(Assoc(w, x, y), Id(z)), Assoc(w, Tensor(x, y), z)),
        Par(Id(w), Assoc(x, y, z)),
    )
    leg2 = Comp(Assoc(Tensor(w, x), y, z), Assoc(w, x, Tensor(y, z)))
    n1, n2 = normalize(leg1), normalize(leg2)
    assert n1.phi.is_identity() and hom_equal(n1, n2)
    # hexagon legs share the rotation permutation
    h1 = Comp(Comp(Assoc(a, b, c), Braid(a, Tensor(b, c))), Assoc(b, c, a))
    h2 = Comp(Comp(Par(Braid(a, b), Id(c)), Assoc(b, a, c)), Par(Id(b), Braid(a, c)))
    assert normalize(h1).phi.img == (1, 2, 0)
    assert hom_equal(normalize(h1), normalize(h2))
    assert normalize(Id(a)) == identity_hom(SList(("a",)))


def test_decide_equal_examples():
    triangle_l = Par(RightUnitor(a), Id(b))
    triangle_r = Comp(Assoc(a, Unit(), b), Par(Id(a), LeftUnitor(b)))
    assert decide_equal(triangle_l, triangle_r)
    assert not decide_equal(Braid(a, a), Id(Tensor(a, a)))
    t = Braid(a, b)
    assert decide_equal(t, t)
    with pytest.raises(BoundaryMismatch):
        decide_equal(Braid(a, b), Id(Tensor(a, b)))


def test_decision_keeps_no_term_alive():
    # nothing may cache terms across calls: once the caller drops a term,
    # it is collectable
    term = Comp(Braid(a, b), Braid(b, a))
    ref = weakref.ref(term)
    assert decide_equal(term, Id(Tensor(a, b)))
    assert normalize(term).phi.is_identity()
    del term
    gc.collect()
    assert ref() is None


def test_canonical_term_round_trip():
    ident = identity_hom(SList(("a", "b")))
    assert hom_equal(normalize(canonical_term(ident)), ident)
    f = SListHom(SList(("a", "b")), SList(("b", "a")), Perm((1, 0)))
    assert normalize(canonical_term(f)) == f
    g = SListHom(SList(("a", "b", "c")), SList(("c", "b", "a")), Perm((2, 1, 0)))
    assert normalize(canonical_term(g)) == g


def test_canonical_term_round_trip_random():
    rng = Random(11)
    for _ in range(200):
        labels = tuple(rng.choice("aabc") for _ in range(rng.randint(0, 6)))
        img = list(range(len(labels)))
        rng.shuffle(img)
        src = SList(labels)
        dst = SList(tuple(labels[i] for i in img))
        f = SListHom(src, dst, Perm(tuple(img)))
        assert normalize(canonical_term(f)) == f


def test_psi_extend():
    obj_fn = lambda l: psi_obj(term_model, Gen, l.labels)
    hom_fn = lambda f: psi_hom(term_model, Gen, f)
    assert obj_fn(SList(())) == Unit()
    assert obj_fn(SList(("k", "k"))) == Tensor(Gen("k"), Tensor(Gen("k"), Unit()))
    sw = SListHom(SList(("a", "b")), SList(("b", "a")), Perm((1, 0)))
    assert normalize(hom_fn(sw)).phi.img == (1, 0)
    # functoriality up to the model's equality
    from smckit.slist import compose as hom_compose

    f = SListHom(SList(("a", "b")), SList(("b", "a")), Perm((1, 0)))
    g = SListHom(SList(("b", "a")), SList(("a", "b")), Perm((1, 0)))
    lhs = hom_fn(hom_compose(f, g))
    rhs = Comp(hom_fn(f), hom_fn(g))
    assert term_model.mor_equal(lhs, rhs)


def psi_monoidal_iso(l1, l2, assignment, m):
    """The iso Psi(l1 (x) l2) -> Psi(l1) (x) Psi(l2): psi_split of the values of l1 onto Psi(l2)."""
    heads = [lookup(assignment, label) for label in l1.labels]
    return psi_split(m, heads, psi_obj(m, assignment, l2.labels))[0]


def test_psi_monoidal_iso():
    iso = psi_monoidal_iso(SList(()), SList(("a",)), lambda l: Gen(l), term_model)
    assert boundaries(iso) == (Tensor(Gen("a"), Unit()), Tensor(Unit(), Tensor(Gen("a"), Unit())))
    iso = psi_monoidal_iso(SList(("a",)), SList(()), lambda l: Gen(l), term_model)
    assert normalize(iso).phi.is_identity()
    rng = Random(12)
    for _ in range(50):
        l1 = SList(tuple(rng.choice("ab") for _ in range(rng.randint(0, 4))))
        l2 = SList(tuple(rng.choice("cd") for _ in range(rng.randint(0, 4))))
        iso = psi_monoidal_iso(l1, l2, lambda l: Gen(l), term_model)
        assert normalize(iso).phi.is_identity()


def test_shipped_models_pass_laws():
    assert not smc_law_failures(
        slist_model, tuple(SList(tuple(w)) for w in ("a", "bc", "", "de"))
    )
    assert not smc_law_failures(term_model, (a, Tensor(b, c), Unit(), d))
    assert not smc_law_failures(FinBijModel(), (2, 1, 0, 3))


def test_eval_in_finbij_model():
    m = FinBijModel()
    sizes = {"a": 1, "b": 2, "c": 1}
    h = eval_mor(Braid(a, b), m, sizes)
    assert h.img == (1, 2, 0)
    h = eval_mor(Comp(Braid(a, b), Braid(b, a)), m, sizes)
    assert h.is_identity()


def test_random_terms_boundaries():
    rng = Random(13)
    for _ in range(100):
        t = random_walk_term(rng, ["a", "b", "c"], rng.randint(0, 5))
        src, tgt = boundaries(t)
        assert (src, tgt) == (oracle.mor_src(t), oracle.mor_tgt(t))
        h = normalize(t)
        assert h.src == normalize_obj(src)
        assert h.dst == normalize_obj(tgt)


def test_random_walk_term_matches_the_walk_over_whole_steps():
    # the walk as it was: each step's target read from a pass over the whole whiskered step
    def walk_oracle(rng, labels, steps):
        obj = laws.random_obj(rng, labels)
        term = Id(obj)
        for _ in range(steps):
            step, _ = laws._random_structural_from(rng, obj)
            term = Comp(term, step)
            _, obj = boundaries(step)
        return term

    for seed in range(200):
        rng, rng_oracle = Random(seed), Random(seed)
        steps = seed % 12
        assert random_walk_term(rng, ["a", "b", "c"], steps) == walk_oracle(rng_oracle, ["a", "b", "c"], steps)
        assert rng.getstate() == rng_oracle.getstate()


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=4))
def test_each_move_carries_its_target(seed, depth):
    rng = Random(seed)
    obj = laws.random_obj(rng, ["a", "b", "c"], depth)
    for _, sub in laws._positions(obj):
        for move in laws._moves_at(sub, allow_growth=True):
            assert boundaries(move) == (sub, laws._move_target(move))
    step, target = laws._random_structural_from(rng, obj)
    assert boundaries(step) == (obj, target)


def test_normalize_agrees_with_finbij_evaluation():
    # independent route: the unlabeled-bijection model reproduces phi
    m = FinBijModel()
    rng = Random(16)
    for _ in range(200):
        t = random_walk_term(rng, ["a", "b", "c"], rng.randint(0, 6))
        assert eval_mor(t, m, lambda label: 1) == normalize(t).phi


def test_psi_hom_functorial_random():
    from smckit.slist import GenWord, compose as hom_compose, hom_from_word
    from smckit.terms import psi_hom

    rng = Random(15)
    assign = lambda l: Gen(l)
    for _ in range(60):
        labels = tuple(rng.choice("aab") for _ in range(rng.randint(1, 5)))
        start = SList(labels)
        n = len(labels)
        mk = lambda: tuple(rng.randrange(n - 1) for _ in range(rng.randint(0, 4))) if n > 1 else ()
        f = hom_from_word(GenWord(start, mk()))
        g = hom_from_word(GenWord(f.dst, mk()))
        lhs = psi_hom(term_model, assign, hom_compose(f, g))
        rhs = Comp(psi_hom(term_model, assign, f), psi_hom(term_model, assign, g))
        assert decide_equal(lhs, rhs)
        ident = psi_hom(term_model, assign, identity_hom(start))
        assert normalize(ident).phi.is_identity()


def test_psi_monoidal_iso_naturality():
    from smckit.slist import GenWord, hom_from_word
    from smckit.terms import psi_hom

    rng = Random(14)
    assign = lambda l: Gen(l)
    for _ in range(40):
        l1 = SList(tuple(rng.choice("ab") for _ in range(rng.randint(0, 3))))
        l2 = SList(tuple(rng.choice("cd") for _ in range(rng.randint(0, 3))))
        w1 = tuple(rng.randrange(len(l1) - 1) for _ in range(rng.randint(0, 3))) if len(l1) > 1 else ()
        w2 = tuple(rng.randrange(len(l2) - 1) for _ in range(rng.randint(0, 3))) if len(l2) > 1 else ()
        f = hom_from_word(GenWord(l1, w1))
        g = hom_from_word(GenWord(l2, w2))
        from smckit.monoidal import tensor_hom

        both = tensor_hom(f, g)
        lhs = Comp(psi_hom(term_model, assign, both), psi_monoidal_iso(f.dst, g.dst, assign, term_model))
        rhs = Comp(
            psi_monoidal_iso(l1, l2, assign, term_model),
            Par(psi_hom(term_model, assign, f), psi_hom(term_model, assign, g)),
        )
        assert decide_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# the one-pass normalizer against evaluation into symmetric lists

WALK_LABELS = ["x0", "x1", "x2"]


def walk_term(rng: Random):
    """A random walk term under up to three axiom rewrites, as the coherence suite draws them."""
    term = random_walk_term(rng, WALK_LABELS, rng.randint(0, 6))
    for _ in range(rng.randint(0, 3)):
        term = axiom_rewrite(rng, term)
    return term


def subterm_paths(t, path=()):
    yield path
    if isinstance(t, Comp):
        yield from subterm_paths(t.first, path + (0,))
        yield from subterm_paths(t.second, path + (1,))
    elif isinstance(t, Par):
        yield from subterm_paths(t.left, path + (0,))
        yield from subterm_paths(t.right, path + (1,))
    elif isinstance(t, Inv):
        yield from subterm_paths(t.arg, path + (0,))


def subterm_at(t, path):
    for step in path:
        if isinstance(t, Inv):
            t = t.arg
        elif isinstance(t, Comp):
            t = (t.first, t.second)[step]
        else:
            t = (t.left, t.right)[step]
    return t


def replace_at(t, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(t, Inv):
        return Inv(replace_at(t.arg, rest, new))
    parts = [t.first, t.second] if isinstance(t, Comp) else [t.left, t.right]
    parts[head] = replace_at(parts[head], rest, new)
    return type(t)(*parts)


def mutate(rng: Random, t):
    """Replace a random subterm by an unrelated walk, or swap the halves of a composite."""
    path = rng.choice(list(subterm_paths(t)))
    sub = subterm_at(t, path)
    if isinstance(sub, Comp) and rng.random() < 0.5:
        return replace_at(t, path, Comp(sub.second, sub.first))
    return replace_at(t, path, random_walk_term(rng, WALK_LABELS, rng.randint(0, 2)))


def outcome(fn):
    try:
        return "ok", fn()
    except IllTyped as exc:
        return "ill-typed", str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_normalize_agrees_with_slist_evaluation(seed):
    term = walk_term(Random(seed))
    assert normalize(term) == oracle.eval_mor(term, slist_model, singletons)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
def test_normalize_rejects_what_typecheck_rejects(seed, mutations):
    rng = Random(seed)
    term = walk_term(rng)
    for _ in range(mutations):
        term = mutate(rng, term)
    # the oracle's eval_mor runs the recursive typecheck first, so an
    # IllTyped from it carries typecheck's message for the first mismatch
    expected = outcome(lambda: oracle.eval_mor(term, slist_model, singletons))
    assert outcome(lambda: normalize(term)) == expected
    assert outcome(lambda: eval_mor(term, slist_model, singletons)) == expected
    assert outcome(lambda: typecheck(term)) == outcome(lambda: oracle.typecheck(term))
    assert outcome(lambda: boundaries(term)) == outcome(lambda: oracle_boundaries(term))


def oracle_boundaries(t):
    oracle.typecheck(t)
    return oracle.mor_src(t), oracle.mor_tgt(t)


def test_normalize_takes_unhashable_labels():
    x, y = Gen(["x"]), Gen(["y"])
    term = Comp(Comp(Braid(x, Tensor(y, Gen(["x"]))), Assoc(y, x, x)), Par(Id(y), Braid(x, x)))
    assert normalize(term) == oracle.eval_mor(term, slist_model, singletons)
    with pytest.raises(IllTyped):
        normalize(Comp(Braid(x, y), Braid(x, y)))


def test_normal_forms_compare_boundaries_structurally():
    # equal objects built separately share a boundary; equal label lists
    # with another bracketing do not
    s = Comp(Braid(a, Tensor(b, c)), Braid(Tensor(b, c), a))
    t = Id(Tensor(Gen("a"), Tensor(Gen("b"), Gen("c"))))
    hs, ht = normal_forms(s, t)
    assert hom_equal(hs, ht)
    with pytest.raises(BoundaryMismatch):
        normal_forms(s, Id(Tensor(Tensor(a, b), c)))


# ---------------------------------------------------------------------------
# one-pass checking and evaluation against the recursive oracle

# per shipped model, an assignment of the walk labels; x2 goes to a unit object
WALK_ASSIGNMENTS = (
    (term_model, {"x0": a, "x1": Tensor(b, Unit()), "x2": Unit()}),
    (slist_model, {"x0": SList(("a",)), "x1": SList(("b", "a")), "x2": SList(())}),
    (FinBijModel(), {"x0": 1, "x1": 2, "x2": 0}),
)


class CallLog:
    """A model that records the name of each call before passing it on."""

    def __init__(self, model):
        self.model, self.calls = model, []

    def __getattr__(self, name):
        method = getattr(self.model, name)

        def call(*args):
            self.calls.append(name)
            return method(*args)

        return call


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_eval_matches_the_recursive_oracle(seed):
    term = walk_term(Random(seed))
    # inverses over a composite and over a tensor of composites
    for t in (term, Inv(term), Inv(Par(Comp(term, Inv(term)), Inv(term)))):
        obj = oracle.mor_src(t)
        for m, x in WALK_ASSIGNMENTS:
            ours, theirs = CallLog(m), CallLog(m)
            assert eval_mor(Id(obj), ours, x) == oracle.eval_mor(Id(obj), theirs, x)
            assert eval_mor(t, ours, x) == oracle.eval_mor(t, theirs, x)
            assert ours.calls == theirs.calls


def test_term_functions_on_terms_3000_deep(shallow_stack):
    # deep terms are compared through normal forms and text: the value
    # classes' __eq__, __hash__ and __repr__ recurse
    x, swap = Tensor(a, a), Braid(a, a)
    t = swap
    for _ in range(600):  # five levels each, with inverses over composites and tensors
        t = Inv(Comp(Comp(Inv(RightUnitor(x)), Par(Comp(t, swap), Id(Unit()))), RightUnitor(x)))
    h = normalize(swap)
    typecheck(t)
    assert [obj_text(o) for o in boundaries(t)] == ["(a*a)", "(a*a)"]
    assert normalize(t) == h
    assert decide_equal(t, swap) and not decide_equal(t, Id(x))
    assert eval_mor(t, slist_model, singletons) == h
    assert eval_mor(t, FinBijModel(), lambda label: 2) == Perm((2, 3, 0, 1))
    assert decide_equal(eval_mor(t, term_model, Gen), t)
    bad = Comp(t, Braid(a, b))
    for fn in (typecheck, boundaries, normalize):
        with pytest.raises(IllTyped, match=r"^composition boundary mismatch: \(a\*a\) != \(a\*b\)$"):
            fn(bad)

    deep = a
    for _ in range(3000):
        deep = Tensor(deep, b)
    labels = ("a",) + ("b",) * 3000
    assert obj_labels(deep) == labels and normalize_obj(deep) == SList(labels)
    assert obj_text(eval_mor(Id(deep), term_model, Gen).obj) == str(deep) == "(" * 3000 + "a" + "*b)" * 3000
    assert eval_mor(Id(deep), slist_model, singletons).src == SList(labels)
    assert eval_mor(Id(deep), FinBijModel(), lambda label: 1).n == 3001
    s = Comp(Braid(deep, a), Braid(a, deep))
    assert [obj_text(o) for o in boundaries(s)] == [f"({deep}*a)"] * 2
    assert normalize(s).phi.is_identity() and decide_equal(s, Id(Tensor(deep, a)))
    assert eval_mor(s, slist_model, singletons) == normalize(s)
    assert eval_mor(s, FinBijModel(), lambda label: 1).is_identity()
    assert decide_equal(eval_mor(s, term_model, Gen), s)

    names = tuple(f"x{i}" for i in range(3000))
    assert obj_labels(psi_obj(term_model, Gen, names)) == names
    iso = psi_monoidal_iso(SList(names), SList(("y",)), Gen, term_model)
    assert normalize(iso).phi.is_identity()
    _, fold = psi_split(term_model, [Gen(n) for n in names], Unit())
    assert obj_labels(fold) == names
    f = SListHom(SList(names), SList(names[1::-1] + names[2:]), Perm((1, 0) + tuple(range(2, 3000))))
    assert normalize(psi_hom(term_model, Gen, f)) == f
    assert normalize(canonical_term(f)) == f


# ---------------------------------------------------------------------------
# the monoidal comparison of the list extension


def psi_monoidal_iso_recursive(l1, l2, assignment, m):
    # the definition by recursion on l1, kept as the oracle
    if len(l1) == 0:
        return m.left_unitor_inv(psi_obj(m, assignment, l2.labels))
    head, tail = l1.labels[0], SList(l1.labels[1:])
    x = assignment(head)
    step = m.tensor_mor(m.identity(x), psi_monoidal_iso_recursive(tail, l2, assignment, m))
    return m.compose(step, m.assoc_inv(x, psi_obj(m, assignment, tail.labels), psi_obj(m, assignment, l2.labels)))


class TensorCountingModel(FreeTermModel):
    def __init__(self):
        self.tensors = 0

    def tensor_obj(self, a, b):
        self.tensors += 1
        return super().tensor_obj(a, b)


def test_psi_monoidal_iso_matches_the_recursion():
    rng = Random(17)
    for _ in range(60):
        l1 = SList(tuple(rng.choice("ab") for _ in range(rng.randint(0, 5))))
        l2 = SList(tuple(rng.choice("cd") for _ in range(rng.randint(0, 5))))
        assert psi_monoidal_iso(l1, l2, Gen, term_model) == psi_monoidal_iso_recursive(l1, l2, Gen, term_model)


def test_psi_monoidal_iso_tensors_grow_linearly():
    for n1, n2 in ((0, 3), (4, 4), (16, 8), (48, 48)):
        m = TensorCountingModel()
        l1 = SList(tuple(f"a{i}" for i in range(n1)))
        l2 = SList(tuple(f"b{i}" for i in range(n2)))
        iso = psi_monoidal_iso(l1, l2, Gen, m)
        assert m.tensors == n1 + n2
        assert normalize(iso).phi.is_identity()


# ---------------------------------------------------------------------------
# the extension to list morphisms, built directly in the model


def canonical_term_by_swaps(f):
    # the canonical term written out as a term, swap by swap, kept as the oracle
    def nest(labels):
        out = Unit()
        for label in reversed(labels):
            out = Tensor(Gen(label), out)
        return out

    labels = f.src.labels
    term = Id(nest(labels))
    for p in word_from_hom(f).positions:
        x, y, rest = Gen(labels[p]), Gen(labels[p + 1]), nest(labels[p + 2 :])
        swap = Comp(Comp(Inv(Assoc(x, y, rest)), Par(Braid(x, y), Id(rest))), Assoc(y, x, rest))
        for label in reversed(labels[:p]):
            swap = Par(Id(Gen(label)), swap)
        term = Comp(term, swap)
        labels = labels[:p] + (labels[p + 1], labels[p]) + labels[p + 2 :]
    return term


def random_list_hom(rng: Random, max_len: int = 6) -> SListHom:
    labels = tuple(rng.choice("aabc") for _ in range(rng.randint(0, max_len)))
    img = list(range(len(labels)))
    rng.shuffle(img)
    return SListHom(SList(labels), SList(tuple(labels[i] for i in img)), Perm(tuple(img)))


# one assignment per shipped model; "c" goes to a unit object
ASSIGNMENTS = (
    (term_model, {"a": a, "b": Tensor(b, Unit()), "c": Unit()}),
    (slist_model, {"a": SList(("a",)), "b": SList(("b", "a")), "c": SList(())}),
    (FinBijModel(), {"a": 1, "b": 2, "c": 0}),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_psi_hom_matches_evaluating_the_canonical_term(seed):
    f = random_list_hom(Random(seed))
    term = canonical_term(f)
    assert term == canonical_term_by_swaps(f)
    for m, x in ASSIGNMENTS:
        assert psi_hom(m, x, f) == oracle.eval_mor(term, m, x)


def test_psi_hom_evaluates_no_term(monkeypatch):
    def forbidden(*args):
        raise AssertionError("psi_hom went through a term")

    for name in ("canonical_term", "eval_mor", "typecheck", "boundaries"):
        monkeypatch.setattr(terms, name, forbidden)
    f = SListHom(SList(("a", "b", "c")), SList(("c", "b", "a")), Perm((2, 1, 0)))
    assert psi_hom(slist_model, singletons, f) == f
    assert psi_hom(FinBijModel(), {"a": 1, "b": 1, "c": 1}, f) == f.phi
    assert normalize(psi_hom(term_model, Gen, f)) == f


def test_psi_hom_of_a_60_reversal(shallow_stack):
    n = 60
    labels = tuple(f"x{i}" for i in range(n))
    f = SListHom(SList(labels), SList(labels[::-1]), Perm(tuple(reversed(range(n)))))
    assert normalize(psi_hom(term_model, Gen, f)) == f
    assert psi_hom(slist_model, singletons, f) == f
    assert psi_hom(FinBijModel(), lambda label: 1, f) == f.phi


# the strict models, each with a value of a given size for block j
STRICT_MODELS = (
    (slist_model, lambda size, j: SList(tuple("ab"[(j + t) % 2] for t in range(size)))),
    (FinBijModel(), lambda size, j: size),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=7), st.randoms(use_true_random=False))
def test_strict_permute_is_the_formula(sizes, rng):
    img = list(range(len(sizes)))
    rng.shuffle(img)
    phi = Perm(tuple(img))
    for m, value in STRICT_MODELS:
        values = [value(size, j) for j, size in enumerate(sizes)]
        assert m.mor_equal(m.permute(values, phi), SmcModel.permute(m, values, phi))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), max_size=4), max_size=4))
def test_strict_regroup_is_the_formula(block_sizes):
    for m, value in STRICT_MODELS:
        blocks = [[value(size, j) for j, size in enumerate(sizes)] for sizes in block_sizes]
        assert m.mor_equal(m.regroup(blocks), SmcModel.regroup(m, blocks))
