"""
Term language for the free symmetric monoidal category on an alphabet.

Objects are trees built from Unit, generators and a binary tensor; structural
morphisms are trees built from identities, composition (diagram order),
tensor, the four structural isomorphism families and a formal inverse.
``syntax`` writes the concrete syntax of both in one walk, which walks a
tensor node that the term reaches more than once only once.
The program of a morphism lists its atoms, their objects numbered up to
equality, and the markers that combine them, in post-order; ``flatten``
writes it for a term, and the CLI's parser writes it straight from text,
so a request builds no morphism term.  Checking a morphism, reading its
boundaries and normalizing it are one run over its program, which computes
what evaluation into symmetric lists with each generator sent to a
singleton gives; evaluation into any model is a pass of the same shape.
The resulting index bijection is a complete invariant of the term modulo
the symmetric monoidal axioms, so equality of well-typed terms with equal
boundaries is decidable by comparing normal forms.  The extension Psi of
an assignment to lists and list morphisms writes the canonical formula of
a permutation directly as model calls; the canonical term is that formula
in the free term model.  None of these recurse, so they work on terms of
any depth.
"""

from __future__ import annotations

from typing import Any

from .errors import BoundaryMismatch, IllTyped, UnassignedLabel
from .perms import Perm, reduced_word
from .slist import SList, SListHom, hom_equal
from .values import value


# ---------------------------------------------------------------------------
# object and morphism terms


@value
class ObjTerm:
    def __str__(self):
        return obj_text(self)


@value
class Unit(ObjTerm):
    pass


@value
class Gen(ObjTerm):
    label: Any


@value
class Tensor(ObjTerm):
    left: ObjTerm
    right: ObjTerm


@value
class MorTerm:
    pass


@value
class Id(MorTerm):
    obj: ObjTerm


@value
class Comp(MorTerm):
    """first then second, diagram order"""

    first: MorTerm
    second: MorTerm


@value
class Par(MorTerm):
    """tensor of morphisms"""

    left: MorTerm
    right: MorTerm


@value
class Assoc(MorTerm):
    """(x*y)*z -> x*(y*z)"""

    x: ObjTerm
    y: ObjTerm
    z: ObjTerm


@value
class LeftUnitor(MorTerm):
    """I*x -> x"""

    x: ObjTerm


@value
class RightUnitor(MorTerm):
    """x*I -> x"""

    x: ObjTerm


@value
class Braid(MorTerm):
    """x*y -> y*x"""

    x: ObjTerm
    y: ObjTerm


@value
class Inv(MorTerm):
    arg: MorTerm


def obj_text(t: ObjTerm, sep: str = "*") -> str:
    """An object as text, each tensor parenthesized with ``sep`` between its parts.

    >>> obj_text(Tensor(Gen("x"), Tensor(Unit(), Gen("y"))), " * ")
    '(x * (I * y))'
    """
    return syntax(t, sep)


_MORPHISMS = object()  # on syntax's stack below the objects of an atom


def syntax(t, sep: str, comp: str | None = None) -> str:
    """The concrete syntax of an object, or of a morphism where ``comp`` is given.

    A tensor, of objects or of morphisms, is parenthesized with ``sep``
    between its parts; composition is written flat with ``comp`` between
    the parts, which reads as left-associated.  A tensor node of objects
    reached more than once (the unbiased formulas share their folds) is
    walked once: its first visit records where its text starts and ends in
    the output, the next visit joins that range into one text, and every
    later visit reuses it.  Memory stays linear in the size of the term plus
    that of the output: one range per tensor node, and a text only for a
    shared node, which the output holds at least twice.  An object term
    where a morphism belongs, or a morphism term where an object belongs,
    raises ``TypeError`` when the walk reaches it.

    >>> syntax(Comp(Braid(Gen("x"), Unit()), Inv(Id(Unit()))), " * ", " ; ")
    'b x I ; inv (id I)'
    """
    out: list[str] = []
    at: dict[int, Any] = {}  # id of a tensor node -> [start, end] of its text in out, then the text
    objects = comp is None  # whether the items on the stack down to the next _MORPHISMS are objects
    todo: list = [t]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
        elif type(item) is list:  # the end of a tensor's first visit
            out.append(")")
            item.append(len(out))
        elif objects:
            if isinstance(item, Tensor):
                key = id(item)
                where = at.get(key)
                if where is None:
                    at[key] = where = [len(out)]
                    out.append("(")
                    todo += (where, item.right, sep, item.left)
                else:
                    if type(where) is list:
                        where = at[key] = "".join(out[where[0] : where[1]])
                    out.append(where)
            elif isinstance(item, Gen):
                out.append(str(item.label))
            elif isinstance(item, Unit):
                out.append("I")
            elif item is _MORPHISMS:
                objects = False
            else:
                raise TypeError(f"not an object term: {item!r}")
        elif isinstance(item, Comp):
            todo += (item.second, comp, item.first)
        elif isinstance(item, Par):
            out.append("(")
            todo += (")", item.right, sep, item.left)
        elif isinstance(item, Inv):
            out.append("inv (")
            todo += (")", item.arg)
        else:
            if isinstance(item, Id):
                out.append("id ")
                todo += (_MORPHISMS, item.obj)
            elif isinstance(item, Assoc):
                out.append("a ")
                todo += (_MORPHISMS, item.z, " ", item.y, " ", item.x)
            elif isinstance(item, LeftUnitor):
                out.append("l ")
                todo += (_MORPHISMS, item.x)
            elif isinstance(item, RightUnitor):
                out.append("r ")
                todo += (_MORPHISMS, item.x)
            elif isinstance(item, Braid):
                out.append("b ")
                todo += (_MORPHISMS, item.y, " ", item.x)
            else:
                raise TypeError(f"not a morphism term: {item!r}")
            objects = True
    return "".join(out)


def obj_labels(t: ObjTerm) -> tuple:
    """The generator labels of an object, left to right."""
    out = []
    todo = [t]
    while todo:
        o = todo.pop()
        if isinstance(o, Tensor):
            todo += (o.right, o.left)
        elif isinstance(o, Gen):
            out.append(o.label)
        elif not isinstance(o, Unit):
            raise TypeError(f"not an object term: {o!r}")
    return tuple(out)


# ---------------------------------------------------------------------------
# models


class SmcModel:
    """Semantic interface for a symmetric monoidal model.

    Composition is diagram order.  Shipped instances satisfy the pentagon,
    triangle, hexagon and symmetry laws; the shared check lives in
    ``models.smc_law_failures``.  ``braid_inv`` defaults to the opposite
    braiding, which is correct in any symmetric model.  ``permute`` and
    ``regroup`` default to the structural formulas; a strict model, whose
    associators and unitors are identities, overrides them with the
    permutation those formulas equal by coherence.
    """

    def unit(self):
        raise NotImplementedError

    def tensor_obj(self, a, b):
        raise NotImplementedError

    def identity(self, a):
        raise NotImplementedError

    def compose(self, f, g):
        raise NotImplementedError

    def tensor_mor(self, f, g):
        raise NotImplementedError

    def assoc(self, a, b, c):
        raise NotImplementedError

    def assoc_inv(self, a, b, c):
        raise NotImplementedError

    def left_unitor(self, a):
        raise NotImplementedError

    def left_unitor_inv(self, a):
        raise NotImplementedError

    def right_unitor(self, a):
        raise NotImplementedError

    def right_unitor_inv(self, a):
        raise NotImplementedError

    def braid(self, a, b):
        raise NotImplementedError

    def braid_inv(self, a, b):
        return self.braid(b, a)

    def mor_equal(self, f, g) -> bool:
        return f == g

    def permute(self, values, phi: Perm):
        """The morphism from the fold of ``values`` to the fold of ``values[phi(0)], ...``.

        The default writes the canonical formula: the identity on the fold,
        then per letter p of the reduced word of phi the swap
        ``assoc_inv(a, b, rest) ; (braid(a, b) (x) id rest) ; assoc(b, a, rest)``
        of the values at p and p + 1, whiskered by the p values before them.
        It is correct in every model.  By coherence a strict model may
        return the block permutation of the values instead.
        """
        values = list(values)  # swapped in place below
        ids = [self.identity(a) for a in values]
        out = self.identity(_fold(self, values))
        for p in reduced_word(phi):
            a, b = values[p], values[p + 1]
            rest = _fold(self, values[p + 2 :])
            swap = self.compose(
                self.compose(self.assoc_inv(a, b, rest), self.tensor_mor(self.braid(a, b), self.identity(rest))),
                self.assoc(b, a, rest),
            )
            for i in reversed(range(p)):
                swap = self.tensor_mor(ids[i], swap)
            out = self.compose(out, swap)
            values[p], values[p + 1] = b, a
            ids[p], ids[p + 1] = ids[p + 1], ids[p]
        return out

    def regroup(self, blocks):
        """The morphism from the fold of the concatenated blocks to the fold of the blocks' folds.

        ``blocks`` is a sequence of value sequences.  The default is built
        from the last block backwards, from associators and unitors only:
        each step splits the fold of one block off the fold of the values
        after it (``psi_split``).  It is correct in every model.  In a
        strict model both folds are one object, and the result is its
        identity.
        """
        iso = self.identity(self.unit())
        rest = self.unit()  # the fold of the values of the blocks after the current one
        for values in reversed(blocks):
            split, fold = psi_split(self, values, rest)
            iso = self.compose(split, self.tensor_mor(self.identity(fold), iso))
            for a in reversed(values):
                rest = self.tensor_obj(a, rest)
        return iso


def lookup(assignment, label):
    """Fetch a generator's value from a mapping or callable assignment."""
    try:
        if callable(assignment):
            return assignment(label)
        return assignment[label]
    except (KeyError, UnassignedLabel):
        raise UnassignedLabel(f"no object assigned to label {label!r}") from None


def eval_mor(t: MorTerm, m: SmcModel, assignment) -> Any:
    """Typecheck a morphism term, then compute its value in one post-order pass.

    ``Inv`` flips a flag pushed down with its argument: under an odd number
    of them the parts of a composite come second first and each structural
    map is its inverse.  The model is called in the order of the structural
    recursion: the parts of a node left to right, then the call combining
    their values.
    """
    typecheck(t)
    done: list = []
    todo: list = [(t, False)]  # (subterm, inverted), or (model method, number of values it combines)
    while todo:
        node, info = todo.pop()
        if callable(node):
            done[-info:] = [node(*done[-info:])]
            continue
        inv = info
        if isinstance(node, Tensor):
            todo += ((m.tensor_obj, 2), (node.right, inv), (node.left, inv))
        elif isinstance(node, Gen):
            done.append(lookup(assignment, node.label))
        elif isinstance(node, Unit):
            done.append(m.unit())
        elif isinstance(node, Comp):
            first, second = (node.second, node.first) if inv else (node.first, node.second)
            todo += ((m.compose, 2), (second, inv), (first, inv))
        elif isinstance(node, Par):
            todo += ((m.tensor_mor, 2), (node.right, inv), (node.left, inv))
        elif isinstance(node, Inv):
            todo.append((node.arg, not inv))
        elif isinstance(node, Id):
            todo += ((m.identity, 1), (node.obj, inv))
        elif isinstance(node, Assoc):
            todo += ((m.assoc_inv if inv else m.assoc, 3), (node.z, inv), (node.y, inv), (node.x, inv))
        elif isinstance(node, LeftUnitor):
            todo += ((m.left_unitor_inv if inv else m.left_unitor, 1), (node.x, inv))
        elif isinstance(node, RightUnitor):
            todo += ((m.right_unitor_inv if inv else m.right_unitor, 1), (node.x, inv))
        elif isinstance(node, Braid):
            todo += ((m.braid_inv if inv else m.braid, 2), (node.y, inv), (node.x, inv))
        else:
            raise TypeError(f"not a term: {node!r}")
    return done[0]


# ---------------------------------------------------------------------------
# normalization and the decision procedure


def normalize_obj(t: ObjTerm) -> SList:
    """Flatten an object term to the list of its generator labels."""
    return SList(obj_labels(t))


_UNIT = Unit()


class Objects(dict):
    """Objects numbered up to equality, for the length of one call.

    Equal objects get equal numbers, so boundaries compare in constant time
    and no comparison recurses.  As a dict the table maps ``(label,)`` to
    the number of the generator with that hashable label, and ``(left,
    right)`` to the number of the tensor of the objects numbered left and
    right; looking up a missing key numbers a new object, so a parser
    numbers the objects it reads as it reads them.  ``terms[k]`` is the
    object numbered k and ``sizes[k]`` its number of generators; number 0
    is the unit.
    """

    __slots__ = ("terms", "sizes", "_seen", "_unhashable")

    def __init__(self):
        self.terms: list[ObjTerm] = [_UNIT]
        self.sizes: list[int] = [0]
        self._seen: dict[int, int] = {}  # id of a visited object -> its number
        self._unhashable: list[int] = []  # numbers of generators with unhashable labels

    def __missing__(self, key: tuple) -> int:
        terms, sizes = self.terms, self.sizes
        k = self[key] = len(sizes)
        if len(key) == 1:
            terms.append(Gen(key[0]))
            sizes.append(1)
        else:
            left, right = key
            terms.append(Tensor(terms[left], terms[right]))
            sizes.append(sizes[left] + sizes[right])
        return k

    def _new(self, term: ObjTerm, size: int) -> int:
        self.terms.append(term)
        self.sizes.append(size)
        return len(self.sizes) - 1

    def gen(self, label) -> int:
        """The number of the generator with this label, hashable or not."""
        try:
            return self[label,]
        except TypeError:  # an unhashable label is looked up by equality
            k = next((j for j in self._unhashable if self.terms[j].label == label), None)
            if k is None:
                k = self._new(Gen(label), 1)
                self._unhashable.append(k)
            return k

    def number(self, obj: ObjTerm) -> int:
        """The number of an object; each node object is visited once per call."""
        seen = self._seen
        k = seen.get(id(obj))
        if k is not None:
            return k
        todo = [obj]
        while todo:
            o = todo[-1]
            if isinstance(o, Tensor):
                left, right = seen.get(id(o.left)), seen.get(id(o.right))
                if left is None or right is None:
                    if left is None:
                        todo.append(o.left)
                    if right is None:
                        todo.append(o.right)
                    continue
                k = self.get((left, right))
                if k is None:  # numbered with o as its term
                    k = self[left, right] = self._new(o, self.sizes[left] + self.sizes[right])
            elif isinstance(o, Gen):
                k = self.gen(o.label)
            elif isinstance(o, Unit):
                k = 0
            else:
                raise TypeError(f"not an object term: {o!r}")
            seen[id(o)] = k
            todo.pop()
        return k


# The program of a morphism term lists its atoms and the markers that
# combine them in post-order: an atom is its class followed by the numbers
# of its objects, e.g. ``(Assoc, x, y, z)``; a marker combines the last two
# results (``COMP``, ``PAR``) or the last one (``INV``).
COMP, PAR, INV = object(), object(), object()


def flatten(t: MorTerm, objs: Objects) -> list:
    """The program of a term, its objects numbered in ``objs``."""
    number = objs.number
    program: list = []
    todo: list = [t]
    while todo:
        node = todo.pop()
        if node is COMP or node is PAR or node is INV:
            program.append(node)
        elif isinstance(node, Comp):
            todo += (COMP, node.second, node.first)
        elif isinstance(node, Par):
            todo += (PAR, node.right, node.left)
        elif isinstance(node, Inv):
            todo += (INV, node.arg)
        elif isinstance(node, Id):
            program.append((Id, number(node.obj)))
        elif isinstance(node, Braid):
            program.append((Braid, number(node.x), number(node.y)))
        elif isinstance(node, Assoc):
            program.append((Assoc, number(node.x), number(node.y), number(node.z)))
        elif isinstance(node, LeftUnitor):
            program.append((LeftUnitor, number(node.x)))
        elif isinstance(node, RightUnitor):
            program.append((RightUnitor, number(node.x)))
        else:
            raise TypeError(f"not a morphism term: {node!r}")
    return program


def run(program: list, objs: Objects) -> tuple[int, int, tuple]:
    """Source and target numbers and phi of a program, in one pass over it.

    Both parts of a composite are finished before its boundaries are
    compared, first part first, so the first ill-typed composition in that
    order raises ``IllTyped``.  The phi of a part that moves nothing is
    ``None`` until it meets one that does, so identities, associators and
    unitors build no tuple.
    """
    sizes = objs.sizes
    done: list[tuple[int, int, tuple | None]] = []  # (source, target, phi) per finished part
    for item in program:
        if item is COMP:
            g_src, g_tgt, g_phi = done.pop()
            f_src, f_tgt, f_phi = done[-1]
            if f_tgt != g_src:
                raise IllTyped(f"composition boundary mismatch: {objs.terms[f_tgt]} != {objs.terms[g_src]}")
            phi = f_phi if g_phi is None else g_phi if f_phi is None else tuple([f_phi[j] for j in g_phi])
            done[-1] = (f_src, g_tgt, phi)
        elif item is PAR:
            r_src, r_tgt, r_phi = done.pop()
            l_src, l_tgt, l_phi = done[-1]
            phi = None
            if l_phi is not None or r_phi is not None:
                m = sizes[l_src]
                phi = (tuple(range(m)) if l_phi is None else l_phi) + tuple(
                    range(m, m + sizes[r_src]) if r_phi is None else [m + j for j in r_phi]
                )
            done[-1] = (objs[l_src, r_src], objs[l_tgt, r_tgt], phi)
        elif item is INV:
            src, tgt, phi = done[-1]
            if phi is not None:
                inverse = [0] * len(phi)
                for i, j in enumerate(phi):
                    inverse[j] = i
                phi = tuple(inverse)
            done[-1] = (tgt, src, phi)
        else:
            kind, x = item[0], item[1]
            if kind is Id:
                done.append((x, x, None))
            elif kind is Assoc:
                y, z = item[2], item[3]
                done.append((objs[objs[x, y], z], objs[x, objs[y, z]], None))
            elif kind is Braid:
                y = item[2]
                nx, ny = sizes[x], sizes[y]
                done.append((objs[x, y], objs[y, x], tuple(range(nx, nx + ny)) + tuple(range(nx))))
            elif kind is LeftUnitor:
                done.append((objs[0, x], x, None))
            else:
                done.append((objs[x, 0], x, None))
    src, tgt, phi = done[0]
    return src, tgt, tuple(range(sizes[src])) if phi is None else phi


def typecheck(t: MorTerm) -> None:
    """Raise IllTyped unless every composition has matching inner boundaries.

    It is the normalizing pass with its result dropped.
    """
    objs = Objects()
    run(flatten(t, objs), objs)


def boundaries(t: MorTerm) -> tuple[ObjTerm, ObjTerm]:
    """The source and target objects of a term, read in one pass.

    The pass checks the term as it goes, so an ill-typed term raises
    ``IllTyped``, with the text ``typecheck`` gives.

    >>> boundaries(Inv(Braid(Gen("a"), Unit())))
    (Tensor(left=Unit(), right=Gen(label='a')), Tensor(left=Gen(label='a'), right=Unit()))
    """
    objs = Objects()
    src, tgt, _ = run(flatten(t, objs), objs)
    return objs.terms[src], objs.terms[tgt]


def normal_forms(objs: Objects, *programs: list) -> list[SListHom]:
    """The normal forms of programs over one table, which must share their boundaries.

    The programs are run in order, so the first ill-typed one raises
    ``IllTyped``; a program whose source or target differs from the
    first's, syntactically, raises ``BoundaryMismatch``.  The shared
    source and target are labeled once.
    """
    homs = []
    for program in programs:
        src, tgt, phi = run(program, objs)
        if not homs:
            first_src, first_tgt = src, tgt
            source, target = SList(obj_labels(objs.terms[src])), SList(obj_labels(objs.terms[tgt]))
        elif src != first_src or tgt != first_tgt:
            raise BoundaryMismatch("decide_equal needs syntactically equal boundaries")
        homs.append(SListHom(source, target, Perm(phi)))
    return homs


def normalize(t: MorTerm) -> SListHom:
    """The index bijection of a structural morphism; complete modulo the axioms.

    It equals ``eval_mor(t, SListModel(), lambda label: SList((label,)))``,
    worked out on index tuples in the pass that typechecks the term.

    >>> a, b = Gen("a"), Gen("b")
    >>> normalize(Braid(a, b)).phi.img
    (1, 0)
    >>> normalize(Assoc(a, b, Gen("c"))).phi.img
    (0, 1, 2)
    """
    objs = Objects()
    return normal_forms(objs, flatten(t, objs))[0]


def decide_equal(s: MorTerm, t: MorTerm) -> bool:
    """Coherence decision procedure: equal boundaries, then equal normal forms.

    >>> a = Gen("a")
    >>> decide_equal(Braid(a, a), Id(Tensor(a, a)))
    False
    """
    objs = Objects()
    return hom_equal(*normal_forms(objs, flatten(s, objs), flatten(t, objs)))


# ---------------------------------------------------------------------------
# the monoidal extension to lists, and canonical terms


def _fold(m: SmcModel, values) -> Any:
    # psi_obj over values already looked up
    out = m.unit()
    for a in reversed(values):
        out = m.tensor_obj(a, out)
    return out


def psi_obj(m: SmcModel, assignment, labels) -> Any:
    """Right-fold tensor x_{l0} (x) (x_{l1} (x) (... (x) unit))."""
    return _fold(m, [lookup(assignment, label) for label in labels])


def psi_hom(m: SmcModel, assignment, f: SListHom) -> Any:
    """Image of a list morphism under the monoidal extension of the assignment.

    It is the model's ``permute`` of the source values by f.phi: the
    canonical formula by default, in one pass with no term built and
    nothing recursing.
    """
    return m.permute([lookup(assignment, label) for label in f.src.labels], f.phi)


class FreeTermModel(SmcModel):
    """The term model itself; morphism equality is the decision procedure."""

    def unit(self):
        return Unit()

    def tensor_obj(self, a, b):
        return Tensor(a, b)

    def identity(self, a):
        return Id(a)

    def compose(self, f, g):
        return Comp(f, g)

    def tensor_mor(self, f, g):
        return Par(f, g)

    def assoc(self, a, b, c):
        return Assoc(a, b, c)

    def assoc_inv(self, a, b, c):
        return Inv(Assoc(a, b, c))

    def left_unitor(self, a):
        return LeftUnitor(a)

    def left_unitor_inv(self, a):
        return Inv(LeftUnitor(a))

    def right_unitor(self, a):
        return RightUnitor(a)

    def right_unitor_inv(self, a):
        return Inv(RightUnitor(a))

    def braid(self, a, b):
        return Braid(a, b)

    def braid_inv(self, a, b):
        return Inv(Braid(a, b))

    def mor_equal(self, f, g):
        return decide_equal(f, g)


def canonical_term(f: SListHom) -> MorTerm:
    """A structural term over right-nested objects whose normalization is f."""
    return psi_hom(FreeTermModel(), Gen, f)


def psi_split(m: SmcModel, values, rest) -> tuple[Any, Any]:
    """The iso from the fold of ``values`` onto ``rest`` to Psi(values) (x) rest, and Psi(values).

    It is built from the end of ``values`` backwards, from associators and
    a unitor only, with one tensor of objects per value.
    """
    iso = m.left_unitor_inv(rest)
    fold = m.unit()  # Psi of the values after the current one
    for a in reversed(values):
        iso = m.compose(m.tensor_mor(m.identity(a), iso), m.assoc_inv(a, fold, rest))
        fold = m.tensor_obj(a, fold)
    return iso, fold
