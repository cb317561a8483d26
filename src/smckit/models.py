"""
Shipped symmetric monoidal models and the shared law suite.

Three instances cover the test surface: symmetric lists (the normalization
target) and finite bijections (objects are sizes, morphisms permutations,
tensor is addition), both ``StrictModel``s, and the free term model itself
(equality decided by normalization), which lives in ``terms`` where
canonical terms are built in it.  ``smc_law_failures`` runs the pentagon,
triangle, both hexagons, symmetry and inverse laws against any model.
"""

from __future__ import annotations

from .monoidal import braiding, tensor_hom, tensor_obj
from .perms import Perm, block_perm, block_sum, block_swap
from .slist import SList, SListHom, compose as hom_compose, identity_hom
from .terms import FreeTermModel, SmcModel  # noqa: F401  FreeTermModel is re-exported


class StrictModel(SmcModel):
    """A Mac Lane strict model: its associators and unitors are identities.

    By coherence each structural formula is then the permutation under it,
    so a subclass may compute ``permute`` and ``regroup`` directly, as a
    block permutation and an identity.
    """

    def assoc(self, a, b, c):
        return self.identity(self.tensor_obj(self.tensor_obj(a, b), c))

    def left_unitor(self, a):
        return self.identity(a)

    assoc_inv = assoc
    left_unitor_inv = left_unitor
    right_unitor = left_unitor
    right_unitor_inv = left_unitor


class SListModel(StrictModel):
    """Symmetric lists with strict concatenation tensor."""

    def unit(self):
        return SList(())

    def tensor_obj(self, a, b):
        return tensor_obj(a, b)

    def identity(self, a):
        return identity_hom(a)

    def compose(self, f, g):
        return hom_compose(f, g)

    def tensor_mor(self, f, g):
        return tensor_hom(f, g)

    def braid(self, a, b):
        return braiding(a, b)

    def permute(self, values, phi):
        src = SList(tuple(label for v in values for label in v.labels))
        dst = SList(tuple(label for j in phi.img for label in values[j].labels))
        return SListHom(src, dst, block_perm([len(v) for v in values], phi))

    def regroup(self, blocks):
        return identity_hom(SList(tuple(label for values in blocks for v in values for label in v.labels)))


class FinBijModel(StrictModel):
    """Objects are naturals, morphisms permutations, tensor is addition."""

    def unit(self):
        return 0

    def tensor_obj(self, a, b):
        return a + b

    def identity(self, a):
        return Perm.identity(a)

    def compose(self, f, g):
        # mirror the list convention: images read back, right-to-left action
        return f * g

    def tensor_mor(self, f, g):
        return block_sum(f, g)

    def braid(self, a, b):
        return block_swap(a, b)

    def permute(self, values, phi):
        return block_perm(values, phi)

    def regroup(self, blocks):
        return Perm.identity(sum(map(sum, blocks)))


def smc_law_failures(m: SmcModel, objs) -> list[str]:
    """Check the symmetric monoidal axioms on a quadruple of objects.

    Returns human-readable descriptions of the failures, empty when the
    model satisfies every law on this data.
    """
    w, x, y, z = objs
    eq = m.mor_equal
    out = []

    def chain(*fs):
        acc = fs[0]
        for f in fs[1:]:
            acc = m.compose(acc, f)
        return acc

    txy = m.tensor_obj(x, y)
    tyz = m.tensor_obj(y, z)
    pentagon_lhs = chain(
        m.tensor_mor(m.assoc(w, x, y), m.identity(z)),
        m.assoc(w, m.tensor_obj(x, y), z),
        m.tensor_mor(m.identity(w), m.assoc(x, y, z)),
    )
    pentagon_rhs = chain(m.assoc(m.tensor_obj(w, x), y, z), m.assoc(w, x, tyz))
    if not eq(pentagon_lhs, pentagon_rhs):
        out.append("pentagon")

    triangle_lhs = chain(m.assoc(x, m.unit(), y), m.tensor_mor(m.identity(x), m.left_unitor(y)))
    triangle_rhs = m.tensor_mor(m.right_unitor(x), m.identity(y))
    if not eq(triangle_lhs, triangle_rhs):
        out.append("triangle")

    hex1_lhs = chain(m.assoc(x, y, z), m.braid(x, tyz), m.assoc(y, z, x))
    hex1_rhs = chain(
        m.tensor_mor(m.braid(x, y), m.identity(z)),
        m.assoc(y, x, z),
        m.tensor_mor(m.identity(y), m.braid(x, z)),
    )
    if not eq(hex1_lhs, hex1_rhs):
        out.append("hexagon-1")

    hex2_lhs = chain(m.assoc_inv(x, y, z), m.braid(txy, z), m.assoc_inv(z, x, y))
    hex2_rhs = chain(
        m.tensor_mor(m.identity(x), m.braid(y, z)),
        m.assoc_inv(x, z, y),
        m.tensor_mor(m.braid(x, z), m.identity(y)),
    )
    if not eq(hex2_lhs, hex2_rhs):
        out.append("hexagon-2")

    if not eq(chain(m.braid(x, y), m.braid(y, x)), m.identity(txy)):
        out.append("symmetry")

    if not eq(chain(m.assoc(x, y, z), m.assoc_inv(x, y, z)),
              m.identity(m.tensor_obj(txy, z))):
        out.append("assoc-inverse")
    if not eq(chain(m.left_unitor(x), m.left_unitor_inv(x)),
              m.identity(m.tensor_obj(m.unit(), x))):
        out.append("left-unitor-inverse")
    if not eq(chain(m.right_unitor(x), m.right_unitor_inv(x)),
              m.identity(m.tensor_obj(x, m.unit()))):
        out.append("right-unitor-inverse")

    return out
