"""The list-morphism checks as loops, kept as the oracle for the whole-sequence checks.

These are ``SListHom``'s label-transport check, ``Perm.__mul__`` and
``unique_hom_linear``'s permutation-equivalence test as they were before
they ran as whole-sequence operations: one ``phi(i)`` per index, a
generator per image entry, and two ``Counter``s compared.  They must
accept, reject and word their exceptions exactly as the library does.
"""

from smckit.errors import NotLinear, NotPermutationEquivalent, SourceTargetMismatch
from smckit.perms import Perm
from smckit.slist import SList, SListHom, is_linear, underlying_multiset


def check_slist_hom(src: SList, dst: SList, phi: Perm) -> None:
    """Raise as ``SListHom(src, dst, phi)`` must; return when it must accept."""
    if len(src) != len(dst):
        raise SourceTargetMismatch(f"lists of different lengths: {len(src)} vs {len(dst)}")
    if phi.n != len(dst):
        raise SourceTargetMismatch(f"phi has size {phi.n}, expected {len(dst)}")
    for i in range(len(dst)):
        if src.labels[phi(i)] != dst.labels[i]:
            raise SourceTargetMismatch(
                f"label transport fails at index {i}: "
                f"{src}[{phi(i)}] != {dst}[{i}]"
            )


def perm_mul(p: Perm, q: Perm) -> Perm:
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return Perm(tuple(p.img[j] for j in q.img))


def unique_hom_linear(src: SList, dst: SList) -> SListHom:
    if not (is_linear(src) or is_linear(dst)):
        raise NotLinear(f"neither {src} nor {dst} is linear")
    if underlying_multiset(src) != underlying_multiset(dst):
        raise NotPermutationEquivalent(f"{src} and {dst} differ as multisets")
    position = {label: i for i, label in enumerate(src.labels)}
    phi = Perm(tuple(position[label] for label in dst.labels))
    return SListHom(src, dst, phi)
