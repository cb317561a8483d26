"""smckit: an executable engine for symmetric monoidal coherence.

Structural morphisms of free symmetric monoidal categories normalize to
label-preserving index bijections, which decides their equality; spans of
finite sets compose by canonical pullbacks; families of symmetric lists
form a strict Kleisli composition whose fiber/value system evaluates
unbiased tensor products in any user-supplied model.
"""

from .errors import SmcError
from .perms import Perm, coxeter_entry, exchange_step, inversion_length, is_reduced, reduced_word, word_to_perm
from .slist import (
    GenWord,
    SList,
    SListHom,
    hom_equal,
    hom_from_word,
    is_linear,
    underlying_multiset,
    unique_hom_linear,
    word_from_hom,
)
from .monoidal import braiding, braiding_recursive, tensor_hom, tensor_obj
from .terms import (
    Assoc,
    Braid,
    Comp,
    Gen,
    Id,
    Inv,
    LeftUnitor,
    MorTerm,
    ObjTerm,
    Par,
    RightUnitor,
    SmcModel,
    Tensor,
    Unit,
    canonical_term,
    decide_equal,
    eval_mor,
    normalize,
)
from .models import FinBijModel, FreeTermModel, SListModel, smc_law_failures
from .spans import (
    FinFun,
    FinSet,
    PullbackSquare,
    Span,
    SpanCell,
    adjunction_cells,
    base_change_1cell,
    compose_span,
    pullback,
    transpose_span,
)
from .kleisli import (
    KCell,
    KHom,
    composite_multiset,
    duality,
    k_compose,
    k_hcomp,
    k_id,
    theta_apply,
)
from .unbias import (
    base_change_unique,
    pseudofunctor_on_cell,
    pseudofunctor_on_span,
    unbias_eval,
)
from .laws import LawReport

__version__ = "0.1.0"
