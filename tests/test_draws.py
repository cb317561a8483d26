"""The law generators' draws are pinned: fixed seeds give the same values, byte for byte.

No verdict depends on exactly what a generator draws, so a change to a
draw's odds or to a recursion's depth step passes every law.  It would
still change every suite's cases, so each generator's reprs over fixed
seeds are hashed here against the digest of the code that drew them.
"""

import hashlib
from random import Random

from smckit import laws

LABELS = ["a", "b", "c"]


def _draws(rng: Random):
    """(generator, value) for one seed's draws, all from one stream."""
    yield "random_function", laws.random_function(rng, rng.randint(0, 3), rng.randint(0, 3))
    yield "random_span", laws.random_span(rng, 3)
    yield "random_chain", laws.random_chain(rng, 2, 3)
    yield "random_pith_cell", laws.random_pith_cell(rng, laws.random_span(rng, 4))
    yield "random_obj", (laws.random_obj(rng, LABELS), laws.random_obj(rng, LABELS, 2))
    yield "random_khom", laws.random_khom(rng, rng.randint(0, 3), rng.randint(0, 3), 3)
    term = laws.random_walk_term(rng, LABELS, rng.randint(0, 6))
    yield "random_walk_term", term
    yield "_random_structural_from", laws._random_structural_from(rng, laws.random_obj(rng, LABELS))
    for _ in range(rng.randint(1, 3)):
        term = laws.axiom_rewrite(rng, term)
        yield "axiom_rewrite", term
    yield "after", rng.random()


def _digests(seeds) -> dict[str, str]:
    """Per generator, the SHA-256 of the reprs it drew over the seeds; its first 16 hex digits."""
    shas = {}
    for seed in seeds:
        for name, drawn in _draws(Random(seed)):
            shas.setdefault(name, hashlib.sha256()).update(repr(drawn).encode())
    return {name: sha.hexdigest()[:16] for name, sha in shas.items()}


def test_law_generators_draw_what_they_drew():
    # a generator's own draws change its digest and those of every generator drawn after it
    assert _digests(range(300)) == {
        "random_function": "ef3f508a2669b39a",
        "random_span": "527ffc1dffc04ce7",
        "random_chain": "963156388c02a7ba",
        "random_pith_cell": "cd29b79948eb69b5",
        "random_obj": "2501d9c7939ef995",
        "random_khom": "6d2f50bb3a788d6a",
        "random_walk_term": "8c9ff84f6272f480",
        "_random_structural_from": "9de42fd697b2cafe",
        "axiom_rewrite": "1287f1c5795c3ab8",
        "after": "1495683213e90f70",
    }
