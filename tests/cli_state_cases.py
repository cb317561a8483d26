"""In-process CLI calls, run one after another, whose outputs must not depend on what ran before.

Each case is (``$SMCKIT_SEED`` or None for unset, argv, the ``seed`` field
of a ``check-laws`` record or None).  ``cli_state_goldens.json`` holds the
exit code, stdout and stderr of each case run in its own interpreter, as
``python -m smckit`` with ``COLUMNS=80``.  To record them again from the
source tree ``SRC``::

    python tests/cli_state_cases.py SRC > tests/cli_state_goldens.json
"""

import json
import os
import subprocess
import sys

LAWS = ("--format", "record", "check-laws", "--suite", "braiding", "--max-size", "2")
BRAIDING = ("check-laws", "--suite", "braiding", "--max-size", "2")

CASES = [
    ("11", LAWS, 11),
    (None, ("normalize", "b x y ; b y x"), None),
    ("11", ("frobnicate",), None),
    ("12", LAWS, 12),
    ("12", ("equal", "b x y"), None),
    (None, LAWS, 0),
    (None, ("check-laws", "--max-size", "0"), None),
    ("abc", LAWS, None),
    ("abc", ("--help",), None),
    ("abc", ("check-laws", "--help"), None),
    ("abc", (*BRAIDING, "--bogus"), None),
    ("5", (*BRAIDING, "--bogus"), None),
    ("5", LAWS, 5),
    (None, ("--format", "yaml", "normalize", "b x y"), None),
    (None, ("equal", "b x x", "id (x * x)"), None),
    (None, ("normalize", "b x"), None),
    (None, (), None),
    ("5", ("normalize", "--help"), None),
    ("7", (*BRAIDING, "--seed", "3"), None),
    ("7", ("check-laws", "--suite", "nope"), None),
    ("abc", LAWS, None),
    ("5", LAWS, 5),
    ("abc", (*BRAIDING, "--seed", "3"), None),
    ("abc", (*BRAIDING, "--seed", "x"), None),
]


def record(src: str) -> list[dict]:
    out = []
    for env_seed, argv, _ in CASES:
        env = {k: v for k, v in os.environ.items() if k != "SMCKIT_SEED"}
        env.update(COLUMNS="80", PYTHONPATH=src, **({} if env_seed is None else {"SMCKIT_SEED": env_seed}))
        proc = subprocess.run(
            [sys.executable, "-m", "smckit", *argv], capture_output=True, text=True, env=env, timeout=60,
        )
        out.append({"env_seed": env_seed, "argv": list(argv), "code": proc.returncode,
                    "stdout": proc.stdout, "stderr": proc.stderr})
    return out


if __name__ == "__main__":
    print(json.dumps(record(sys.argv[1]), indent=1))
