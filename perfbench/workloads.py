"""The benchmark's workloads: each turns a seed into the ops of one pass.

An op is one periwords experiment config, the dict that
``cli.ExperimentConfig.from_json`` reads.  The library only ever sees these
generated configs; the seed stays on the benchmark's side.

Every seeded choice is drawn from a short fixed tuple, so the set of ops any
seed can produce is finite (``all_ops``) and each has a stored reference
digest.  The tuples hold variants of near-equal cost, so a pass takes about
as long whatever the seed.
"""

import itertools
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The shipped acceptance batch with its two dominant runs scaled down
# (oracle-equivalence maxlen 12 -> 9, thue-morse divergence 2^12 -> 2^10).
# The full batch takes about 88 s, longer than a run may last, and a run
# reports each op's median over its passes, so a pass must be short enough
# for a run to hold many of them.
ACCEPTANCE_CONFIG = HERE / "acceptance.json"

WIDE_N = 16384
WIDE_CHECKPOINTS = [2 ** t for t in range(4, 15)]
# Sturmian a -> a^k b, b -> a: mean local period about 12, like fibonacci
STURMIAN_K = (2, 3)
# Lyndon words of length 8 whose periodic words have the same local-period
# sum (7680 over the first 2048 positions), so their scans cost the same
PATTERNS = ("aaaabbab", "aaabbbab", "aabbbbab", "aaaababb", "aaababbb", "aababbbb")

HORIZON = 100_000
# n_1 = 2, so the marker "a" cuts 10^5 letters into 30-32k return blocks;
# the head-dependent ops of these four cost within 10% of each other
HOLUB_HEADS = ("2,2,6", "2,2,7", "2,4,4", "2,4,5")
# each occurs 23606 or 23607 times in the first 10^5 letters of fibonacci
FIB_MARKERS = ("aa", "aab", "baa", "abaab")
CLAIM_SEEDS = (11, 23, 37, 41, 59, 61, 73, 89, 97, 101, 113, 127, 131, 149, 157, 163)
RANDOM_TRIALS = 3000
RETURN_TIME_MAX_FACTOR = 6


def _wide(k: int, pattern: str) -> list[dict]:
    sturmian = "morphic:a=" + "a" * k + "b,b=a;seed=a"
    periodic = "periodic:" + pattern
    return [
        {"action": "profile", "word": "fibonacci", "params": {"n": WIDE_N}, "format": "json"},
        {"action": "profile", "word": sturmian, "params": {"n": WIDE_N}, "format": "csv"},
        {"action": "profile", "word": periodic, "params": {"n": WIDE_N}, "format": "json"},
        {"action": "report", "word": periodic,
         "params": {"checkpoints": WIDE_CHECKPOINTS}, "format": "csv"},
        {"action": "report", "word": "fibonacci",
         "params": {"checkpoints": WIDE_CHECKPOINTS}, "format": "json"},
    ]


def _factor_scan(head: str, marker: str, seed_a: int, seed_b: int) -> list[dict]:
    holub = f"holub:n={head};tail=repeat"
    formula = f"holub-formula:n={head};tail=repeat"
    return [
        {"action": "factorize", "word": formula,
         "params": {"z": "a", "horizon": HORIZON}, "format": "csv"},
        {"action": "factorize", "word": "fibonacci",
         "params": {"z": marker, "horizon": HORIZON}, "format": "csv"},
        {"action": "factorize", "word": "thue-morse",
         "params": {"mode": "dyadic", "level": 3, "horizon": HORIZON}, "format": "csv"},
        {"action": "alpha", "word": "fibonacci",
         "params": {"depth": 4, "horizon": HORIZON}, "format": "json"},
        {"action": "verify", "word": holub, "claim": "occurrence-rigidity",
         "params": {"depth": 3, "horizon": HORIZON}, "format": "json"},
        {"action": "verify", "word": holub, "claim": "letter-formula",
         "params": {"n": HORIZON}, "format": "json"},
        {"action": "verify", "word": holub, "claim": "toeplitz-stages",
         "params": {"n": HORIZON}, "format": "json"},
        {"action": "verify", "word": holub, "claim": "return-time-bound",
         "params": {"depth": 3, "max_factor_len": RETURN_TIME_MAX_FACTOR}, "format": "json"},
        {"action": "verify", "word": "fibonacci", "claim": "return-gain", "format": "json"},
        {"action": "verify", "word": "fibonacci", "claim": "min-return-chain",
         "params": {"depth": 3}, "format": "json"},
        # no repetition_bound, so the claim estimates one with max_run_exponent
        {"action": "verify", "word": "thue-morse", "claim": "dyadic-gain",
         "params": {"horizon": 4096}, "format": "json"},
        {"action": "verify", "claim": "factor-bound",
         "params": {"trials": RANDOM_TRIALS, "seed": seed_a}, "format": "json"},
        {"action": "verify", "claim": "superadditivity",
         "params": {"trials": RANDOM_TRIALS, "seed": seed_b}, "format": "json"},
    ]


def _acceptance_runs() -> list[dict]:
    with open(ACCEPTANCE_CONFIG, encoding="utf-8") as f:
        return json.load(f)["runs"]


# name -> (seeded choice tuples, op generator); acceptance takes no choices
_GENERATORS = {
    "acceptance": ((), _acceptance_runs),
    "profile-wide": ((STURMIAN_K, PATTERNS), _wide),
    "factor-scan": ((HOLUB_HEADS, FIB_MARKERS, CLAIM_SEEDS, CLAIM_SEEDS), _factor_scan),
}
WORKLOADS = tuple(_GENERATORS)
# acceptance runs as one cli.run_batch call; the others op by op through cli.run
BATCH_WORKLOADS = ("acceptance",)


def ops(workload: str, seed: int) -> list[dict]:
    """The ops of one pass of the workload for this seed."""
    choices, build = _GENERATORS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return build(*(rng.choice(c) for c in choices))


def all_ops(workload: str) -> list[dict]:
    """Every distinct op any seed can produce, in a stable order."""
    choices, build = _GENERATORS[workload]
    seen: dict[str, dict] = {}
    for combo in itertools.product(*choices):
        for op in build(*combo):
            seen.setdefault(op_key(op), op)
    return list(seen.values())


def op_key(op: dict) -> str:
    """Canonical text of an op, the key of its reference digest."""
    return json.dumps(op, sort_keys=True, separators=(",", ":"))
