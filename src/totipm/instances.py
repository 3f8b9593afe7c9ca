"""Instance and report serialization, and the seeded instance generator.

Instances are JSON documents with the fixed field order
``{"dims", "variant", "cost", "marginals"}``; ``cost`` is the flat row-major
entry list.  The canonical emitter prints floats with ``repr`` (shortest
round-trip form), so parse(emit(x)) reproduces x bit-exactly.

Random instances come from SplitMix64, chosen because it is trivial to
reimplement exactly (three xor-shift-multiply lines), so another program
given the same seed can reproduce every instance byte for byte.  The draw
order is part of the contract and is documented in random_instance.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .polytope import MarginalProblem

__all__ = [
    "InstanceFormatError",
    "SplitMix64",
    "parse_instance",
    "load_instance",
    "emit_instance",
    "random_instance",
    "report_to_dict",
    "emit_report",
]

_MASK64 = (1 << 64) - 1


class InstanceFormatError(ValueError):
    """A malformed instance document; the message names the offending field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"instance field {field!r}: {message}")


class SplitMix64:
    """The SplitMix64 generator: state advances by the golden-ratio constant
    and the output is a three-round xor-shift-multiply mix of the state.

    next_float draws the top 53 bits into [0, 1); next_positive_float shifts
    to (0, 1]; next_int(bound) reduces modulo bound (the bias is negligible
    for the single-digit bounds used here).
    """

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_uint64() >> 11) * 2.0**-53

    def next_positive_float(self) -> float:
        return ((self.next_uint64() >> 11) + 1) * 2.0**-53

    def next_int(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_uint64() % bound


def _require(doc, field, kind):
    if field not in doc:
        raise InstanceFormatError(field, "missing")
    value = doc[field]
    if not isinstance(value, kind):
        raise InstanceFormatError(field, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _as_float_list(values, field):
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InstanceFormatError(field, f"non-numeric entry {v!r}")
        try:
            v = float(v)
        except OverflowError:
            raise InstanceFormatError(field, "integer entry too large for a float") from None
        if not math.isfinite(v):
            raise InstanceFormatError(field, f"non-finite entry {v!r}")
        out.append(v)
    return out


def parse_instance(text: str) -> MarginalProblem:
    """Parse an instance document, renormalizing slightly-off marginals.

    A marginal sum within 1e-9 of 1 is normalized silently; a larger
    discrepancy is normalized too but draws a stderr warning.  Everything
    else malformed raises InstanceFormatError naming the field.
    """
    # JSONDecodeError is a ValueError, as is an integer past Python's digit
    # limit; nesting too deep for the decoder is a RecursionError
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InstanceFormatError("document", f"not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("document", "top level must be an object")

    dims = _require(doc, "dims", list)
    if not dims or any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in dims):
        raise InstanceFormatError("dims", "must be a nonempty list of positive integers")
    dims = tuple(dims)
    size = math.prod(dims)

    variant = _require(doc, "variant", str)
    if variant not in ("U", "V"):
        raise InstanceFormatError("variant", f'must be "U" or "V", got {variant!r}')

    cost = _require(doc, "cost", list)
    if len(cost) != size:
        raise InstanceFormatError("cost", f"has {len(cost)} entries, dims require {size}")
    cost = np.array(_as_float_list(cost, "cost"))
    try:
        cost = cost.reshape(dims)
    except ValueError as exc:
        # more modes than an ndarray takes: 32 under numpy 1.x, 64 under 2.x
        raise InstanceFormatError("dims", f"has {len(dims)} modes; {exc}") from exc

    marginals_doc = _require(doc, "marginals", list)
    if len(marginals_doc) != len(dims):
        raise InstanceFormatError(
            "marginals", f"has {len(marginals_doc)} vectors, dims require {len(dims)}"
        )
    marginals = []
    for k, (entry, n) in enumerate(zip(marginals_doc, dims)):
        if not isinstance(entry, list) or len(entry) != n:
            raise InstanceFormatError("marginals", f"vector {k} must be a list of length {n}")
        p = np.array(_as_float_list(entry, "marginals"))
        if np.any(p <= 0.0):
            raise InstanceFormatError("marginals", f"vector {k} must be strictly positive")
        with np.errstate(over="ignore"):
            total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            p = p / total
        # a sum that overflows, or an entry too small beside it, normalizes to 0
        if not np.all(np.isfinite(p) & (p > 0.0)):
            raise InstanceFormatError(
                "marginals", f"vector {k} sums to {total!r} and does not normalize to positive entries"
            )
        if abs(total - 1.0) > 1e-9:
            print(
                f"warning: marginal {k} sums to {total!r}; renormalizing",
                file=sys.stderr,
            )
        marginals.append(p)

    return MarginalProblem(cost=cost, marginals=tuple(marginals), variant=variant)


def load_instance(path) -> MarginalProblem:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise InstanceFormatError("document", f"not valid UTF-8 ({exc})") from exc
    return parse_instance(text)


def emit_instance(problem: MarginalProblem) -> str:
    """Canonical formatter; floats print in shortest round-trip form."""
    doc = {
        "dims": [int(n) for n in problem.dims],
        "variant": problem.variant,
        "cost": [float(x) for x in problem.cost.ravel()],
        "marginals": [[float(x) for x in p] for p in problem.marginals],
    }
    return json.dumps(doc, indent=2) + "\n"


def random_instance(dims, variant: str, rng: SplitMix64, marginals: str = "uniform") -> MarginalProblem:
    """Generate an instance from the SplitMix64 stream.

    Draw order (the reproducibility contract): first all prod(dims) cost
    entries in row-major order, each next_int(10) cast to float; then, for
    marginals "random", mode 0 through d-1 in turn draws n_k values via
    next_positive_float and normalizes by their sum.  Marginals "uniform"
    draws nothing and uses 1/n_k exactly.
    """
    dims = tuple(int(n) for n in dims)
    if marginals not in ("uniform", "random"):
        raise ValueError(f'marginals must be "uniform" or "random", got {marginals!r}')
    size = math.prod(dims)
    cost = np.array([float(rng.next_int(10)) for _ in range(size)]).reshape(dims)
    vectors = []
    for n in dims:
        if marginals == "uniform":
            vectors.append(np.full(n, 1.0 / n))
        else:
            p = np.array([rng.next_positive_float() for _ in range(n)])
            vectors.append(p / p.sum())
    return MarginalProblem(cost=cost, marginals=tuple(vectors), variant=variant)


def report_to_dict(report, oracle_value=None, include_trace=False) -> dict:
    """Solve report as a JSON-ready dict with the fixed field order."""
    doc = {
        "value": float(report.value),
        "iterations": int(report.iterations),
        "predicted_bound": float(report.predicted_bound),
        "eta_final": float(report.eta_final),
        "gap_bound": float(report.gap_bound),
    }
    if include_trace:
        doc["trace"] = [
            [float(row.eta), float(row.decrement), float(row.objective), float(row.gap_bound)]
            for row in report.trace
        ]
    if oracle_value is not None:
        doc["oracle_value"] = float(oracle_value)
    # always null: the field stays so that the report format does not change
    doc["timing"] = None
    return doc


def _json_number(x: float) -> str:
    # json's spelling of a float: its repr, or NaN / Infinity / -Infinity
    return repr(x) if math.isfinite(x) else json.dumps(x)


def emit_report(report, oracle_value=None, include_trace=False) -> str:
    """The text of json.dumps(report_to_dict(...), indent=2) plus a newline.

    The trace rows, most of the text, are written out directly: the
    indenting encoder is pure Python, and took three times as long."""
    doc = report_to_dict(report, oracle_value=oracle_value, include_trace=include_trace)
    fields = []
    for key, value in doc.items():
        if key == "trace" and value:
            rows = ",\n".join(
                "    [\n      " + ",\n      ".join(map(_json_number, row)) + "\n    ]"
                for row in value
            )
            fields.append(f'  "trace": [\n{rows}\n  ]')
        else:
            fields.append(f"  {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(fields) + "\n}\n"
